"""Executable tournament formats.

Four engines share one provider abstraction so that a finished game ledger
can be replayed through the same deterministic state machine:

* iterated round-robin (the ground-truth oracle),
* the 2012 hybrid format (two seeded groups, two-legged semifinals,
  final / third-place / classification games; 20 games),
* the 2013 double-elimination format (14 bracket games + 2 classification
  games; 16 games),
* the proposed format (28-game preliminary round-robin + 4 classification
  playoffs, optionally best-of-three; 32 games in the single-game variant).

Knockout slots that end drawn are resolved by a DecisivePolicy (resampled
"replays" followed by a coin flip or higher-seed rule); the resolved winner
is recorded on the ledger entry so replays never need the random stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    IncompleteInputError,
    InvalidInputError,
    UnsupportedSizeError,
)
from .model import AverageResult, GameResult, TeamId
from .scoring import (
    CONTINUOUS,
    DEFAULT_POLICY,
    DISCRETE,
    Ranking,
    Standings,
    TeamStats,
    TieBreakPolicy,
    discretize_pair,
    points_per_game,
    rank,
    round_half_away,
    standings_from_games,
)

KINDS = ("iterated_round_robin", "format_2012", "format_2013_double_elim", "proposed")

UNIFORM_COIN = "uniform_coin"
HIGHER_SEED = "higher_seed"


@dataclass(frozen=True)
class DecisivePolicy:
    """How a drawn game is turned into a winner where the format demands
    one: up to max_replays resampled games, then a final resolution."""

    max_replays: int = 1
    final_resolution: str = UNIFORM_COIN

    def __post_init__(self):
        if self.max_replays < 0:
            raise InvalidInputError("max_replays must be nonnegative")
        if self.final_resolution not in (UNIFORM_COIN, HIGHER_SEED):
            raise InvalidInputError(
                f"unknown final_resolution {self.final_resolution!r}"
            )


DEFAULT_DECISIVE = DecisivePolicy()


RANDOM_SEEDING = "random"


@dataclass(frozen=True)
class FormatSpec:
    """Declarative description of one tournament format run. `seeding` is a
    tuple of team names/indices (seed 1 first), None for model order, or
    "random" for a fresh permutation drawn per run from the run's stream."""

    kind: str
    games_per_pair: int = 1
    scheme: str = CONTINUOUS
    best_of_three: bool = False
    decisive: DecisivePolicy = DEFAULT_DECISIVE
    policy: TieBreakPolicy = DEFAULT_POLICY
    seeding: Optional[object] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown format kind {self.kind!r}")
        if self.games_per_pair < 1:
            raise InvalidInputError("games_per_pair must be >= 1")
        if self.scheme not in (CONTINUOUS, DISCRETE):
            raise InvalidInputError(f"unknown scheme {self.scheme!r}")


@dataclass
class LedgerEntry:
    """One played game: stage label, the sampled result, and (for knockout
    slots) the team that advanced."""

    stage: str
    result: GameResult
    winner: Optional[str] = None


@dataclass
class TournamentOutcome:
    ranking: Ranking
    games: Optional[list[LedgerEntry]]
    games_total: int


class _LiveProvider:
    """Samples fresh games and resolves draws via the decisive policy."""

    def __init__(self, sampler, rng, decisive: DecisivePolicy, seed_pos):
        self.sampler = sampler
        self.rng = rng
        self.decisive = decisive
        self.seed_pos = seed_pos
        self.entries: list[LedgerEntry] = []
        self.names = sampler.names

    def play(self, stage: str, i: int, j: int) -> LedgerEntry:
        gi, gj = self.sampler.sample(i, j, self.rng)
        entry = LedgerEntry(
            stage,
            GameResult(TeamId(i, self.names[i]), TeamId(j, self.names[j]), gi, gj),
        )
        self.entries.append(entry)
        return entry

    def resolve(self, entry: LedgerEntry, i: int, j: int, natural: Optional[int]) -> int:
        """Attach a winner to a knockout slot. `natural` is the winner the
        recorded result(s) imply, or None for a draw."""
        w = natural
        if w is None:
            for _ in range(self.decisive.max_replays):
                gi, gj = self.sampler.sample(i, j, self.rng)
                if gi != gj:
                    w = i if gi > gj else j
                    break
        if w is None:
            if self.decisive.final_resolution == UNIFORM_COIN:
                w = i if int(self.rng.integers(2)) == 0 else j
            else:
                w = i if self.seed_pos[i] < self.seed_pos[j] else j
        entry.winner = self.names[w]
        return w


class _ReplayProvider:
    """Feeds a recorded ledger back through the format state machine."""

    def __init__(self, names: Sequence[str], entries: Sequence[LedgerEntry]):
        self.names = list(names)
        self._queue = list(entries)
        self._pos = 0
        self.entries: list[LedgerEntry] = []

    def play(self, stage: str, i: int, j: int) -> LedgerEntry:
        if self._pos >= len(self._queue):
            raise InvalidInputError("ledger exhausted during replay")
        entry = self._queue[self._pos]
        self._pos += 1
        if entry.stage != stage:
            raise InvalidInputError(
                f"ledger stage {entry.stage!r} does not match expected {stage!r}"
            )
        self.entries.append(entry)
        return entry

    def resolve(self, entry: LedgerEntry, i: int, j: int, natural: Optional[int]) -> int:
        if entry.winner is not None:
            return self.names.index(entry.winner)
        if natural is None:
            raise InvalidInputError("drawn knockout game without recorded winner")
        return natural


def _natural_winner(entry: LedgerEntry, i: int, j: int) -> Optional[int]:
    r = entry.result
    if r.home_goals > r.away_goals:
        return i
    if r.home_goals < r.away_goals:
        return j
    return None


def _knockout(provider, stage: str, i: int, j: int) -> int:
    entry = provider.play(stage, i, j)
    return provider.resolve(entry, i, j, _natural_winner(entry, i, j))


def _best_of_three(provider, stage: str, i: int, j: int) -> int:
    """First to 2 wins within 3 games; drawn games count for neither side.
    An undecided series falls back to series points (3/1/0), then the
    decisive policy."""
    wins = {i: 0, j: 0}
    pts = {i: 0, j: 0}
    last = None
    for g in range(1, 4):
        last = provider.play(f"{stage}-g{g}", i, j)
        w = _natural_winner(last, i, j)
        ph, pa = points_per_game(last.result)
        pts[i] += ph
        pts[j] += pa
        if w is not None:
            wins[w] += 1
            if wins[w] == 2:
                return provider.resolve(last, i, j, w)
    if wins[i] != wins[j]:
        natural = i if wins[i] > wins[j] else j
    elif pts[i] != pts[j]:
        natural = i if pts[i] > pts[j] else j
    else:
        natural = None
    return provider.resolve(last, i, j, natural)


def _seed_list(sampler, seeding) -> list[int]:
    names = list(sampler.names)
    if seeding is None:
        return list(range(len(names)))
    idx = [names.index(s) if isinstance(s, str) else int(s) for s in seeding]
    if sorted(idx) != list(range(len(names))):
        raise InvalidInputError("seeding must be a permutation of all teams")
    return idx


def _round_robin_rank(provider, members, stage_prefix, policy, seed_pos):
    """Single round-robin among `members` (seed order); returns ordered
    member indices plus the games played."""
    games = []
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            i, j = members[a], members[b]
            games.append(provider.play(f"{stage_prefix}{a + 1}v{b + 1}", i, j).result)
    names = [provider.names[m] for m in members]
    table = standings_from_games(games, names)
    order = rank(
        table, policy, sorted(names, key=lambda n: seed_pos[provider.names.index(n)]),
        games,
    ).order()
    return [provider.names.index(n) for n in order], games


def _engine_2012(provider, seeds, policy):
    seed_pos = {t: p for p, t in enumerate(seeds)}
    group_a = [seeds[0], seeds[3], seeds[4], seeds[7]]
    group_b = [seeds[1], seeds[2], seeds[5], seeds[6]]
    order_a, _ = _round_robin_rank(provider, group_a, "groupA-", policy, seed_pos)
    order_b, _ = _round_robin_rank(provider, group_b, "groupB-", policy, seed_pos)

    def two_leg(label, i, j):
        leg1 = provider.play(f"{label}-leg1", i, j)
        leg2 = provider.play(f"{label}-leg2", j, i)
        gi = leg1.result.home_goals + leg2.result.away_goals
        gj = leg1.result.away_goals + leg2.result.home_goals
        natural = i if gi > gj else j if gj > gi else None
        return provider.resolve(leg2, i, j, natural)

    sf1_w = two_leg("semi1", order_a[0], order_b[1])
    sf2_w = two_leg("semi2", order_b[0], order_a[1])
    sf1_l = order_b[1] if sf1_w == order_a[0] else order_a[0]
    sf2_l = order_a[1] if sf2_w == order_b[0] else order_b[0]

    first = _knockout(provider, "final", sf1_w, sf2_w)
    second = sf2_w if first == sf1_w else sf1_w
    third = _knockout(provider, "third-place", sf1_l, sf2_l)
    fourth = sf2_l if third == sf1_l else sf1_l
    fifth = _knockout(provider, "class-5-6", order_a[2], order_b[2])
    sixth = order_b[2] if fifth == order_a[2] else order_a[2]
    seventh = _knockout(provider, "class-7-8", order_a[3], order_b[3])
    eighth = order_b[3] if seventh == order_a[3] else order_a[3]
    return [first, second, third, fourth, fifth, sixth, seventh, eighth]


def _engine_2013(provider, seeds, policy):
    s = seeds
    # Winners round 1: 1v8, 4v5, 2v7, 3v6.
    pairs = [(s[0], s[7]), (s[3], s[4]), (s[1], s[6]), (s[2], s[5])]
    w1, l1 = [], []
    for k, (i, j) in enumerate(pairs, 1):
        w = _knockout(provider, f"wb1-{k}", i, j)
        w1.append(w)
        l1.append(j if w == i else i)

    lr1 = []
    lr1_losers = []
    for k, (i, j) in enumerate([(l1[0], l1[1]), (l1[2], l1[3])], 1):
        w = _knockout(provider, f"lb1-{k}", i, j)
        lr1.append(w)
        lr1_losers.append(j if w == i else i)

    w2, l2 = [], []
    for k, (i, j) in enumerate([(w1[0], w1[1]), (w1[2], w1[3])], 1):
        w = _knockout(provider, f"wb2-{k}", i, j)
        w2.append(w)
        l2.append(j if w == i else i)

    # Cross-match losers round 2 to avoid immediate rematches.
    lr2 = []
    lr2_losers = []
    for k, (i, j) in enumerate([(lr1[0], l2[1]), (lr1[1], l2[0])], 1):
        w = _knockout(provider, f"lb2-{k}", i, j)
        lr2.append(w)
        lr2_losers.append(j if w == i else i)

    wb_champ = _knockout(provider, "wb-final", w2[0], w2[1])
    wb_runner = w2[1] if wb_champ == w2[0] else w2[0]

    lr3_w = _knockout(provider, "lb3", lr2[0], lr2[1])
    fourth = lr2[1] if lr3_w == lr2[0] else lr2[0]

    lb_champ = _knockout(provider, "lb-final", lr3_w, wb_runner)
    third = wb_runner if lb_champ == lr3_w else lr3_w

    first = _knockout(provider, "grand-final", wb_champ, lb_champ)
    second = lb_champ if first == wb_champ else wb_champ

    fifth = _knockout(provider, "class-5-6", lr2_losers[0], lr2_losers[1])
    sixth = lr2_losers[1] if fifth == lr2_losers[0] else lr2_losers[0]
    seventh = _knockout(provider, "class-7-8", lr1_losers[0], lr1_losers[1])
    eighth = lr1_losers[1] if seventh == lr1_losers[0] else lr1_losers[0]
    return [first, second, third, fourth, fifth, sixth, seventh, eighth]


def _engine_proposed(provider, seeds, policy, best_of_three):
    seed_pos = {t: p for p, t in enumerate(seeds)}
    prelim, _ = _round_robin_rank(provider, seeds, "rr-", policy, seed_pos)
    final_order = list(prelim)
    labels = ["final", "po-3-4", "po-5-6", "po-7-8"]
    for p, label in zip(range(0, 8, 2), labels):
        i, j = prelim[p], prelim[p + 1]
        if best_of_three:
            w = _best_of_three(provider, label, i, j)
        else:
            w = _knockout(provider, label, i, j)
        final_order[p] = w
        final_order[p + 1] = j if w == i else i
    return final_order


def _finish(provider, order) -> TournamentOutcome:
    ranking = Ranking.from_order([provider.names[i] for i in order])
    return TournamentOutcome(ranking, provider.entries, len(provider.entries))


def run_format_2012(
    sampler,
    rng: np.random.Generator,
    seeding=None,
    decisive: DecisivePolicy = DEFAULT_DECISIVE,
    policy: TieBreakPolicy = DEFAULT_POLICY,
) -> TournamentOutcome:
    """Reconstructed 2012 hybrid format: exactly 20 games, full ranking 1-8."""
    seeds = _seed_list(sampler, seeding)
    if len(seeds) != 8:
        raise UnsupportedSizeError("format_2012 requires exactly 8 teams")
    provider = _LiveProvider(sampler, rng, decisive, {t: p for p, t in enumerate(seeds)})
    return _finish(provider, _engine_2012(provider, seeds, policy))


def run_format_2013_double_elim(
    sampler,
    rng: np.random.Generator,
    seeding=None,
    decisive: DecisivePolicy = DEFAULT_DECISIVE,
    policy: TieBreakPolicy = DEFAULT_POLICY,
) -> TournamentOutcome:
    """2013 double-elimination format: 14 bracket games plus 2 classification
    games; exactly 16 games, full ranking 1-8."""
    seeds = _seed_list(sampler, seeding)
    if len(seeds) != 8:
        raise UnsupportedSizeError("format_2013_double_elim requires exactly 8 teams")
    provider = _LiveProvider(sampler, rng, decisive, {t: p for p, t in enumerate(seeds)})
    return _finish(provider, _engine_2013(provider, seeds, policy))


def run_proposed(
    sampler,
    rng: np.random.Generator,
    best_of_three: bool = False,
    seeding=None,
    decisive: DecisivePolicy = DEFAULT_DECISIVE,
    policy: TieBreakPolicy = DEFAULT_POLICY,
) -> TournamentOutcome:
    """Proposed format: 28-game preliminary round-robin, then playoffs for
    places (1,2), (3,4), (5,6), (7,8); 32 games without best-of-three."""
    seeds = _seed_list(sampler, seeding)
    if len(seeds) != 8:
        raise UnsupportedSizeError("proposed format requires exactly 8 teams")
    provider = _LiveProvider(sampler, rng, decisive, {t: p for p, t in enumerate(seeds)})
    return _finish(provider, _engine_proposed(provider, seeds, policy, best_of_three))


def run_iterated_round_robin(
    sampler,
    rng: np.random.Generator,
    games_per_pair: int,
    scheme: str = CONTINUOUS,
    policy: TieBreakPolicy = DEFAULT_POLICY,
    keep_games: bool = True,
) -> TournamentOutcome:
    """Ground-truth oracle: every unordered pair plays games_per_pair games;
    teams are ranked under the selected scheme. With keep_games=False the
    (potentially huge) ledger is dropped but games_total is still exact."""
    if games_per_pair < 1:
        raise InvalidInputError("games_per_pair must be >= 1")
    names = list(sampler.names)
    if len(names) < 2:
        raise UnsupportedSizeError("need at least 2 teams")
    k = games_per_pair
    pairs = np.array(np.triu_indices(len(names), 1))
    goals = np.empty((2, pairs.shape[1], k), dtype=np.int64)
    for p, (i, j) in enumerate(pairs.T.tolist()):
        goals[:, p] = sampler.sample_many(i, j, k, rng)
    teams = [TeamId(i, name) for i, name in enumerate(names)]
    entries = [
        LedgerEntry(f"rr-{i + 1}v{j + 1}-g{g}", GameResult(teams[i], teams[j], a, b))
        for (i, j), home_goals, away_goals in zip(pairs.T.tolist(), *goals.tolist())
        for g, (a, b) in enumerate(zip(home_goals, away_goals), 1)
    ] if keep_games else None
    table = league_table(names, pairs, goals, scheme)
    return TournamentOutcome(rank(table, policy, names), entries, goals[0].size)


def league_table(names: Sequence[str], pairs, goals, scheme: str) -> Standings:
    """Integer standings of a complete round robin whose pair p, teams
    pairs[:, p], played k games with goals goals[:, p]: k times the summed
    per-pair means (3 points a win, 1 a draw) under the continuous scheme;
    sums over each pair's mean scoreline, rounded half away from zero, under
    the discrete one. So ties are decided exactly, not by float rounding."""
    k = goals.shape[2]
    if scheme == CONTINUOUS:
        wins = np.count_nonzero(goals > goals[::-1], axis=2)
        points = 3 * wins + (k - wins.sum(0))
        scored = goals.sum(2)
    else:
        scored = (2 * goals.sum(2) + k) // (2 * k)
        points = np.where(scored > scored[::-1], 3, scored == scored[::-1])
    teams, games = pairs.ravel(), (len(names) - 1) * k
    totals = (np.bincount(teams, per_pair.ravel(), len(names)).astype(np.int64).tolist()
              for per_pair in (points, scored, scored[::-1]))
    return {name: TeamStats(*stats, games) for name, *stats in zip(names, *totals)}


def run_format(spec: FormatSpec, sampler, rng, keep_games: bool = True) -> TournamentOutcome:
    """Dispatch a FormatSpec to its engine."""
    if spec.kind == "iterated_round_robin":
        return run_iterated_round_robin(
            sampler, rng, spec.games_per_pair, spec.scheme, spec.policy, keep_games
        )
    seeding = spec.seeding
    if seeding == RANDOM_SEEDING:
        seeding = tuple(int(x) for x in rng.permutation(len(sampler.names)))
    if spec.kind == "format_2012":
        return run_format_2012(sampler, rng, seeding, spec.decisive, spec.policy)
    if spec.kind == "format_2013_double_elim":
        return run_format_2013_double_elim(
            sampler, rng, seeding, spec.decisive, spec.policy
        )
    return run_proposed(
        sampler, rng, spec.best_of_three, seeding, spec.decisive, spec.policy
    )


def replay_outcome(spec: FormatSpec, names: Sequence[str], outcome: TournamentOutcome) -> Ranking:
    """Re-run a recorded ledger through the format's deterministic state
    machine; must reproduce outcome.ranking (ledger sufficiency)."""
    if outcome.games is None:
        raise InvalidInputError("outcome carries no game ledger")
    if spec.seeding == RANDOM_SEEDING:
        raise InvalidInputError(
            "replay needs an explicit seeding; 'random' is resolved at run time"
        )
    if spec.kind == "iterated_round_robin":
        pairs, goals = _ledger_pairs(names, outcome.games, spec.games_per_pair)
        return rank(league_table(names, pairs, goals, spec.scheme), spec.policy, list(names))
    provider = _ReplayProvider(names, outcome.games)
    seeds = _seed_list(provider, spec.seeding)
    if spec.kind == "format_2012":
        order = _engine_2012(provider, seeds, spec.policy)
    elif spec.kind == "format_2013_double_elim":
        order = _engine_2013(provider, seeds, spec.policy)
    else:
        order = _engine_proposed(provider, seeds, spec.policy, spec.best_of_three)
    return Ranking.from_order([names[i] for i in order])


def _ledger_pairs(names: Sequence[str], games: Sequence[LedgerEntry], k: int):
    """An oracle ledger of k games a pair as league_table's pairs (i < j,
    row-major) and goals, each game oriented (i, j) whichever way it is named."""
    n = len(names)
    rows = np.array([(g.result.home.index, g.result.away.index, g.result.home_goals,
                      g.result.away_goals) for g in games], dtype=np.int64).reshape(-1, 4).T
    lo, hi = np.minimum(rows[0], rows[1]), np.maximum(rows[0], rows[1])
    if np.any((lo < 0) | (hi >= n) | (lo == hi)):
        raise InvalidInputError(f"ledger game of a team outside 0..{n - 1} or against itself")
    pair = lo * n + hi
    pairs = np.array(np.triu_indices(n, 1))
    counts = np.bincount(pair, minlength=n * n)[pairs[0] * n + pairs[1]]
    for (i, j), c in zip(pairs.T.tolist(), counts.tolist()):
        if c != k:
            raise InvalidInputError(f"ledger has {c} games of ({names[i]}, {names[j]}), not {k}")
    goals = np.where(rows[0] > rows[1], rows[[3, 2]], rows[2:])
    return pairs, goals[:, np.argsort(pair, kind="stable")].reshape(2, -1, k)


@dataclass
class FixedResultTable:
    """A complete pairwise score table (possibly mixing integer and
    average-valued cells), used to replay the proposed format over fixed,
    non-sampled results."""

    names: list[str]
    scores: dict  # (name_a, name_b) -> (goals_a, goals_b), both orientations

    def score(self, a: str, b: str) -> tuple[float, float]:
        try:
            return self.scores[(a, b)]
        except KeyError:
            raise IncompleteInputError(f"missing result for ({a}, {b})") from None


def rank_from_fixed_results(
    table: FixedResultTable,
    policy: TieBreakPolicy = DEFAULT_POLICY,
    playoff_overrides: Optional[dict] = None,
) -> Ranking:
    """Deterministic replay of the proposed format over a fixed result
    table. Each pairing's cell is rounded to an integer scoreline for the
    preliminary standings; classification playoffs are resolved from the
    same table's head-to-head entries.

    `playoff_overrides` maps frozenset({a, b}) to the published winner; an
    override always takes precedence. A drawn head-to-head without an
    override leaves the higher preliminary rank in place.
    """
    names = table.names
    n = len(names)
    games = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = names[i], names[j]
            sa, sb = table.score(a, b)
            avg = AverageResult((TeamId(i, a), TeamId(j, b)), sa, sb, 1)
            games.append(discretize_pair(avg))
    standings = standings_from_games(games, names)
    prelim = rank(standings, policy, names, games).order()
    final_order = list(prelim)
    overrides = playoff_overrides or {}
    for p in range(0, n, 2):
        a, b = prelim[p], prelim[p + 1]
        key = frozenset((a, b))
        if key in overrides:
            w = overrides[key]
            if w not in (a, b):
                raise InvalidInputError(f"override winner {w!r} not in playoff pair")
        else:
            sa, sb = table.score(a, b)
            ra, rb = round_half_away(sa), round_half_away(sb)
            w = a if ra >= rb else b
        final_order[p] = w
        final_order[p + 1] = b if w == a else a
    return Ranking.from_order(final_order)
