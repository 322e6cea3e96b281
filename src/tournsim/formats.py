"""Executable tournament formats.

Each bracket format is written once, as a stage table in `BRACKETS`,
played by the interpreter `_play` here and, a block of campaign
tournaments at a time, by the batched engine `tournsim.batch`. A table
lists the stages in playing order and the stages that give places 1-8:

* the 2012 hybrid format (two seeded groups, two-legged semifinals,
  final / third-place / classification games; 20 games),
* the 2013 double-elimination format (14 bracket games + 2 classification
  games; 16 games),
* the proposed format (28-game preliminary round-robin + 4 classification
  playoffs, optionally best-of-three; 32 games in the single-game variant).

A knockout slot is one pairing. The interpreter plays a slot's games and
reduces them to one score per side: goals for a single game, aggregate
goals for two legs, wins for a best of three (which stops once one side
leads by two). The higher score wins. A provider hands the interpreter
every game and, once per slot, is told the slot's natural winner (None
when the scores are level) and names the winner. So the same tables
serve three kinds of run:

* live (`run_format`): games are sampled; a level slot is resolved by a
  DecisivePolicy (resampled "replays" followed by a coin flip or
  higher-seed rule), and the winner is recorded on the slot's last
  ledger entry so replays never need the random stream;
* replay (`replay_outcome`): games and winners are read back off a
  recorded ledger, which must match the table slot by slot;
* fixed (`rank_from_fixed_results`): games are read by team index off
  the goals array of a `FixedResultTable`, rounded half away from zero
  once per table, as the golden checks over the published tables do.

The iterated round-robin (the ground-truth oracle) is not a bracket: it
samples each pair's games in bulk, turns them into the integer goal and
points matrices of its scheme by the `scoring` rules (`_scheme_matrices`),
and ranks those with `scoring.league_table`, as a replay of its ledger
does. A bracket round robin is ranked from its games by `scoring.rank`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError, UnsupportedSizeError
from .model import GameResult, _reject_first_cell
from .scoring import (
    CONTINUOUS,
    DEFAULT_POLICY,
    DISCRETE,
    Ranking,
    TieBreakPolicy,
    game_points,
    league_table,
    points_matrix,
    rank,
    round_half_away,
    standings_from_games,
)

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


@dataclass(slots=True)
class LedgerEntry:
    """One played game: stage label, the sampled result, and (for knockout
    slots) the team that advanced."""

    stage: str
    result: GameResult
    winner: Optional[str] = None


@dataclass
class TournamentOutcome:
    """A run's ranking, its ledger (None when not kept), its game count and,
    for a bracket, the seeding it was played with (team indices, seed 1
    first), which replays a random seeding."""

    ranking: Ranking
    games: Optional[list[LedgerEntry]]
    games_total: int
    seeding: Optional[tuple[int, ...]] = None


# Stage kinds. A round robin (RR) yields its finishing order. A single
# game (KO), a two-legged tie on aggregate goals with no away-goals rule
# (LEGS) and a playoff (one game, or best of three when
# spec.best_of_three) yield (winner, loser).
RR, KO, LEGS, PLAYOFF = "round_robin", "knockout", "two_legs", "playoff"


def _seeds(*positions):
    return [("seeds", p) for p in positions]


def _both(*labels):
    """Winner then loser of each stage, as consecutive places."""
    return [(label, p) for label in labels for p in (0, 1)]


# Each bracket as (stages, places). A stage is (label, kind, teams): a
# round robin's label is the prefix of its games' ledger labels, the other
# kinds' label is their game's. A team is (stage label, position) in what
# that stage yielded, and "seeds" is the seeding, seed 1 first. A round
# robin is played by seeds, listed in seed order. Stages are listed in
# playing order, which fixes the order of the ledger and the draw order of
# both interpreters: `_play` here and the batched `batch.play_block`, which
# draws once for each run of stages of one kind and team count that read
# no result of each other.
BRACKETS = {
    "format_2012": (
        [
            # Groups by seed: seeds 1, 4, 5, 8 and seeds 2, 3, 6, 7.
            ("groupA-", RR, _seeds(0, 3, 4, 7)),
            ("groupB-", RR, _seeds(1, 2, 5, 6)),
            # Semifinals A1 v B2 and B1 v A2.
            ("semi1", LEGS, [("groupA-", 0), ("groupB-", 1)]),
            ("semi2", LEGS, [("groupB-", 0), ("groupA-", 1)]),
            ("final", KO, [("semi1", 0), ("semi2", 0)]),
            ("third-place", KO, [("semi1", 1), ("semi2", 1)]),
            ("class-5-6", KO, [("groupA-", 2), ("groupB-", 2)]),
            ("class-7-8", KO, [("groupA-", 3), ("groupB-", 3)]),
        ],
        _both("final", "third-place", "class-5-6", "class-7-8"),
    ),
    "format_2013_double_elim": (
        [
            # Winners round 1: 1v8, 4v5, 2v7, 3v6.
            ("wb1-1", KO, _seeds(0, 7)),
            ("wb1-2", KO, _seeds(3, 4)),
            ("wb1-3", KO, _seeds(1, 6)),
            ("wb1-4", KO, _seeds(2, 5)),
            ("lb1-1", KO, [("wb1-1", 1), ("wb1-2", 1)]),
            ("lb1-2", KO, [("wb1-3", 1), ("wb1-4", 1)]),
            ("wb2-1", KO, [("wb1-1", 0), ("wb1-2", 0)]),
            ("wb2-2", KO, [("wb1-3", 0), ("wb1-4", 0)]),
            # Cross-match losers round 2 to avoid immediate rematches.
            ("lb2-1", KO, [("lb1-1", 0), ("wb2-2", 1)]),
            ("lb2-2", KO, [("lb1-2", 0), ("wb2-1", 1)]),
            ("wb-final", KO, [("wb2-1", 0), ("wb2-2", 0)]),
            ("lb3", KO, [("lb2-1", 0), ("lb2-2", 0)]),
            ("class-5-6", KO, [("lb2-1", 1), ("lb2-2", 1)]),
            ("class-7-8", KO, [("lb1-1", 1), ("lb1-2", 1)]),
            ("lb-final", KO, [("lb3", 0), ("wb-final", 1)]),
            ("grand-final", KO, [("wb-final", 0), ("lb-final", 0)]),
        ],
        # Third is the losers' final's loser, fourth the losers' round 3's.
        _both("grand-final") + [("lb-final", 1), ("lb3", 1)]
        + _both("class-5-6", "class-7-8"),
    ),
    "proposed": (
        [
            ("rr-", RR, _seeds(*range(8))),
            ("final", PLAYOFF, [("rr-", 0), ("rr-", 1)]),
            ("po-3-4", PLAYOFF, [("rr-", 2), ("rr-", 3)]),
            ("po-5-6", PLAYOFF, [("rr-", 4), ("rr-", 5)]),
            ("po-7-8", PLAYOFF, [("rr-", 6), ("rr-", 7)]),
        ],
        _both("final", "po-3-4", "po-5-6", "po-7-8"),
    ),
}

KINDS = ("iterated_round_robin", *BRACKETS)


class _LiveProvider:
    """Samples fresh games and resolves draws via the decisive policy."""

    def __init__(self, sampler, rng, decisive: DecisivePolicy, seeds: list[int]):
        self.sampler = sampler
        self.rng = rng
        self.decisive = decisive
        self.seeds = seeds
        self.entries: list[LedgerEntry] = []
        self.names = sampler.names

    def play(self, stage: str, i: int, j: int) -> LedgerEntry:
        gi, gj = self.sampler.sample(i, j, self.rng)
        entry = LedgerEntry(stage, GameResult(self.names[i], self.names[j], gi, gj))
        self.entries.append(entry)
        return entry

    def resolve(self, entry: LedgerEntry, i: int, j: int, natural: Optional[int]) -> int:
        """Attach a winner to a knockout slot's last entry. `natural` is the
        winner the slot's score implies, or None when it is level."""
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
                w = i if self.seeds.index(i) < self.seeds.index(j) else j
        entry.winner = self.names[w]
        return w


class _ReplayProvider:
    """Feeds a recorded ledger back through a stage table; every entry
    must be the game the table asks for next."""

    def __init__(self, names: Sequence[str], entries: Sequence[LedgerEntry]):
        self.names = list(names)
        self._queue = list(entries)
        self._pos = 0

    def play(self, stage: str, i: int, j: int) -> LedgerEntry:
        if self._pos >= len(self._queue):
            raise InvalidInputError("ledger exhausted during replay")
        entry = self._queue[self._pos]
        self._pos += 1
        if entry.stage != stage:
            raise InvalidInputError(
                f"ledger stage {entry.stage!r} does not match expected {stage!r}"
            )
        r = entry.result
        if (r.home, r.away) != (self.names[i], self.names[j]):
            raise InvalidInputError(
                f"ledger game {stage!r} is {r.home} v {r.away}, "
                f"expected {self.names[i]} v {self.names[j]}"
            )
        return entry

    def resolve(self, entry: LedgerEntry, i: int, j: int, natural: Optional[int]) -> int:
        if entry.winner is None:
            if natural is None:
                raise InvalidInputError("drawn knockout game without recorded winner")
            return natural
        # A decided result leaves the winner no choice; a draw leaves two.
        allowed = (i, j) if natural is None else (natural,)
        for w in allowed:
            if entry.winner == self.names[w]:
                return w
        raise InvalidInputError(
            f"ledger winner {entry.winner!r} of {entry.stage!r} is not "
            + " or ".join(self.names[w] for w in allowed)
        )

    def finish(self) -> None:
        left = len(self._queue) - self._pos
        if left:
            raise InvalidInputError(f"{left} ledger entries left after the last stage")


class _FixedProvider:
    """Reads each game off a FixedResultTable, each side's goals rounded
    half away from zero, the whole table once. A playoff goes to its
    override if there is one, then to the table's result, then, when that
    is drawn, to the higher preliminary place (the home side)."""

    def __init__(self, table: FixedResultTable, overrides: dict):
        self.goals = round_half_away(table.goals).tolist()
        self.names = table.names
        self.overrides = overrides

    def play(self, stage: str, i: int, j: int) -> LedgerEntry:
        ga, gb = self.goals[i][j]
        return LedgerEntry(stage, GameResult(self.names[i], self.names[j], ga, gb))

    def resolve(self, entry: LedgerEntry, i: int, j: int, natural: Optional[int]) -> int:
        pair = (self.names[i], self.names[j])
        w = self.overrides.get(frozenset(pair))
        if w is None:
            return i if natural is None else natural
        if w not in pair:
            raise InvalidInputError(f"override winner {w!r} not in playoff pair")
        return i if w == pair[0] else j


def _round_robin(provider, prefix, members, policy) -> list[int]:
    """Single round-robin among `members`, in seed order; their finishing order."""
    games = [
        provider.play(f"{prefix}{a + 1}v{b + 1}", members[a], members[b]).result
        for a in range(len(members))
        for b in range(a + 1, len(members))
    ]
    group = [provider.names[m] for m in members]
    table = standings_from_games(games, group)
    return [members[group.index(n)] for n in rank(table, policy, group, games).order()]


def _play(provider, kind: str, seeds: Sequence[int], policy: TieBreakPolicy,
          best_of_three: bool) -> list[int]:
    """Play bracket `kind` on `seeds` (team indices, seed 1 first) with the
    games `provider` gives; returns the final order, best first."""
    stages, places = BRACKETS[kind]
    if len(seeds) != len(places):
        raise UnsupportedSizeError(f"{kind} requires exactly {len(places)} teams")
    yielded = {"seeds": seeds}
    for label, stage_kind, refs in stages:
        teams = [yielded[stage][p] for stage, p in refs]
        if stage_kind == RR:
            yielded[label] = _round_robin(provider, label, teams, policy)
            continue
        i, j = teams
        if stage_kind == LEGS:
            # Home leg, then away leg; aggregate goals, no away-goals rule.
            leg1 = provider.play(f"{label}-leg1", i, j).result
            last = provider.play(f"{label}-leg2", j, i)
            si = leg1.home_goals + last.result.away_goals
            sj = leg1.away_goals + last.result.home_goals
        elif stage_kind == PLAYOFF and best_of_three:
            # Wins, drawn games counting for neither side; the series stops
            # once a side leads by two. Series points (3/1/0) cannot decide
            # it: equal wins after three games mean equal draws.
            si = sj = 0
            for g in range(1, 4):
                last = provider.play(f"{label}-g{g}", i, j)
                r = last.result
                si += r.home_goals > r.away_goals
                sj += r.away_goals > r.home_goals
                if abs(si - sj) == 2:
                    break
        else:
            last = provider.play(label, i, j)
            si, sj = last.result.home_goals, last.result.away_goals
        w = provider.resolve(last, i, j, i if si > sj else j if sj > si else None)
        yielded[label] = (w, j if w == i else i)
    return [yielded[stage][p] for stage, p in places]


def _seed_list(names: Sequence[str], seeding) -> list[int]:
    """Team indices into `names` by seed position, seed 1 first, of a
    seeding of names or indices; None seeds `names` in order."""
    if seeding is None:
        return list(range(len(names)))
    for s in seeding:
        if isinstance(s, str) and s not in names:
            raise InvalidInputError(f"seeding names {s!r}, not a team of the model")
    idx = [names.index(s) if isinstance(s, str) else int(s) for s in seeding]
    if sorted(idx) != list(range(len(names))):
        raise InvalidInputError("seeding must be a permutation of all teams")
    return idx


@functools.lru_cache(maxsize=None)
def _pair_index(n: int) -> np.ndarray:
    """The teams (i, j), i < j, of every pair of n teams in row-major order,
    as a read-only (2, pairs) array built once per team count."""
    pairs = np.array(np.triu_indices(n, 1))
    pairs.setflags(write=False)
    return pairs


def _iterated_round_robin(spec: FormatSpec, sampler, rng, keep_games: bool) -> TournamentOutcome:
    """Ground-truth oracle: every unordered pair plays spec.games_per_pair
    games; teams are ranked under spec.scheme and spec.policy."""
    names = list(sampler.names)
    if len(names) < 2:
        raise UnsupportedSizeError("need at least 2 teams")
    k = spec.games_per_pair
    pairs = _pair_index(len(names))
    goals = np.empty((2, pairs.shape[1], k), dtype=np.int64)
    for p, (i, j) in enumerate(pairs.T.tolist()):
        goals[:, p] = sampler.sample_many(i, j, k, rng)
    entries = None
    if keep_games:
        # Column by column: labels, team names and goals of the games in
        # ledger order (pair by pair, game by game).
        prefixes = [f"rr-{i + 1}v{j + 1}-g" for i, j in pairs.T.tolist()]
        suffixes = [str(g) for g in range(1, k + 1)]
        labels = [p + s for p in prefixes for s in suffixes]
        home, away = np.array(names, dtype=object)[pairs].repeat(k, axis=1).tolist()
        results = map(GameResult, home, away, *goals.reshape(2, -1).tolist())
        entries = list(map(LedgerEntry, labels, results))
    _, ranking = league_table(names, *_scheme_matrices(len(names), goals, spec.scheme),
                              spec.policy)
    return TournamentOutcome(ranking, entries, goals[0].size)


def _scheme_matrices(n: int, goals, scheme: str):
    """The integer goal and points matrices of a complete round robin of n
    teams whose pair p, teams `_pair_index(n)[:, p]`, played k games with
    goals goals[:, p]: k times the summed per-pair means (3 points a win,
    1 a draw) under the continuous scheme; each pair's mean scoreline,
    rounded half away from zero and scored as one game, under the discrete
    one. So `league_table` decides ties, head-to-head too, exactly."""
    pairs = _pair_index(n)
    cells = pairs, pairs[::-1]  # (i, j) of each pair, then (j, i)
    matrix = np.zeros((n, n), dtype=np.int64)
    if scheme == CONTINUOUS:
        points = np.zeros((n, n), dtype=np.int64)
        points[cells] = game_points(goals, goals[::-1]).sum(2)
        matrix[cells] = goals.sum(2)
        return matrix, points
    matrix[cells] = round_half_away(goals.sum(2), goals.shape[2])
    return matrix, points_matrix(matrix)


def run_format(spec: FormatSpec, sampler, rng, keep_games: bool = True) -> TournamentOutcome:
    """Play one tournament of `spec` on games sampled from `sampler` with
    `rng`. With keep_games=False the ledger is dropped (games is None) but
    games_total is still exact."""
    if spec.kind == "iterated_round_robin":
        return _iterated_round_robin(spec, sampler, rng, keep_games)
    seeding = spec.seeding
    if seeding == RANDOM_SEEDING:
        seeding = rng.permutation(len(sampler.names)).tolist()
    provider, ranking = _run_bracket(
        spec, sampler.names, seeding,
        lambda seeds: _LiveProvider(sampler, rng, spec.decisive, seeds),
    )
    entries = provider.entries
    return TournamentOutcome(ranking, entries if keep_games else None, len(entries),
                             tuple(provider.seeds))


def _run_bracket(spec: FormatSpec, names: Sequence[str], seeding, provider_for):
    """Play bracket spec.kind on `seeding` (see `_seed_list`) with the games
    of provider_for(seed list); returns the provider and the final Ranking."""
    seeds = _seed_list(names, seeding)
    provider = provider_for(seeds)
    order = _play(provider, spec.kind, seeds, spec.policy, spec.best_of_three)
    return provider, Ranking.from_order([names[i] for i in order])


def replay_outcome(spec: FormatSpec, names: Sequence[str], outcome: TournamentOutcome) -> Ranking:
    """Re-run a recorded ledger through the format's stage table; must
    reproduce outcome.ranking (ledger sufficiency). A random seeding is
    replayed from the seeding the outcome recorded."""
    if outcome.games is None:
        raise InvalidInputError("outcome carries no game ledger")
    if spec.kind == "iterated_round_robin":
        goals = _ledger_goals(names, outcome.games, spec.games_per_pair)
        return league_table(names, *_scheme_matrices(len(names), goals, spec.scheme),
                            spec.policy)[1]
    seeding = spec.seeding
    if seeding == RANDOM_SEEDING:
        seeding = outcome.seeding
        if seeding is None:
            raise InvalidInputError(
                "replay of a 'random' seeding needs the seeding the outcome recorded"
            )
    provider, ranking = _run_bracket(
        spec, names, seeding, lambda seeds: _ReplayProvider(names, outcome.games)
    )
    provider.finish()
    return ranking


def _ledger_goals(names: Sequence[str], games: Sequence[LedgerEntry], k: int):
    """The goals of an oracle ledger of k games a pair, as the live run
    holds them: shape (2, pairs, k), pairs as `_pair_index`, each game
    oriented (i, j) whichever way it is named."""
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    # One list per column: zip(*results) would allocate one tracked iterator
    # a game, which, with the live run's ledger still alive, starts a
    # garbage collection in nearly every replay.
    results = [g.result for g in games]
    try:
        rows = np.array([[index[r.home] for r in results], [index[r.away] for r in results],
                         [r.home_goals for r in results], [r.away_goals for r in results]],
                        dtype=np.int64)
    except KeyError as e:
        raise InvalidInputError(f"ledger game of {e.args[0]!r}, a team not in names") from None
    lo, hi = np.minimum(rows[0], rows[1]), np.maximum(rows[0], rows[1])
    pair = lo * n + hi
    pairs = _pair_index(n)
    counts = np.bincount(pair, minlength=n * n)[pairs[0] * n + pairs[1]]
    for (i, j), c in zip(pairs.T.tolist(), counts.tolist()):
        if c != k:
            raise InvalidInputError(f"ledger has {c} games of ({names[i]}, {names[j]}), not {k}")
    goals = np.where(rows[0] > rows[1], rows[[3, 2]], rows[2:])
    return goals[:, np.argsort(pair, kind="stable")].reshape(2, -1, k)


@dataclass
class FixedResultTable:
    """A complete pairwise score table, used to replay the proposed format
    over fixed, non-sampled results. goals, a read-only copy, holds at [i, j]
    the goals of names[i] and of names[j] in their game with names[i] at
    home, each as printed (integer or average-valued), finite and
    nonnegative; the unused diagonal is 0. A pair's cells need not mirror."""

    names: list[str]
    goals: np.ndarray  # (n, n, 2) floats

    def __post_init__(self):
        goals = np.array(self.goals, dtype=float)  # a copy: the caller's array stays theirs
        n = len(self.names)
        if goals.shape != (n, n, 2):
            raise InvalidInputError(f"goals of shape {goals.shape} do not fit {n} teams, "
                                    f"need {(n, n, 2)}")
        goals[range(n), range(n)] = 0
        bad = ~(np.isfinite(goals) & (goals >= 0)).all(-1)
        _reject_first_cell(self.names, bad, InvalidInputError, lambda i, j:
                           f"goals {goals[i, j].tolist()} are not finite and nonnegative")
        goals.setflags(write=False)
        self.goals = goals


def rank_from_fixed_results(
    table: FixedResultTable,
    policy: TieBreakPolicy = DEFAULT_POLICY,
    playoff_overrides: Optional[dict] = None,
) -> Ranking:
    """Deterministic replay of the proposed format over a fixed result
    table, seeded in table order. Each pairing's cell is rounded to an
    integer scoreline for the preliminary standings; classification
    playoffs are resolved from the same table's head-to-head entries.

    `playoff_overrides` maps frozenset({a, b}) to the published winner; an
    override always takes precedence. A drawn head-to-head without an
    override leaves the higher preliminary rank in place.
    """
    return _run_bracket(
        FormatSpec("proposed", policy=policy), table.names, None,
        lambda seeds: _FixedProvider(table, playoff_overrides or {}),
    )[1]
