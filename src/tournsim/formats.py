"""Executable tournament formats.

Each bracket format is written once, as a stage table in `BRACKETS`. A
table lists the stages in playing order and the stages that give places
1-8. Both engines play its one compiled form in `_TABLES` (`_compile`),
the interpreter `_play` here a tournament at a time and the batched
engine `tournsim.batch` a block of campaign tournaments at a time. The
brackets are:

* the 2012 hybrid format (two seeded groups, two-legged semifinals,
  final / third-place / classification games; 20 games),
* the 2013 double-elimination format (14 bracket games + 2 classification
  games; 16 games),
* the proposed format (28-game preliminary round-robin + 4 classification
  playoffs, optionally best-of-three; 32 games in the single-game variant).

A knockout slot is one pairing. The interpreter plays a slot's games and
reduces them to one score per side: goals for a single game, aggregate
goals for two legs, wins for a best of three (which stops once one side
leads by two). The higher score wins. Every run calls `_play` with its
seed list and a provider. The provider's `play` returns each game's
result, and its `resolve`, called once per slot after the slot's last
game, is told the slot's natural winner (None when the scores are level)
and names the winner. So the same tables serve three kinds of run:

* live (`run_format`, `_LiveProvider`): games are sampled, and a level
  slot is resolved by a DecisivePolicy, its winner recorded on the ledger;
* replay (`replay_outcome`, `_ReplayProvider`): games and winners are
  read back off a recorded ledger, which must match the table;
* fixed (`rank_from_fixed_results`, `_FixedProvider`): games are read
  off a `model.FixedResultTable`, as the golden checks do.

The iterated round-robin (the ground-truth oracle) is not a bracket: it
samples every pair's games in one `sample_many` call, and its live run
and its replay rank them by one call, `_oracle_ranking`, which ends in
`scoring.rank_totals`. Its ledger, a `Ledger`, is the goals array it
drew, checked, not cast: a goal `GameResult` would reject fails the run,
ledger kept or not. A bracket's ledger is a tuple of entries, and a
bracket round robin is ranked from its games by `scoring.rank`.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Mapping, Sequence
from typing import Optional

import numpy as np

from .errors import InvalidInputError, UnsupportedSizeError
from .model import (_INT64_MAX, FixedResultTable, GameResult, _at_least, _bool, _choice,
                    _instance, _integer, _name, _names, _optional, _record, _sampler,
                    _sequence, _tuple)
from .scoring import (
    CONTINUOUS,
    DEFAULT_POLICY,
    DISCRETE,
    Ranking,
    TieBreakPolicy,
    game_points,
    points_matrix,
    rank,
    rank_totals,
    round_half_away,
    round_robin_totals,
    standings_from_games,
)

UNIFORM_COIN = "uniform_coin"
HIGHER_SEED = "higher_seed"


class DecisivePolicy(_record("DecisivePolicy", dict(
        max_replays=_at_least(0), final_resolution=_choice((UNIFORM_COIN, HIGHER_SEED))),
        (1, UNIFORM_COIN))):
    """How a drawn game is turned into a winner where the format demands
    one: up to max_replays resampled games, then a final resolution."""

    __slots__ = ()


DEFAULT_DECISIVE = DecisivePolicy()


class LedgerEntry(_record("LedgerEntry", dict(
        stage=_instance(str, "stage label"), result=_instance(GameResult),
        winner=_optional(_name)), (None,))):
    """One played game: stage label, the sampled result, and (for knockout
    slots) the team that advanced, otherwise None."""

    __slots__ = ()


# An entry of checked fields, built past the readers.
_entry = functools.partial(tuple.__new__, LedgerEntry)


class Ledger(Sequence):
    """The oracle's ledger, read-only: the team `names` (a tuple) and the
    int64 array `goals` (2, pairs, k) of home and away goals it drew, pair
    by pair as `_pair_index`, game by game, the lower-indexed team at home,
    so each game's `labels` and `teams` (indices into names) follow. The
    constructor raises what `GameResult` raises for the first game it
    rejects. Entries are `LedgerEntry` views built when read, a slice is a
    list of them, and a ledger equals another or a list of the same entries.
    A goal above the int64 maximum is rejected as too large."""

    __slots__ = ("names", "goals")
    __hash__ = None

    def __init__(self, names: Sequence[str], goals):
        names = _names(names, "names")
        # Goals not in an array are read as the values they are: numpy
        # would turn a bool among ints into an int.
        if not isinstance(goals, np.ndarray):
            goals = np.array(goals, dtype=object)
        if len(set(names)) != len(names):
            raise InvalidInputError("duplicate team name in ledger")
        pairs = len(names) * (len(names) - 1) // 2
        if goals.ndim != 3 or goals.shape[:2] != (2, pairs):
            raise InvalidInputError(f"goals of shape {goals.shape} do not fit the {pairs} "
                                    f"pairs of {len(names)} teams")
        if goals.dtype.kind == "i":
            goals = goals.astype(np.int64, copy=False)
            if (goals < 0).any():
                raise InvalidInputError("goals must be nonnegative")
        else:
            # Any other goals, unsigned too: each game is built, so the first
            # that `GameResult` rejects raises, and the goals it keeps are ints.
            teams = _pair_index(len(names)).repeat(goals.shape[2], axis=1).tolist()
            games = [GameResult(names[h], names[a], *g)[2:] for h, a, g in
                     zip(*teams, goals.reshape(2, -1).T.tolist())]
            most = max(map(max, games), default=0)
            if most > _INT64_MAX:
                raise InvalidInputError(f"goal {most} is too large for the ledger, which "
                                        f"holds goals up to {_INT64_MAX}")
            goals = np.array(games, np.int64).T.reshape(goals.shape)
        # A read-only view: writes through the ledger fail.
        goals = goals.view()
        goals.setflags(write=False)
        self.names, self.goals = names, goals

    @property
    def labels(self) -> tuple[str, ...]:
        return _ledger_labels(len(self.names), self.goals.shape[2])

    @property
    def teams(self) -> np.ndarray:
        return _pair_index(len(self.names)).repeat(self.goals.shape[2], axis=1)

    def __len__(self) -> int:
        return self.goals[0].size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[g] for g in range(*index.indices(len(self)))]
        index = range(len(self))[index]  # in range, and not negative
        pair, game = divmod(index, self.goals.shape[2])
        home, away = _pair_index(len(self.names))[:, pair].tolist()
        return _entry((self.labels[index], GameResult(
            self.names[home], self.names[away], *self.goals[:, pair, game].tolist()), None))

    def __iter__(self):
        team = self.names.__getitem__
        home, away = self.teams.tolist()
        results = map(GameResult, map(team, home), map(team, away),
                      *self.goals.reshape(2, -1).tolist())
        return map(_entry, zip(self.labels, results, itertools.repeat(None)))

    def __eq__(self, other):
        if not isinstance(other, (Ledger, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"Ledger({list(self)!r})"


def _stray_winner(entry: LedgerEntry) -> InvalidInputError:
    return InvalidInputError(f"ledger game {entry.stage!r} records winner {entry.winner!r} "
                             "but settles no knockout slot")


_entries = _tuple(_instance(LedgerEntry), "ledger entries")


def _games(games, name: str):
    """None, a `Ledger`, or a `_sequence` of entries kept as a tuple."""
    return games if games is None or isinstance(games, Ledger) else _entries(games, name)


class TournamentOutcome(_record("TournamentOutcome", dict(
        ranking=_instance(Ranking), games=_games, games_total=_at_least(0),
        seeding=_optional(_tuple(_at_least(0), "team indices"))), (None,))):
    """A run's ranking, its ledger (None when not kept; for the oracle the
    `Ledger` of the goals it drew, in its fixed layout; for a bracket a
    tuple of entries), its game count, the ledger's length when it is kept,
    and, for a bracket, the seeding it was played with (team indices, seed
    1 first), which replays a random one."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        outcome = super().__new__(cls, *args, **kwargs)
        if outcome.games is not None and len(outcome.games) != outcome.games_total:
            raise InvalidInputError(f"games_total is {outcome.games_total}, but the ledger "
                                    f"holds {len(outcome.games)} games")
        return outcome


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

RANDOM_SEEDING = "random"


def _seeding(seeding, name: str):
    """A FormatSpec seeding: None, RANDOM_SEEDING, or a `_sequence` of team
    names and integer indices (`_integer`), kept as a tuple."""
    if isinstance(seeding, str):
        return _choice((RANDOM_SEEDING,))(seeding, name)
    if seeding is not None and not _sequence(seeding):
        raise InvalidInputError(f"{name} is not a sequence: {seeding!r}")
    return None if seeding is None else tuple(
        s if isinstance(s, str) else _integer(s, f"{name} indices must be integers")
        for s in seeding)


class FormatSpec(_record("FormatSpec", dict(
        kind=_choice(KINDS, "format kind"), games_per_pair=_at_least(1),
        scheme=_choice((CONTINUOUS, DISCRETE)), best_of_three=_bool,
        decisive=_instance(DecisivePolicy), policy=_instance(TieBreakPolicy), seeding=_seeding),
        (1, CONTINUOUS, False, DEFAULT_DECISIVE, DEFAULT_POLICY, None))):
    """Declarative description of one tournament format run. `seeding` is
    None for model order, "random" for a permutation drawn per run from the
    run's stream, or a sequence of team names or integer indices, seed 1
    first, kept as a tuple."""

    __slots__ = ()

# The compiled kind of a playoff under best of three.
_BEST_OF_THREE = "best_of_three"


def _compile(stages, places, best_of_three: bool):
    """A bracket as both engines play it: (stages, place columns, width).

    Results live on a board of team indices, `width` columns wide. Its
    first columns hold the seeds, the team at each seed position (column 0
    is the top seed). Each stage writes what it yields, its finishing
    order or its winner then its loser, to columns of its own, in playing
    order, and the places are read off the board by column. A stage is
    (kind, games, team columns, yield columns): a playoff's kind is KO, or
    _BEST_OF_THREE under `best_of_three`; `games` holds the ledger labels
    of the stage's games in playing order, as (label, a, b) for a round
    robin's game of its a-th and b-th team; the team columns are where its
    teams stand on the board."""
    column = {"seeds": range(len(places))}
    width = len(places)
    table = []
    for label, kind, refs in stages:
        if kind == RR:
            m = len(refs)
            games = tuple((f"{label}{a + 1}v{b + 1}", a, b)
                          for a in range(m) for b in range(a + 1, m))
        elif kind == LEGS:
            games = (f"{label}-leg1", f"{label}-leg2")
        elif kind == PLAYOFF and best_of_three:
            kind, games = _BEST_OF_THREE, tuple(f"{label}-g{g}" for g in (1, 2, 3))
        else:
            kind, games = KO, (label,)
        teams = tuple(column[stage][p] for stage, p in refs)
        column[label] = range(width, width + len(refs))
        width += len(refs)
        table.append((kind, games, teams, tuple(column[label])))
    return table, tuple(column[stage][p] for stage, p in places), width


# Each bracket compiled for both best-of-three settings, at import, so
# that no run builds a label or looks up a team by stage.
_TABLES = {(kind, best_of_three): _compile(stages, places, best_of_three)
           for kind, (stages, places) in BRACKETS.items() for best_of_three in (False, True)}


class _LiveProvider:
    """Samples fresh games and resolves draws via the decisive policy. Each
    game is kept as a list [stage, result, winner], each slot's winner
    written on its last game, so a replay draws nothing."""

    def __init__(self, sampler, rng, decisive: DecisivePolicy, seeds: list[int]):
        self.sampler = sampler
        self.rng = rng
        self.decisive = decisive
        self.seeds = seeds
        self.games: list[list] = []
        self.names = sampler.names

    def play(self, stage: str, i: int, j: int) -> GameResult:
        gi, gj = self.sampler.sample(i, j, self.rng)
        result = GameResult(self.names[i], self.names[j], gi, gj)
        self.games.append([stage, result, None])
        return result

    def resolve(self, i: int, j: int, natural: Optional[int]) -> int:
        """Record the winner of a knockout slot on its last game. `natural`
        is the winner the slot's score implies, or None when it is level."""
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
        self.games[-1][2] = self.names[w]
        return w


class _ReplayProvider:
    """Feeds a recorded ledger back through a stage table; every entry
    must be the game the table asks for next, and only a knockout slot's
    last game may record a winner."""

    def __init__(self, names: Sequence[str], entries: Sequence[LedgerEntry]):
        self.names = list(names)
        self._queue = list(entries)
        self._pos = 0
        self._winner = None  # the last game's recorded winner, until its slot settles

    def play(self, stage: str, i: int, j: int) -> GameResult:
        pos = self._pos
        if self._winner is not None:
            raise _stray_winner(self._queue[pos - 1])
        if pos >= len(self._queue):
            raise InvalidInputError("ledger exhausted during replay")
        self._pos = pos + 1
        # One unpacking and one slice, not named field reads, which cost
        # more on a tuple record.
        label, result, self._winner = self._queue[pos]
        if label != stage:
            raise InvalidInputError(
                f"ledger stage {label!r} does not match expected {stage!r}"
            )
        teams = result[:2]
        if teams != (self.names[i], self.names[j]):
            raise InvalidInputError(
                f"ledger game {stage!r} is {teams[0]} v {teams[1]}, "
                f"expected {self.names[i]} v {self.names[j]}"
            )
        return result

    def resolve(self, i: int, j: int, natural: Optional[int]) -> int:
        winner, self._winner = self._winner, None
        if winner is None:
            if natural is None:
                raise InvalidInputError("drawn knockout game without recorded winner")
            return natural
        # A decided result leaves the winner no choice; a draw leaves two.
        allowed = (i, j) if natural is None else (natural,)
        for w in allowed:
            if winner == self.names[w]:
                return w
        raise InvalidInputError(
            f"ledger winner {winner!r} of {self._queue[self._pos - 1].stage!r} is not "
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
    is drawn, to the higher preliminary place (the home side). Each
    override is taken off `overrides` when it settles its playoff."""

    def __init__(self, table: FixedResultTable, overrides: dict):
        self.goals = round_half_away(table.goals).tolist()
        self.names = table.names
        self.overrides = overrides

    def play(self, stage: str, i: int, j: int) -> GameResult:
        ga, gb = self.goals[i][j]
        return GameResult(self.names[i], self.names[j], ga, gb)

    def resolve(self, i: int, j: int, natural: Optional[int]) -> int:
        w = self.overrides.pop(frozenset((self.names[i], self.names[j])), None)
        if w is None:
            return i if natural is None else natural
        return i if w == self.names[i] else j


def _round_robin(provider, games, members, policy) -> list[int]:
    """Single round robin among `members`, in seed order, of the games
    (label, a, b) of `_compile`; their finishing order."""
    results = [provider.play(label, members[a], members[b]) for label, a, b in games]
    group = [provider.names[m] for m in members]
    table = standings_from_games(results, group)
    return [members[group.index(n)] for n in rank(table, policy, group, results).order()]


def _play(provider, spec: FormatSpec, seeds: list[int]) -> Ranking:
    """Play bracket spec.kind on `seeds` (indices into provider.names, seed
    1 first) with the games `provider` gives, on the board of its compiled
    table (`_compile`); returns the final Ranking."""
    stages, places, width = _TABLES[spec.kind, spec.best_of_three]
    if len(seeds) != len(places):
        raise UnsupportedSizeError(f"{spec.kind} requires exactly {len(places)} teams")
    board = seeds + [None] * (width - len(seeds))
    for kind, games, teams, yields in stages:
        if kind == RR:
            order = _round_robin(provider, games, [board[c] for c in teams], spec.policy)
            for c, team in zip(yields, order):
                board[c] = team
            continue
        i, j = board[teams[0]], board[teams[1]]
        if kind == LEGS:
            # Home leg, then away leg; aggregate goals, no away-goals rule.
            _, _, hi, hj = provider.play(games[0], i, j)
            _, _, aj, ai = provider.play(games[1], j, i)
            si, sj = hi + ai, hj + aj
        elif kind == _BEST_OF_THREE:
            # Wins, drawn games counting for neither side; the series stops
            # once a side leads by two. Series points (3/1/0) cannot decide
            # it: equal wins after three games mean equal draws.
            si = sj = 0
            for game in games:
                _, _, gi, gj = provider.play(game, i, j)
                si += gi > gj
                sj += gj > gi
                if abs(si - sj) == 2:
                    break
        else:
            _, _, si, sj = provider.play(games[0], i, j)
        w = provider.resolve(i, j, i if si > sj else j if sj > si else None)
        board[yields[0]], board[yields[1]] = w, j if w == i else i
    names = provider.names
    return Ranking.from_order([names[board[c]] for c in places])


def _seed_list(names: Sequence[str], seeding) -> list[int]:
    """Team indices into `names` by seed position, seed 1 first, of a
    seeding of names or integer indices; None seeds `names` in order."""
    if seeding is None:
        return list(range(len(names)))
    for s in seeding:
        if isinstance(s, str) and s not in names:
            raise InvalidInputError(f"seeding names {s!r}, not a team of the model")
    idx = [names.index(s) if isinstance(s, str)
           else _integer(s, "seeding indices must be integers") for s in seeding]
    if sorted(idx) != list(range(len(names))):
        raise InvalidInputError("seeding must be a permutation of all teams")
    return idx


def _seed_rows(seeding, names: Sequence[str], rng, rows: int) -> np.ndarray:
    """The seed lists (`_seed_list`) of `rows` runs of a FormatSpec seeding,
    an int array (rows, teams). Row r of a random seeding is the r-th of
    `rows` permutations drawn one call at a time by numpy's `permutation`."""
    if seeding == RANDOM_SEEDING:
        return rng.permuted(np.arange(len(names))[None].repeat(rows, 0), axis=1)
    return np.array([_seed_list(names, seeding)]).repeat(rows, 0)


@functools.lru_cache(maxsize=None)
def _pair_index(n: int) -> np.ndarray:
    """The teams (i, j), i < j, of every pair of n teams in row-major order,
    as a read-only (2, pairs) array built once per team count."""
    pairs = np.array(np.triu_indices(n, 1))
    pairs.setflags(write=False)
    return pairs


@functools.lru_cache(maxsize=8)
def _ledger_labels(n: int, k: int) -> tuple[str, ...]:
    """The stage labels of an oracle ledger of n teams and k games a pair,
    in ledger order, built once per (n, k); a few entries are kept, since
    one holds k * pairs labels."""
    prefixes = [f"rr-{i + 1}v{j + 1}-g" for i, j in _pair_index(n).T.tolist()]
    suffixes = [str(g) for g in range(1, k + 1)]
    return tuple(p + s for p in prefixes for s in suffixes)


def _iterated_round_robin(spec: FormatSpec, sampler, rng, keep_games: bool) -> TournamentOutcome:
    """Ground-truth oracle: every unordered pair plays spec.games_per_pair
    games; teams are ranked under spec.scheme and spec.policy."""
    names = list(sampler.names)
    if len(names) < 2:
        raise UnsupportedSizeError("need at least 2 teams")
    goals = np.asarray(sampler.sample_many(*_pair_index(len(names)), spec.games_per_pair, rng))
    entries = None
    if keep_games or goals.dtype.kind not in "iu" or (goals < 0).any():
        # The drawn goals are the ledger, which checks them as `GameResult` does.
        entries = Ledger(names, goals)
        goals = entries.goals
    return tuple.__new__(TournamentOutcome, (_oracle_ranking(names, goals, spec),
                                             entries if keep_games else None, goals[0].size, None))


def _oracle_ranking(names: Sequence[str], goals, spec: FormatSpec) -> Ranking:
    """The oracle's Ranking of `names` under spec.scheme and spec.policy,
    of the goals array (2, pairs, k) of its ledger."""
    goals, points = _scheme_matrices(len(names), goals, spec.scheme)
    return rank_totals(names, round_robin_totals(goals, points), spec.policy, points)


def _scheme_matrices(n: int, goals, scheme: str):
    """The integer goal and points matrices of a complete round robin of n
    teams whose pair p, teams `_pair_index(n)[:, p]`, played k games with
    goals goals[:, p]: k times the summed per-pair means (3 points a win,
    1 a draw) under the continuous scheme; each pair's mean scoreline,
    rounded half away from zero and scored as one game, under the discrete
    one. So `rank_totals` decides ties, head-to-head too, exactly."""
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


# Readers (`model._instance`) of the arguments of the public functions below.
_spec, _outcome = _instance(FormatSpec), _instance(TournamentOutcome)


def _rng(value, name: str):
    """A numpy Generator. `np.random` is read at call time: read at import,
    it would load numpy.random, ~10 ms, into every `import tournsim`."""
    return _instance(np.random.Generator)(value, name)


def run_format(spec: FormatSpec, sampler, rng, keep_games: bool = True) -> TournamentOutcome:
    """Play one tournament of `spec` on games sampled from `sampler` with
    `rng`. With keep_games=False the ledger is dropped (games is None) but
    games_total is still exact."""
    spec, sampler, rng = _spec(spec, "spec"), _sampler(sampler, "sampler"), _rng(rng, "rng")
    if spec.kind == "iterated_round_robin":
        return _iterated_round_robin(spec, sampler, rng, keep_games)
    seeds = _seed_rows(spec.seeding, sampler.names, rng, 1)[0].tolist()
    provider = _LiveProvider(sampler, rng, spec.decisive, seeds)
    ranking = _play(provider, spec, seeds)
    games = provider.games
    # Checked fields, built past the readers.
    return tuple.__new__(TournamentOutcome, (
        ranking, tuple(map(_entry, games)) if keep_games else None, len(games), tuple(seeds)))


def replay_outcome(spec: FormatSpec, names: Sequence[str], outcome: TournamentOutcome) -> Ranking:
    """Re-run a recorded ledger through the format's stage table; must
    reproduce outcome.ranking (ledger sufficiency). A random seeding is
    replayed from the seeding the outcome recorded."""
    spec, names, outcome = _spec(spec, "spec"), _names(names, "names"), _outcome(outcome, "outcome")
    if outcome.games is None:
        raise InvalidInputError("outcome carries no game ledger")
    if spec.kind == "iterated_round_robin":
        return _oracle_ranking(names, _ledger_goals(names, outcome.games, spec.games_per_pair),
                               spec)
    seeding = spec.seeding
    if seeding == RANDOM_SEEDING:
        seeding = outcome.seeding
        if seeding is None:
            raise InvalidInputError(
                "replay of a 'random' seeding needs the seeding the outcome recorded"
            )
    seeds = _seed_list(names, seeding)
    provider = _ReplayProvider(names, outcome.games)
    ranking = _play(provider, spec, seeds)
    provider.finish()
    return ranking


def _ledger_goals(names: tuple[str, ...], games: Sequence[LedgerEntry], k: int):
    """The goals array of the oracle ledger `games` of `names` and k games
    a pair. A `Ledger` is read as it lies. A list of entries must be the
    entries of the `Ledger` of its goals, one by one, so an entry that
    records a winner is rejected: no round robin game settles a slot."""
    if isinstance(games, Ledger):
        if games.names != names or games.goals.shape[2] != k:
            raise InvalidInputError(f"ledger of {games.names}, {games.goals.shape[2]} games a "
                                    f"pair, replayed as one of {names}, {k} games a pair")
        return games.goals
    size = len(names) * (len(names) - 1) // 2 * k
    if len(games) != size:
        raise InvalidInputError(f"ledger has {len(games)} games, not {size}")
    goals = np.array([e.result[2:] for e in games], dtype=object).T
    ledger = Ledger(names, goals.reshape(2, -1, k))
    for entry, want in zip(games, ledger):
        if entry != want:
            if entry.winner is not None:
                raise _stray_winner(entry)
            raise InvalidInputError(
                f"ledger game {entry.stage!r} of {entry.result.home} v {entry.result.away} "
                f"is not {want.stage!r} of {want.result.home} v {want.result.away}")
    return ledger.goals


def rank_from_fixed_results(
    table: FixedResultTable,
    policy: TieBreakPolicy = DEFAULT_POLICY,
    playoff_overrides: Optional[Mapping] = None,
) -> Ranking:
    """Deterministic replay of the proposed format over a fixed result
    table, seeded in table order. Each pairing's cell is rounded to an
    integer scoreline for the preliminary standings; classification
    playoffs are resolved from the same table's head-to-head entries.

    `playoff_overrides` maps frozenset({a, b}) of two of the table's teams
    to the published winner, a or b; an override always takes precedence,
    and one that settles no playoff is rejected. A drawn head-to-head
    without an override leaves the higher preliminary rank in place.
    """
    table = _instance(FixedResultTable)(table, "table")
    overrides = _overrides(playoff_overrides, table.names)
    provider = _FixedProvider(table, overrides)
    ranking = _play(provider, FormatSpec("proposed", policy=policy),
                    _seed_list(table.names, None))
    if provider.overrides:  # a playoff takes off the override that settles it
        a, b = sorted(next(iter(provider.overrides)))
        raise InvalidInputError(f"playoff_overrides: {a} and {b} meet in no playoff")
    return ranking


def _overrides(overrides, names: tuple[str, ...]) -> dict:
    """The playoff overrides, a `Mapping`, as a dict of their own; each
    maps a frozenset of two of `names` to one of the two."""
    if overrides is None:
        return {}
    overrides = dict(_instance(Mapping, "mapping")(overrides, "playoff_overrides"))
    for pair, winner in overrides.items():
        if not (isinstance(pair, frozenset) and len(pair) == 2 and pair <= set(names)):
            raise InvalidInputError("playoff_overrides must be keyed by a frozenset of two "
                                    f"teams of the table, not {pair!r}")
        if not (isinstance(winner, str) and winner in pair):
            raise InvalidInputError(f"playoff_overrides winner {winner!r} is not "
                                    f"{' or '.join(sorted(pair))}")
    return overrides
