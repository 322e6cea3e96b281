"""Executable tournament formats.

Each bracket format is written once, as a stage table in `BRACKETS`. A
table lists the stages in playing order and the stages that give places
1-8. It is compiled once, at import, by `_compile` into `_TABLES`: the
board columns each stage reads its teams from and writes its results to,
its resolved kind and its ledger labels. Both engines play that one
compiled table, the interpreter `_play` here a tournament at a time and
the batched engine `tournsim.batch` a block of campaign tournaments at a
time. The brackets are:

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

* live (`run_format`): games are sampled; a level slot is resolved by a
  DecisivePolicy (resampled "replays" followed by a coin flip or
  higher-seed rule), and the winner is recorded on the slot's last
  ledger entry so replays never need the random stream;
* replay (`replay_outcome`): games and winners are read back off a
  recorded ledger, which must match the table game by game; a winner
  recorded on a game that settles no slot (a round robin game, a first
  leg, a best-of-three game that does not end its series) is rejected;
* fixed (`rank_from_fixed_results`): games are read by team index off
  the goals array of a `model.FixedResultTable`, rounded half away from
  zero once per table, as the golden checks over the published tables do.

The iterated round-robin (the ground-truth oracle) is not a bracket: it
samples every pair's games in one `sample_many` call, turns them into the
integer goal and points matrices of its scheme by the `scoring` rules
(`_scheme_matrices`), and ranks those with `scoring.league_table`. Its
ledger, a `Ledger`, is the goals array it drew, in a fixed layout that
gives each game's label and teams. Draws are checked, not cast: a goal
`GameResult` would reject (0.4, NaN, a negative) fails the run, ledger
kept or not. A replay reads that array as it lies, and a list of entries
must be that ledger's entries, game by game. A bracket's ledger is a list
of entries, and a bracket round robin is ranked from its games by
`scoring.rank`.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
from typing import Optional

import numpy as np

from .errors import InvalidInputError, UnsupportedSizeError
from .model import FixedResultTable, GameResult, _Fields, _integer, _record
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


class DecisivePolicy(_record("DecisivePolicy", "max_replays final_resolution")):
    """How a drawn game is turned into a winner where the format demands
    one: up to max_replays resampled games, then a final resolution."""

    __slots__ = ()

    def __new__(cls, max_replays: int = 1, final_resolution: str = UNIFORM_COIN):
        max_replays = _integer(max_replays, "max_replays must be an integer")
        if max_replays < 0:
            raise InvalidInputError("max_replays must be nonnegative")
        if final_resolution not in (UNIFORM_COIN, HIGHER_SEED):
            raise InvalidInputError(f"unknown final_resolution {final_resolution!r}")
        return tuple.__new__(cls, (max_replays, final_resolution))


DEFAULT_DECISIVE = DecisivePolicy()


RANDOM_SEEDING = "random"


class FormatSpec(_record("FormatSpec", "kind games_per_pair scheme best_of_three decisive "
                               "policy seeding")):
    """Declarative description of one tournament format run. `seeding` is
    None for model order, "random" for a permutation drawn per run from the
    run's stream, or a sequence of team names or integer indices, seed 1
    first, kept as a tuple."""

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        games_per_pair: int = 1,
        scheme: str = CONTINUOUS,
        best_of_three: bool = False,
        decisive: DecisivePolicy = DEFAULT_DECISIVE,
        policy: TieBreakPolicy = DEFAULT_POLICY,
        seeding: Optional[object] = None,
    ):
        if kind not in KINDS:
            raise InvalidInputError(f"unknown format kind {kind!r}")
        games_per_pair = _integer(games_per_pair, "games_per_pair must be an integer")
        if games_per_pair < 1:
            raise InvalidInputError("games_per_pair must be >= 1")
        if scheme not in (CONTINUOUS, DISCRETE):
            raise InvalidInputError(f"unknown scheme {scheme!r}")
        if not isinstance(best_of_three, (bool, np.bool_)):
            raise InvalidInputError(f"best_of_three must be a bool, not {best_of_three!r}")
        if not isinstance(decisive, DecisivePolicy):
            raise InvalidInputError(f"decisive must be a DecisivePolicy, not {decisive!r}")
        if not isinstance(policy, TieBreakPolicy):
            raise InvalidInputError(f"policy must be a TieBreakPolicy, not {policy!r}")
        if isinstance(seeding, str):
            if seeding != RANDOM_SEEDING:
                raise InvalidInputError(f"unknown seeding {seeding!r}")
        elif seeding is not None:
            # A set has no order to seed by: its order would vary between runs.
            if not isinstance(seeding, (Sequence, np.ndarray)):
                raise InvalidInputError(f"seeding is not a sequence: {seeding!r}")
            seeding = tuple(seeding)
        return tuple.__new__(cls, (kind, games_per_pair, scheme, bool(best_of_three), decisive,
                                   policy, seeding))


class LedgerEntry(_Fields):
    """One played game: stage label, the sampled result, and (for knockout
    slots) the team that advanced."""

    __slots__ = ("stage", "result", "winner")

    def __init__(self, stage: str, result: GameResult, winner: Optional[str] = None):
        self.stage = stage
        self.result = result
        self.winner = winner


# The largest goal a ledger's int64 array holds.
_MAX_GOAL = np.iinfo(np.int64).max


def _too_large(goal) -> InvalidInputError:
    return InvalidInputError(f"goal {goal} is too large for the ledger, "
                             f"which holds goals up to {_MAX_GOAL}")


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
        names = tuple(names)
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
        if goals.dtype.kind in "iu":
            if goals.dtype.kind == "u" and goals.size and int(goals.max()) > _MAX_GOAL:
                raise _too_large(goals.max())
            goals = goals.astype(np.int64, copy=False)
            if (goals < 0).any():
                raise InvalidInputError("goals must be nonnegative")
        else:
            # Any other goals: each game is built, so the first that
            # `GameResult` rejects raises, and the goals it keeps are ints.
            teams = _pair_index(len(names)).repeat(goals.shape[2], axis=1).tolist()
            games = [GameResult(names[h], names[a], *g)[2:] for h, a, g in
                     zip(*teams, goals.reshape(2, -1).T.tolist())]
            most = max(map(max, games), default=0)
            if most > _MAX_GOAL:
                raise _too_large(most)
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
        return LedgerEntry(self.labels[index], GameResult(
            self.names[home], self.names[away], *self.goals[:, pair, game].tolist()))

    def __iter__(self):
        team = self.names.__getitem__
        home, away = self.teams.tolist()
        return map(LedgerEntry, self.labels, map(GameResult, map(team, home), map(team, away),
                                                 *self.goals.reshape(2, -1).tolist()))

    def __eq__(self, other):
        if not isinstance(other, (Ledger, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"Ledger({list(self)!r})"


def _stray_winner(entry: LedgerEntry) -> InvalidInputError:
    return InvalidInputError(f"ledger game {entry.stage!r} records winner {entry.winner!r} "
                             "but settles no knockout slot")


class TournamentOutcome(_Fields):
    """A run's ranking, its ledger (None when not kept; for the oracle the
    `Ledger` of the goals it drew, in its fixed layout; for a bracket a list
    of entries), its game count and, for a bracket, the seeding it was
    played with (team indices, seed 1 first), which replays a random one."""

    __slots__ = ("ranking", "games", "games_total", "seeding")

    def __init__(self, ranking: Ranking, games: Optional[Sequence[LedgerEntry]],
                 games_total: int, seeding: Optional[tuple[int, ...]] = None):
        self.ranking = ranking
        self.games = games
        self.games_total = games_total
        self.seeding = seeding


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
    """Samples fresh games and resolves draws via the decisive policy."""

    def __init__(self, sampler, rng, decisive: DecisivePolicy, seeds: list[int]):
        self.sampler = sampler
        self.rng = rng
        self.decisive = decisive
        self.seeds = seeds
        self.entries: list[LedgerEntry] = []
        self.names = sampler.names

    def play(self, stage: str, i: int, j: int) -> GameResult:
        gi, gj = self.sampler.sample(i, j, self.rng)
        result = GameResult(self.names[i], self.names[j], gi, gj)
        self.entries.append(LedgerEntry(stage, result))
        return result

    def resolve(self, i: int, j: int, natural: Optional[int]) -> int:
        """Record the winner of a knockout slot on its last entry. `natural`
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
        self.entries[-1].winner = self.names[w]
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
        entry = self._queue[pos]
        if entry.stage != stage:
            raise InvalidInputError(
                f"ledger stage {entry.stage!r} does not match expected {stage!r}"
            )
        # One slice, not two named reads: a named field read of a GameResult
        # costs about twice a slot attribute's.
        result = entry.result
        teams = result[:2]
        if teams != (self.names[i], self.names[j]):
            raise InvalidInputError(
                f"ledger game {stage!r} is {teams[0]} v {teams[1]}, "
                f"expected {self.names[i]} v {self.names[j]}"
            )
        self._winner = entry.winner
        return result

    def resolve(self, i: int, j: int, natural: Optional[int]) -> int:
        entry = self._queue[self._pos - 1]
        self._winner = None
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

    def play(self, stage: str, i: int, j: int) -> GameResult:
        ga, gb = self.goals[i][j]
        return GameResult(self.names[i], self.names[j], ga, gb)

    def resolve(self, i: int, j: int, natural: Optional[int]) -> int:
        pair = (self.names[i], self.names[j])
        w = self.overrides.get(frozenset(pair))
        if w is None:
            return i if natural is None else natural
        if w not in pair:
            raise InvalidInputError(f"override winner {w!r} not in playoff pair")
        return i if w == pair[0] else j


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
    _, ranking = league_table(names, *_scheme_matrices(len(names), goals, spec.scheme),
                              spec.policy)
    return TournamentOutcome(ranking, entries if keep_games else None, goals[0].size)


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
    seeds = _seed_rows(spec.seeding, sampler.names, rng, 1)[0].tolist()
    provider = _LiveProvider(sampler, rng, spec.decisive, seeds)
    ranking = _play(provider, spec, seeds)
    entries = provider.entries
    return TournamentOutcome(ranking, entries if keep_games else None, len(entries),
                             tuple(seeds))


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
    seeds = _seed_list(names, seeding)
    provider = _ReplayProvider(names, outcome.games)
    ranking = _play(provider, spec, seeds)
    provider.finish()
    return ranking


def _ledger_goals(names: Sequence[str], games: Sequence[LedgerEntry], k: int):
    """The goals array of the oracle ledger `games` of `names` and k games
    a pair. A `Ledger` is read as it lies. A list of entries must be the
    entries of the `Ledger` of its goals, one by one, so an entry that
    records a winner is rejected: no round robin game settles a slot."""
    names = tuple(names)
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
    return _play(_FixedProvider(table, playoff_overrides or {}),
                 FormatSpec("proposed", policy=policy), _seed_list(table.names, None))
