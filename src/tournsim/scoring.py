"""Standings, tie-breaking and the L1 (Spearman footrule) distance
between rankings.

How a scoreline scores is written once for arrays: `game_points` (3 a
win, 1 a draw) and `round_half_away` (a mean scoreline to one game).
Every complete round robin is scored by one kernel, `round_robin_totals`,
and ranked by one tie-break kernel, `tiebreak_order`; `league_table` wraps
both for the oracle (`formats`) and the bundled models (`fixtures`), and
the batched engine calls them on stacks of matrices. Games of a bracket
round robin are scored one at a time by `standings_from_games` and ranked
by `rank`, with 3/1/0 loops of their own: the benchmark's tracer wraps
both names, and the tests check the kernels against `standings_from_games`,
which must not share the rule it checks."""

from __future__ import annotations

import io
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Iterable, Optional

import numpy as np

from .errors import InvalidComparisonError, InvalidInputError
from .model import GameResult

CONTINUOUS = "continuous"
DISCRETE = "discrete"

CRITERIA = ("points", "goal_difference", "goals_for", "head_to_head", "seed_order")


def game_points(goals_for, goals_against):
    """Points of one game, elementwise: 3 a win, 1 a draw, 0 a loss."""
    return 3 * (goals_for > goals_against) + (goals_for == goals_against)


def round_half_away(total, k=1):
    """The int64 integer nearest to total / k >= 0, elementwise, halves
    rounded up: exact for integer totals, and floor(x + 0.5) bit for bit
    for a float x, since doubling a float is exact."""
    return ((2 * np.asarray(total) + k) // (2 * k)).astype(np.int64)


@dataclass
class TeamStats:
    points: float = 0.0
    goals_for: float = 0.0
    goals_against: float = 0.0

    @property
    def goal_difference(self) -> float:
        return self.goals_for - self.goals_against


def standings_from_games(
    games: Iterable[GameResult], teams: Optional[Sequence[str]] = None
) -> dict[str, TeamStats]:
    """Plain league-table accumulation: 3/1/0 points plus raw goal sums."""
    table = {name: TeamStats() for name in (teams or [])}
    # Each game is unpacked once: reading a tuple record's fields by name
    # costs about twice as much.
    for home, away, home_goals, away_goals in games:
        for name in (home, away):
            if name not in table:
                table[name] = TeamStats()
        h, a = table[home], table[away]
        if home_goals > away_goals:
            h.points += 3
        elif home_goals < away_goals:
            a.points += 3
        else:
            h.points += 1
            a.points += 1
        h.goals_for += home_goals
        h.goals_against += away_goals
        a.goals_for += away_goals
        a.goals_against += home_goals
    return table


def points_matrix(goals):
    """The points team i took from team j, `goals[..., i, j]` to
    `goals[..., j, i]` being one game: 3 a win, 1 a draw, 0 on the
    diagonal."""
    # The diagonal is a 0-0 "draw" worth one point to nobody.
    return game_points(goals, np.swapaxes(goals, -1, -2)) - np.eye(goals.shape[-1], dtype=int)


def round_robin_totals(goals, points):
    """Points, goals for and goals against of every team in complete round
    robins. `goals[..., i, j]` is what team i scored against team j, with a
    zero diagonal, and `points[..., i, j]` the points team i took from team
    j (`points_matrix` scores one game a pair). Returns three arrays of
    shape `goals.shape[:-1]`.

    Stacks of integer matrices are summed with `np.einsum`, about three
    times faster than `sum` at (250, 1, 8, 8) and exact in any order; a lone
    integer matrix, as the oracle's, is summed faster by `sum`. Float
    matrices keep `np.sum`: einsum may add in another order and change the
    last bit, and ties must not depend on summation order."""
    if goals.ndim > 2 and goals.dtype.kind in "iu" and points.dtype.kind in "iu":
        return (np.einsum("...ij->...i", points), np.einsum("...ij->...i", goals),
                np.einsum("...ij->...j", goals))
    return points.sum(-1), goals.sum(-1), np.swapaxes(goals, -1, -2).sum(-1)


@dataclass(frozen=True)
class TieBreakPolicy:
    """Ordered tie-break criteria, kept as a tuple of their own; they must
    end in seed_order so the resulting ranking is always a total order."""

    criteria: tuple[str, ...] = ("points", "goal_difference", "goals_for", "seed_order")

    def __post_init__(self):
        # A string is a sequence of one-letter criteria, and a set has no
        # order: its order would vary between runs.
        if isinstance(self.criteria, str) or not isinstance(self.criteria,
                                                            (Sequence, np.ndarray)):
            raise InvalidInputError("criteria must be a sequence of criterion names, "
                                    f"not {self.criteria!r}")
        # A copy: a list the caller changes later would change the policy
        # unchecked, and would make it and a FormatSpec holding it unhashable.
        object.__setattr__(self, "criteria", tuple(self.criteria))
        # Each criterion is known, so hashable, before the set is built.
        for c in self.criteria:
            if c not in CRITERIA:
                raise InvalidInputError(f"unknown criterion {c!r}")
        if len(set(self.criteria)) != len(self.criteria):
            raise InvalidInputError("tie-break criteria must be unique")
        if self.criteria[-1:] != ("seed_order",):
            raise InvalidInputError("criteria must end with seed_order")


DEFAULT_POLICY = TieBreakPolicy()


@dataclass(frozen=True)
class Ranking:
    """Bijection from team name to place 1..n."""

    places: dict

    def __post_init__(self):
        n = len(self.places)
        if sorted(self.places.values()) != list(range(1, n + 1)):
            raise InvalidInputError("ranks must be a permutation of 1..n")

    @classmethod
    def from_order(cls, names: Sequence[str]) -> "Ranking":
        places = {name: i for i, name in enumerate(names, 1)}
        if len(places) < len(names):
            twice = next(name for name in names if names.count(name) > 1)
            raise InvalidInputError(f"team {twice!r} is listed more than once")
        # Distinct names in places 1..n are the permutation `__post_init__`
        # would sort to check, so the check is skipped.
        ranking = object.__new__(cls)
        object.__setattr__(ranking, "places", places)
        return ranking

    def order(self) -> list[str]:
        return sorted(self.places, key=self.places.get)

    def __getitem__(self, name: str) -> int:
        return self.places[name]


def tiebreak_order(points, goals_for, goals_against, policy: TieBreakPolicy, pair_points=None):
    """Finishing order of the teams along the last axis under `policy`,
    best first; index order is seed order. Head-to-head ranks team t by
    its points from the teams u level with it on every earlier criterion,
    the sum of pair_points[..., t, u]; its own cell shifts all keys alike."""
    stats = dict(points=points, goals_for=goals_for, goal_difference=goals_for - goals_against)
    keys = []  # negated, most significant first
    for c in policy.criteria[:-1]:
        if c == "head_to_head":
            level = True
            for k in keys:
                level = level & (k[..., :, None] == k[..., None, :])
            keys.append(-(pair_points * level).sum(-1))
        else:
            keys.append(-stats[c])
    # lexsort sorts by its last key first, and is stable: seed order
    # decides last. Under seed order alone, the one key ties every team.
    return np.lexsort(keys[::-1] or [np.zeros(np.shape(points))], axis=-1)


def league_table(names: Sequence[str], goals, points, policy: TieBreakPolicy = DEFAULT_POLICY):
    """Standings of a complete round robin among `names`, with its Ranking
    under `policy`, seeded in `names` order. `goals` and `points` are n x n
    matrices with a zero diagonal, as `round_robin_totals` takes them; the
    points matrix also decides head-to-head. Integer matrices give integer
    standings, so ties are decided exactly."""
    totals = round_robin_totals(goals, points)
    order = tiebreak_order(*totals, policy, points)
    table = {name: TeamStats(*s) for name, *s in zip(names, *(t.tolist() for t in totals))}
    return table, Ranking.from_order([names[i] for i in order.tolist()])


def rank(
    standings: dict[str, TeamStats],
    policy: TieBreakPolicy = DEFAULT_POLICY,
    seed_order: Optional[Sequence[str]] = None,
    games: Optional[Sequence[GameResult]] = None,
) -> Ranking:
    """Order teams by the policy's criteria with `tiebreak_order` (higher
    points, higher goal difference, higher goals for, head-to-head points
    in `games` among the teams still level, then seed order)."""
    names = list(seed_order or standings)
    if len(names) != len(standings) or set(names) != set(standings):
        raise InvalidInputError("seed_order must list every team of the standings once")
    stats = np.array([[standings[n].points, standings[n].goals_for, standings[n].goals_against]
                      for n in names]).reshape(-1, 3).T
    pair_points = None
    if "head_to_head" in policy.criteria:
        index = {n: i for i, n in enumerate(names)}
        pair_points = [[0] * len(names) for _ in names]  # lists: numpy adds cost ~10x
        for home, away, home_goals, away_goals in games or ():
            if home in index and away in index:
                i, j = index[home], index[away]
                if home_goals > away_goals:
                    pair_points[i][j] += 3
                elif home_goals < away_goals:
                    pair_points[j][i] += 3
                else:
                    pair_points[i][j] += 1
                    pair_points[j][i] += 1
        pair_points = np.array(pair_points)
    order = tiebreak_order(*stats, policy, pair_points)
    return Ranking.from_order([names[i] for i in order.tolist()])


def l1_distance(a: Ranking, b: Ranking) -> int:
    """Spearman footrule: sum over teams of |rank_a - rank_b|."""
    if set(a.places) != set(b.places):
        raise InvalidComparisonError("rankings cover different team sets")
    return sum(abs(a.places[n] - b.places[n]) for n in a.places)


def standings_to_csv(standings: dict[str, TeamStats], ranking: Ranking) -> str:
    """Tabular text mirroring the Points / Goal Diff / Rank columns, in
    ranking order."""
    out = io.StringIO()
    out.write("team,points,goals_for,goals_against,goal_diff,rank\n")
    for name in ranking.order():
        s = standings[name]
        out.write(
            f"{name},{_num(s.points)},{_num(s.goals_for)},"
            f"{_num(s.goals_against)},{_num(s.goal_difference)},{ranking[name]}\n"
        )
    return out.getvalue()


def _num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else f"{v:.6g}"
