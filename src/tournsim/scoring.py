"""Standings, tie-breaking and the L1 (Spearman footrule) distance
between rankings.

How a scoreline scores is written once: `game_points` (3 a win, 1 a
draw, on arrays and plain ints alike) and `round_half_away` (a mean
scoreline to one game). Every complete round robin is summed by one
kernel, `round_robin_totals`, and a bracket round robin's games one at a
time by `standings_from_games`. Every league is ranked by one step,
`rank_totals` (`tiebreak_order`, then the Ranking), which `rank`,
`league_table` (the bundled models) and the oracle (`formats`) end in;
the batched engine calls the kernels on stacks. The tests check every
scorer against an independent reference of their own."""

from __future__ import annotations

import io
import operator
from collections.abc import Mapping, Sequence
from typing import Iterable, Optional

import numpy as np

from .errors import InvalidComparisonError, InvalidInputError
from .model import GameResult, _choice, _Fields, _instance, _names, _record, _sequence

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


class TeamStats(_Fields):
    """A team's running league totals."""

    __slots__ = ("points", "goals_for", "goals_against")

    def __init__(self, points: float = 0.0, goals_for: float = 0.0, goals_against: float = 0.0):
        self.points = points
        self.goals_for = goals_for
        self.goals_against = goals_against

    @property
    def goal_difference(self) -> float:
        return self.goals_for - self.goals_against


def standings_from_games(
    games: Iterable[GameResult], teams: Optional[Sequence[str]] = None
) -> dict[str, TeamStats]:
    """Plain league-table accumulation: `game_points` plus raw goal sums."""
    table = {name: TeamStats() for name in (teams or [])}
    # Each game is unpacked once: reading a tuple record's fields by name
    # costs about twice as much.
    for home, away, home_goals, away_goals in games:
        for name in (home, away):
            if name not in table:
                table[name] = TeamStats()
        h, a = table[home], table[away]
        h.points += game_points(home_goals, away_goals)
        a.points += game_points(away_goals, home_goals)
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


def _criteria(criteria, name: str) -> tuple:
    """Tie-break criteria: a `_sequence` of distinct known criteria ending
    in seed_order, kept as a tuple of its own, so a list the caller changes
    later cannot change the policy unchecked or make it unhashable."""
    if not _sequence(criteria):
        raise InvalidInputError(f"{name} must be a sequence of criterion names, not {criteria!r}")
    criteria = tuple(_choice(CRITERIA, "criterion")(c, name) for c in criteria)
    if len(set(criteria)) != len(criteria):
        raise InvalidInputError("tie-break criteria must be unique")
    if criteria[-1:] != ("seed_order",):
        raise InvalidInputError("criteria must end with seed_order")
    return criteria


class TieBreakPolicy(_record("TieBreakPolicy", dict(criteria=_criteria),
                             (("points", "goal_difference", "goals_for", "seed_order"),))):
    """Ordered tie-break criteria (`_criteria`); they must end in
    seed_order so the resulting ranking is always a total order."""

    __slots__ = ()


DEFAULT_POLICY = TieBreakPolicy()


def _places(places, name: str) -> dict:
    """A mapping of team name to place, kept as a dict of its own, whose
    places are 1..n. A place that is an integer but not an int, such as a
    numpy integer, is kept as an int; a bool or a float is rejected."""
    if not (isinstance(places, Mapping) and all(isinstance(team, str) for team in places)):
        raise InvalidInputError(f"{name} must be a mapping of team to place, not {places!r}")
    places = dict(places)  # a copy: a later change to the caller's cannot reach it
    for team, place in places.items():
        if type(place) is not int:
            if isinstance(place, bool) or not hasattr(place, "__index__"):
                raise InvalidInputError(f"{name} must be integers, not {place!r}")
            places[team] = operator.index(place)
    if sorted(places.values()) != list(range(1, len(places) + 1)):
        raise InvalidInputError("ranks must be a permutation of 1..n")
    return places


class Ranking(_record("Ranking", dict(places=_places))):
    """Bijection from team name to place 1..n (`_places`)."""

    __slots__ = ()

    @classmethod
    def from_order(cls, names: Sequence[str]) -> "Ranking":
        """The ranking of distinct team names (`_names`), best first."""
        names = _names(names, "names")
        places = {name: i for i, name in enumerate(names, 1)}
        if len(places) < len(names):
            twice = next(name for name in names if names.count(name) > 1)
            raise InvalidInputError(f"team {twice!r} is listed more than once")
        # Distinct names in places 1..n are a permutation: no sort to check.
        return tuple.__new__(cls, (places,))

    def order(self) -> list[str]:
        places = self.places
        return sorted(places, key=places.get)

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


def rank_totals(names: Sequence[str], totals, policy: TieBreakPolicy, pair_points=None) -> Ranking:
    """The Ranking of `names`, seeded in that order, by `tiebreak_order`
    of their points, goals for and goals against, `totals`."""
    order = tiebreak_order(*totals, policy, pair_points)
    return Ranking.from_order([names[i] for i in order.tolist()])


def league_table(names: Sequence[str], goals, points, policy: TieBreakPolicy = DEFAULT_POLICY):
    """Standings of a complete round robin among `names`, with its Ranking
    under `policy`, seeded in `names` order. `goals` and `points` are n x n
    matrices with a zero diagonal, as `round_robin_totals` takes them; the
    points matrix also decides head-to-head. Integer matrices give integer
    standings, so ties are decided exactly."""
    totals = round_robin_totals(goals, points)
    table = {name: TeamStats(*s) for name, *s in zip(names, *(t.tolist() for t in totals))}
    return table, rank_totals(names, totals, policy, points)


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
                pair_points[i][j] += game_points(home_goals, away_goals)
                pair_points[j][i] += game_points(away_goals, home_goals)
        pair_points = np.array(pair_points)
    return rank_totals(names, stats, policy, pair_points)


_ranking = _instance(Ranking)


def l1_distance(a: Ranking, b: Ranking) -> int:
    """Spearman footrule: sum over teams of |rank_a - rank_b|."""
    # Each ranking's places are read once: a named field read of a tuple
    # record costs more than a local's.
    pa, pb = _ranking(a, "a").places, _ranking(b, "b").places
    if set(pa) != set(pb):
        raise InvalidComparisonError("rankings cover different team sets")
    return sum(abs(pa[n] - pb[n]) for n in pa)


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
