"""Standings, tie-breaking and the L1 (Spearman footrule) distance
between rankings.

Every complete round robin is scored by one kernel, `round_robin_totals`,
on n x n matrices: the batched engine's groups, the oracle's integer
totals (`formats.league_table`) and the league tables of the bundled
models under both schemes (`fixtures`). Games of a bracket are scored one
at a time by `points_per_game` and `standings_from_games`, whose games
head-to-head tie-breaks need."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidComparisonError, InvalidInputError
from .model import GameResult

CONTINUOUS = "continuous"
DISCRETE = "discrete"

CRITERIA = ("points", "goal_difference", "goals_for", "head_to_head", "seed_order")


def points_per_game(g: GameResult) -> tuple[int, int]:
    """3 for a win, 1 for a draw, 0 for a loss."""
    if g.home_goals > g.away_goals:
        return 3, 0
    if g.home_goals < g.away_goals:
        return 0, 3
    return 1, 1


def round_half_away(x: float) -> int:
    """Nearest integer, halves away from zero (0.5 -> 1)."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


@dataclass
class TeamStats:
    points: float = 0.0
    goals_for: float = 0.0
    goals_against: float = 0.0
    games_played: int = 0

    @property
    def goal_difference(self) -> float:
        return self.goals_for - self.goals_against


def standings_from_games(
    games: Iterable[GameResult], teams: Optional[Sequence[str]] = None
) -> dict[str, TeamStats]:
    """Plain league-table accumulation: 3/1/0 points plus raw goal sums."""
    table = {name: TeamStats() for name in (teams or [])}
    for g in games:
        for name in (g.home.name, g.away.name):
            if name not in table:
                table[name] = TeamStats()
        ph, pa = points_per_game(g)
        h, a = table[g.home.name], table[g.away.name]
        h.points += ph
        a.points += pa
        h.goals_for += g.home_goals
        h.goals_against += g.away_goals
        a.goals_for += g.away_goals
        a.goals_against += g.home_goals
        h.games_played += 1
        a.games_played += 1
    return table


def round_robin_totals(goals, points=None):
    """Points, goals for and goals against of every team in complete round
    robins. `goals[..., i, j]` is what team i scored against team j, with a
    zero diagonal; each cell pair is one scoreline, worth 3 points a win
    and 1 a draw, unless `points[..., i, j]`, the points team i took from
    team j, is given. Returns three arrays of shape `goals.shape[:-1]`."""
    against = np.swapaxes(goals, -1, -2)
    if points is None:
        # The diagonal is a 0-0 "draw" worth one point to nobody.
        points = (3 * (goals > against) + (goals == against)).sum(-1) - 1
    else:
        points = points.sum(-1)
    return points, goals.sum(-1), against.sum(-1)


@dataclass(frozen=True)
class TieBreakPolicy:
    """Ordered tie-break criteria; the list must end in seed_order so the
    resulting ranking is always a total order."""

    criteria: tuple[str, ...] = ("points", "goal_difference", "goals_for", "seed_order")

    def __post_init__(self):
        if len(set(self.criteria)) != len(self.criteria):
            raise InvalidInputError("tie-break criteria must be unique")
        for c in self.criteria:
            if c not in CRITERIA:
                raise InvalidInputError(f"unknown criterion {c!r}")
        if self.criteria[-1] != "seed_order":
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
        return cls({name: i + 1 for i, name in enumerate(names)})

    def order(self) -> list[str]:
        return sorted(self.places, key=self.places.get)

    def __getitem__(self, name: str) -> int:
        return self.places[name]

    def __len__(self) -> int:
        return len(self.places)


def rank(
    standings: dict[str, TeamStats],
    policy: TieBreakPolicy = DEFAULT_POLICY,
    seed_order: Optional[Sequence[str]] = None,
    games: Optional[Sequence[GameResult]] = None,
) -> Ranking:
    """Order teams lexicographically by the policy's criteria (higher points,
    higher goal difference, higher goals for, head-to-head points among the
    tied subset, then seed order)."""
    names = list(standings)
    seed_pos = {n: i for i, n in enumerate(seed_order or names)}

    def split(group: list[str], crits: tuple[str, ...]) -> list[str]:
        if len(group) <= 1:
            return group
        crit = crits[0]
        if crit == "seed_order":
            return sorted(group, key=seed_pos.get)
        if crit == "head_to_head":
            sub = set(group)
            mini = standings_from_games(
                [g for g in (games or []) if g.home.name in sub and g.away.name in sub],
                group,
            )
            key = {n: mini[n].points for n in group}
        elif crit == "points":
            key = {n: standings[n].points for n in group}
        elif crit == "goal_difference":
            key = {n: standings[n].goal_difference for n in group}
        else:  # goals_for
            key = {n: standings[n].goals_for for n in group}
        ordered = sorted(group, key=lambda n: -key[n])
        out: list[str] = []
        i = 0
        while i < len(ordered):
            j = i
            while j < len(ordered) and key[ordered[j]] == key[ordered[i]]:
                j += 1
            out.extend(split(ordered[i:j], crits[1:]))
            i = j
        return out

    return Ranking.from_order(split(names, policy.criteria))


def l1_distance(a: Ranking, b: Ranking) -> int:
    """Spearman footrule: sum over teams of |rank_a - rank_b|."""
    if set(a.places) != set(b.places):
        raise InvalidComparisonError("rankings cover different team sets")
    return sum(abs(a.places[n] - b.places[n]) for n in a.places)


def standings_to_csv(
    standings: dict[str, TeamStats], ranking: Optional[Ranking] = None
) -> str:
    """Tabular text mirroring the Points / Goal Diff / Rank columns."""
    out = io.StringIO()
    out.write("team,points,goals_for,goals_against,goal_diff"
              + (",rank\n" if ranking else "\n"))
    names = ranking.order() if ranking else list(standings)
    for name in names:
        s = standings[name]
        row = (
            f"{name},{_num(s.points)},{_num(s.goals_for)},"
            f"{_num(s.goals_against)},{_num(s.goal_difference)}"
        )
        if ranking:
            row += f",{ranking[name]}"
        out.write(row + "\n")
    return out.getvalue()


def _num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else f"{v:.6g}"
