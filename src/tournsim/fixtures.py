"""Bundled RoboCup 2012/2013 data and the golden checks built on it.

The CSVs under data/ transcribe the published round-robin tables: goal
means per ordered pair, per-pair average points (needed because continuous
points cannot be recovered from goal means alone), and the combined
actual/average score tables used to infer the proposed-format placements.
The published rankings and the classification-playoff winners they imply
are recorded here as constants.

All three kinds of table are read by `model._read_table`, so they share
its checks of header, row order, cell count and diagonal and its naming of
a cell that does not parse; the combined tables' 'a:b' cells are read as
goal pairs into a `FixedResultTable`, which checks their values.
`discrete_fixture_standings` and `continuous_fixture_standings` return
the league table of a goal model (and, under the continuous scheme, of its
points model), bundled or read by `tournsim rank`: the standings and the
ranking `scoring.league_table` builds for every complete round robin.
`tournsim rank` prints them and the golden checks check them. A points
table whose cells no league can have is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Callable

import numpy as np

from .errors import IngestionError
from .formats import FixedResultTable, rank_from_fixed_results
from .model import PairwiseGoalModel, _read_table, _reject_first_cell, load_model
from .scoring import Ranking, l1_distance, league_table, points_matrix, round_half_away

TEAMS_2012 = ("Helios", "Wright", "Marlik", "Gliders", "GDUT", "AUT", "Yushan", "RobOTTO")
TEAMS_2013 = ("Wright", "Helios", "Yushan", "Axiom", "Gliders", "Oxsy", "AUT", "Cyrus")

# Official competition results (data-file order equals official placement).
R_A_2012 = Ranking.from_order(list(TEAMS_2012))
R_A_2013 = Ranking.from_order(list(TEAMS_2013))

# High-N round-robin rankings under the continuous scheme.
R_C_2012 = Ranking.from_order(
    ["Wright", "Helios", "Yushan", "Gliders", "Marlik", "GDUT", "RobOTTO", "AUT"]
)
R_C_2013 = Ranking.from_order(
    ["Wright", "Helios", "Oxsy", "Yushan", "Cyrus", "Gliders", "AUT", "Axiom"]
)

# Same round-robins scored under the discrete scheme.
R_D_2012 = R_C_2012
R_D_2013 = Ranking.from_order(
    ["Wright", "Helios", "Yushan", "Oxsy", "Cyrus", "Gliders", "AUT", "Axiom"]
)

# Published placements under the proposed format replayed over the combined
# score tables.
R_P_2012 = Ranking.from_order(
    ["Helios", "Wright", "Yushan", "Marlik", "Gliders", "GDUT", "RobOTTO", "AUT"]
)
R_P_2013 = Ranking.from_order(
    ["Wright", "Helios", "Yushan", "Gliders", "Oxsy", "Cyrus", "AUT", "Axiom"]
)

# Classification-playoff winners the published placements imply where the
# combined tables' head-to-head cells do not decide them (drawn cells or
# placements that contradict the cell).
PLAYOFF_OVERRIDES_2012 = {
    frozenset(("Marlik", "Yushan")): "Yushan",
    frozenset(("AUT", "RobOTTO")): "RobOTTO",
}
PLAYOFF_OVERRIDES_2013 = {
    frozenset(("Yushan", "Gliders")): "Yushan",
    frozenset(("Axiom", "AUT")): "AUT",
}

DISCRETE_POINTS_2012 = (19, 19, 10, 12, 6, 0, 13, 3)  # data-file team order
DISCRETE_POINTS_2013 = (21, 18, 11, 1, 7, 11, 1, 10)
CONTINUOUS_POINTS_2012 = (18.152, 18.899, 9.999, 10.291, 7.800, 0.377, 12.105, 2.973)
CONTINUOUS_POINTS_2013 = (18.308, 16.937, 9.434, 3.713, 8.371, 9.543, 4.416, 8.408)

GOLDEN_L1 = (
    ("L1-ra-rc-2012", R_A_2012, R_C_2012, 12),
    ("L1-ra-rc-2013", R_A_2013, R_C_2013, 12),
    ("L1-ra-rd-2013", R_A_2013, R_D_2013, 10),
    ("L1-rp-rc-2012", R_P_2012, R_C_2012, 4),
    ("L1-rp-rc-2013", R_P_2013, R_C_2013, 6),
    ("L1-rp-rd-2013", R_P_2013, R_D_2013, 4),
)


def fixture_path(name: str):
    """Filesystem path of a bundled data file."""
    return resources.files("tournsim").joinpath("data", name)


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def load_goal_model(year: int) -> PairwiseGoalModel:
    return load_model(fixture_text(f"robocup{year}.csv"))


def load_points_model(year: int) -> PairwiseGoalModel:
    """Per-pair mean points reuse the matrix loader; entry (i, j) is the
    mean per-game points team i earned against team j."""
    return load_model(fixture_text(f"robocup{year}.points.csv"))


def load_combined_table(year: int) -> FixedResultTable:
    """Combined actual/average score table: cell (i, j) reads 'a:b', the
    goals of the row team and of the column team, diagonal blank."""
    return FixedResultTable(*_read_table(fixture_text(f"combined{year}.csv"), _score, (2,)))


def _score(cell: str) -> tuple[float, float]:
    a, b = cell.split(":")
    return float(a), float(b)


def discrete_fixture_standings(model: PairwiseGoalModel):
    """League table of `model` under the discrete scheme, as
    (standings, ranking): each pair plays its mean scoreline, rounded by
    `round_half_away` (1.9 : 1.2 becomes 2 : 1), once."""
    goals = round_half_away(model.mean_goals)
    return league_table(model.names, goals, points_matrix(goals))


# How far the two printed, rounded mean points of a pair may sum outside 2..3.
POINTS_SUM_SLACK = 0.01


def continuous_fixture_standings(model: PairwiseGoalModel, points: PairwiseGoalModel):
    """League table of `model` under the continuous scheme, as
    (standings, ranking): summed per-pair mean points and goals. `points`
    holds the mean points per ordered pair (`load_points_model`), in the
    goal model's team order; a cell above 3, or a pair whose two cells sum
    outside 2..3 by more than POINTS_SUM_SLACK, raises IngestionError
    naming its row and column."""
    names = model.names
    if points.names != names:
        raise IngestionError("points table team order differs from the goal model's")
    p = points.mean_goals
    pair = p + p.T  # 2 points in all for a drawn game, 3 for a decided one
    off_sum = ~np.eye(len(names), dtype=bool) & (
        (pair < 2 - POINTS_SUM_SLACK) | (pair > 3 + POINTS_SUM_SLACK))
    _reject_first_cell(names, p > 3, IngestionError,
                       lambda i, j: f"mean points {p[i, j].item()} above 3")
    _reject_first_cell(names, off_sum, IngestionError, lambda i, j:
                       f"mean points {p[i, j].item()} and {p[j, i].item()} "
                       "of the pair sum outside 2..3")
    return league_table(names, model.mean_goals, p)


def published_truth(year: int) -> Ranking:
    return R_C_2012 if year == 2012 else R_C_2013


@dataclass(frozen=True)
class GoldenCheck:
    name: str
    run: Callable[[], bool]


def golden_checks() -> list[GoldenCheck]:
    """Every value reproduced from the published tables, as pass/fail
    checks; the reproduce CLI command runs these."""

    def league(year, discrete, expected_points, expected_rank):
        def run():
            model = load_goal_model(year)
            table, r = (discrete_fixture_standings(model) if discrete
                        else continuous_fixture_standings(model, load_points_model(year)))
            # Discrete points are integers: within 5e-4 they are equal.
            ok = all(abs(table[n].points - e) <= 5e-4
                     for n, e in zip(model.names, expected_points))
            return ok and r.places == expected_rank.places
        return run

    def tiebreak_2012():
        table, _ = discrete_fixture_standings(load_goal_model(2012))
        wright, helios = table["Wright"], table["Helios"]
        return (wright.points == helios.points and wright.goal_difference == 39
                and wright.goal_difference > helios.goal_difference)

    def proposed(year, overrides, expected_rank):
        def run():
            table = load_combined_table(year)
            r = rank_from_fixed_results(table, playoff_overrides=overrides)
            return r.places == expected_rank.places
        return run

    return [GoldenCheck(name, run) for name, run in (
        ("discrete-points-and-rd-2012", league(2012, True, DISCRETE_POINTS_2012, R_D_2012)),
        ("discrete-points-and-rd-2013", league(2013, True, DISCRETE_POINTS_2013, R_D_2013)),
        ("discrete-tiebreak-2012-wright-over-helios", tiebreak_2012),
        ("continuous-points-and-rc-2012",
         league(2012, False, CONTINUOUS_POINTS_2012, R_C_2012)),
        ("continuous-points-and-rc-2013",
         league(2013, False, CONTINUOUS_POINTS_2013, R_C_2013)),
        *((name, lambda a=a, b=b, e=e: l1_distance(a, b) == e) for name, a, b, e in GOLDEN_L1),
        ("proposed-replay-rp-2012", proposed(2012, PLAYOFF_OVERRIDES_2012, R_P_2012)),
        ("proposed-replay-rp-2013", proposed(2013, PLAYOFF_OVERRIDES_2013, R_P_2013)),
    )]
