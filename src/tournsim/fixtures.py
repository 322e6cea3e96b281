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
`discrete_fixture_standings` and `continuous_fixture_standings` score the
mean matrices of a goal model (and, under the continuous scheme, of its
points model), bundled or read by `tournsim rank`, with
`scoring.round_robin_totals`, the kernel of every complete round robin.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Callable

import numpy as np

from .errors import IngestionError
from .formats import FixedResultTable, rank_from_fixed_results
from .model import PairwiseGoalModel, _read_table, load_model
from .scoring import (
    Ranking,
    TeamStats,
    l1_distance,
    rank,
    round_half_away,
    round_robin_totals,
)

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


def discrete_fixture_standings(model: PairwiseGoalModel) -> dict[str, TeamStats]:
    """League table of `model` under the discrete scheme: each pair plays
    its mean scoreline, rounded half away from zero (1.9 : 1.2 becomes
    2 : 1), once."""
    goals = np.vectorize(round_half_away, otypes=[np.int64])(_played(model))
    return _standings(model, round_robin_totals(goals))


def continuous_fixture_standings(
    model: PairwiseGoalModel, points: PairwiseGoalModel
) -> dict[str, TeamStats]:
    """League table of `model` under the continuous scheme: summed per-pair
    mean points and goals. `points` holds the mean points per ordered pair
    (`load_points_model`), in the goal model's team order."""
    if points.names != model.names:
        raise IngestionError("points table team order differs from the goal model's")
    return _standings(model, round_robin_totals(_played(model), _played(points)))


def _played(model: PairwiseGoalModel) -> np.ndarray:
    """The model's matrix with its unused diagonal set to 0."""
    matrix = np.array(model.mean_goals)
    np.fill_diagonal(matrix, 0)
    return matrix


def _standings(model: PairwiseGoalModel, totals):
    totals = (t.tolist() for t in totals)
    return {name: TeamStats(*stats) for name, *stats in zip(model.names, *totals)}


def published_truth(year: int) -> Ranking:
    return R_C_2012 if year == 2012 else R_C_2013


@dataclass(frozen=True)
class GoldenCheck:
    name: str
    run: Callable[[], bool]


def golden_checks() -> list[GoldenCheck]:
    """Every value reproduced from the published tables, as pass/fail
    checks; the reproduce CLI command runs these."""
    checks: list[GoldenCheck] = []

    def discrete(year, expected_points, expected_rank):
        def run():
            model = load_goal_model(year)
            table = discrete_fixture_standings(model)
            pts = tuple(int(table[n].points) for n in model.names)
            r = rank(table, seed_order=list(model.names))
            return pts == expected_points and r.places == expected_rank.places
        return run

    checks.append(GoldenCheck("discrete-points-and-rd-2012",
                              discrete(2012, DISCRETE_POINTS_2012, R_D_2012)))
    checks.append(GoldenCheck("discrete-points-and-rd-2013",
                              discrete(2013, DISCRETE_POINTS_2013, R_D_2013)))

    def tiebreak_2012():
        table = discrete_fixture_standings(load_goal_model(2012))
        return (
            table["Wright"].points == table["Helios"].points
            and table["Wright"].goal_difference == 39
            and table["Wright"].goal_difference > table["Helios"].goal_difference
        )

    checks.append(GoldenCheck("discrete-tiebreak-2012-wright-over-helios", tiebreak_2012))

    def continuous(year, expected_points, expected_rank):
        def run():
            model = load_goal_model(year)
            table = continuous_fixture_standings(model, load_points_model(year))
            ok = all(
                abs(table[n].points - e) <= 5e-4
                for n, e in zip(model.names, expected_points)
            )
            r = rank(table, seed_order=list(model.names))
            return ok and r.places == expected_rank.places
        return run

    checks.append(GoldenCheck("continuous-points-and-rc-2012",
                              continuous(2012, CONTINUOUS_POINTS_2012, R_C_2012)))
    checks.append(GoldenCheck("continuous-points-and-rc-2013",
                              continuous(2013, CONTINUOUS_POINTS_2013, R_C_2013)))

    for name, a, b, expected in GOLDEN_L1:
        checks.append(
            GoldenCheck(name, lambda a=a, b=b, e=expected: l1_distance(a, b) == e)
        )

    def proposed(year, overrides, expected_rank):
        def run():
            table = load_combined_table(year)
            r = rank_from_fixed_results(table, playoff_overrides=overrides)
            return r.places == expected_rank.places
        return run

    checks.append(GoldenCheck("proposed-replay-rp-2012",
                              proposed(2012, PLAYOFF_OVERRIDES_2012, R_P_2012)))
    checks.append(GoldenCheck("proposed-replay-rp-2013",
                              proposed(2013, PLAYOFF_OVERRIDES_2013, R_P_2013)))
    return checks
