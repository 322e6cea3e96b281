"""Pairwise team-strength model and the stochastic game sampler.

The generative ground truth is an n x n matrix of mean goals per ordered
team pair. Game results are drawn as two independent Poisson variates, one
per side.

Every team-by-team table, the goal means and per-pair points that
`load_model` reads and the combined score tables of `tournsim.fixtures`,
goes through one reader, `_read_table`, which checks the table's shape
and parses its cells into one float array. Whether the values are in
range is checked by the type the array goes into (`_reject_first_cell`).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Callable, Sequence

import numpy as np

from .errors import IngestionError, InvalidInputError, InvalidPairingError


class GameResult(namedtuple("GameResult", "home away home_goals away_goals")):
    """One sampled game: the two teams by name, integer goals for each side.
    An immutable tuple that unpacks as (home, away, home_goals, away_goals);
    every way of building one (the constructor, `_make`, `_replace`, copy
    and unpickling) runs its checks."""

    __slots__ = ()

    def __new__(cls, home: str, away: str, home_goals: int, away_goals: int):
        if home == away:
            raise InvalidPairingError("a team cannot play itself")
        if home_goals < 0 or away_goals < 0:
            raise InvalidInputError("goals must be nonnegative")
        return tuple.__new__(cls, (home, away, home_goals, away_goals))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# The largest mean a model accepts: a team's goal total in any oracle run
# that fits in memory, about (n - 1) * games_per_pair * mean, stays in int64.
MAX_MEAN_GOALS = 1e6


class PairwiseGoalModel:
    """n x n matrix of mean goals; entry (i, j) is the expected goals team i
    scores against team j, from 0 to MAX_MEAN_GOALS. The diagonal is unused
    and stored as 0. Holds its own read-only copy of the means, so it is
    immutable after construction and safe to share across workers."""

    def __init__(self, names: Sequence[str], mean_goals):
        names = list(names)
        matrix = np.array(mean_goals, dtype=float)  # a copy: the caller's array stays theirs
        n = len(names)
        if n < 2:
            raise IngestionError("a model needs at least 2 teams")
        if len(set(names)) != n:
            raise IngestionError("duplicate team name in model")
        if matrix.shape != (n, n):
            raise IngestionError(f"matrix shape {matrix.shape} does not match {n} teams")
        np.fill_diagonal(matrix, 0.0)
        bad = ~((matrix >= 0) & (matrix <= MAX_MEAN_GOALS))
        _reject_first_cell(names, bad, IngestionError,
                           lambda i, j: f"invalid mean goals {matrix[i, j].item()}")
        self.names = names
        self.mean_goals = matrix
        self.mean_goals.setflags(write=False)


def _reject_first_cell(names: Sequence[str], bad, error: type, message: Callable) -> None:
    """Raise `error` of message(i, j) after "row 'A', column 'B': ", the
    first cell (i, j) in row order where the boolean matrix `bad` is set."""
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        raise error(f"row {names[i]!r}, column {names[j]!r}: {message(i, j)}")


def _read_table(
    text: str, parse: Callable[[str], object], shape: tuple[int, ...] = ()
) -> tuple[list[str], np.ndarray]:
    """The team names and the values of a team-by-team table: a
    comma-separated matrix whose first row (after an optional blank cell)
    and first column name the teams in the same order, with a blank or '-'
    diagonal. `parse` reads each other cell's stripped text into a value of
    `shape`; the values come back as one float array of shape
    (n, n, *shape) with a zero diagonal. Every row's layout is checked
    before any cell is parsed. Raises IngestionError naming the offending
    row, and the column of a cell `parse` rejects with a ValueError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise IngestionError("empty model file")
    names = [c.strip() for c in lines[0].split(",")]
    if names[0] == "":
        names = names[1:]
    n = len(names)
    if n < 2:
        raise IngestionError("header must list at least 2 teams")
    if len(lines) - 1 != n:
        raise IngestionError(
            f"expected {n} data rows for {n} teams, found {len(lines) - 1}"
        )
    rows = []
    for r, line in enumerate(lines[1:]):
        row_name, *cells = [c.strip() for c in line.split(",")]
        if row_name != names[r]:
            raise IngestionError(
                f"row {r + 1}: name {row_name!r} does not match header order"
            )
        if row_name in names[:r]:
            raise IngestionError(f"duplicate team name {row_name!r}")
        if len(cells) != n:
            raise IngestionError(
                f"row {row_name!r}: expected {n} cells, found {len(cells)}"
            )
        if cells[r] not in ("", "-"):
            raise IngestionError(f"row {row_name!r}: diagonal cell must be blank")
        rows.append(cells)
    values = np.zeros((n, n, *shape))
    for r, c in itertools.permutations(range(n), 2):
        try:
            values[r, c] = parse(rows[r][c])
        except ValueError:
            raise IngestionError(
                f"row {names[r]!r}, column {names[c]!r}: unparsable cell {rows[r][c]!r}"
            ) from None
    return names, values


def load_model(text: str) -> PairwiseGoalModel:
    """Read a comma-separated matrix (see `_read_table`): cell (i, j) is
    the mean goals of the row team against the column team, a number from
    0 to MAX_MEAN_GOALS. Raises IngestionError naming the offending
    row/column."""
    return PairwiseGoalModel(*_read_table(text, float))


class PoissonSampler:
    """Default generative backend: independent Poisson goals per side with
    means taken from the model."""

    backend = "poisson"

    def __init__(self, model: PairwiseGoalModel):
        self.model = model
        self.names = model.names
        self._m = model.mean_goals

    def sample(self, i: int, j: int, rng: np.random.Generator) -> tuple[int, int]:
        if i == j:
            raise InvalidPairingError("a team cannot play itself")
        m = self._m
        return int(rng.poisson(m[i, j])), int(rng.poisson(m[j, i]))

    def sample_many(self, i: int, j: int, count: int, rng: np.random.Generator):
        """Vectorized draw of `count` games for one pairing."""
        if i == j:
            raise InvalidPairingError("a team cannot play itself")
        m = self._m
        return rng.poisson(m[i, j], count), rng.poisson(m[j, i], count)


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent substream for (master_seed, key...); the backbone of the
    one-master-seed reproducibility discipline."""
    if master_seed < 0:
        raise InvalidInputError(f"seed must be >= 0, not {master_seed}")
    return np.random.default_rng(np.random.SeedSequence([master_seed, *key]))
