"""Pairwise team-strength model and the stochastic game sampler.

The generative ground truth is an n x n matrix of mean goals per ordered
team pair. Game results are drawn as two independent Poisson variates, one
per side; an empirical-pool sampler drawing from a recorded game log is
available behind the same interface.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import IngestionError, InvalidInputError, InvalidPairingError


@dataclass(frozen=True)
class TeamId:
    index: int
    name: str


@dataclass(frozen=True)
class GameResult:
    """One sampled game: integer goals for each side."""

    home: TeamId
    away: TeamId
    home_goals: int
    away_goals: int

    def __post_init__(self):
        if self.home == self.away:
            raise InvalidPairingError("a team cannot play itself")
        if self.home_goals < 0 or self.away_goals < 0:
            raise InvalidInputError("goals must be nonnegative")


@dataclass(frozen=True)
class AverageResult:
    """Arithmetic mean scoreline of one pairing over games_counted games."""

    pair: tuple[TeamId, TeamId]
    mean_for: float
    mean_against: float
    games_counted: int


class PairwiseGoalModel:
    """n x n matrix of mean goals; entry (i, j) is the expected goals team i
    scores against team j. The diagonal is unused. Immutable after
    construction and safe to share across workers."""

    def __init__(self, names: Sequence[str], mean_goals):
        names = list(names)
        matrix = np.asarray(mean_goals, dtype=float)
        n = len(names)
        if n < 2:
            raise IngestionError("a model needs at least 2 teams")
        if len(set(names)) != n:
            raise IngestionError("duplicate team name in model")
        if matrix.shape != (n, n):
            raise IngestionError(
                f"matrix shape {matrix.shape} does not match {n} teams"
            )
        off = ~np.eye(n, dtype=bool)
        vals = matrix[off]
        if not np.all(np.isfinite(vals)):
            raise IngestionError("non-finite mean goals entry")
        if np.any(vals < 0):
            raise IngestionError("negative mean goals entry")
        self.names = names
        self.mean_goals = matrix
        self.mean_goals.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def teams(self) -> list[TeamId]:
        return [TeamId(i, name) for i, name in enumerate(self.names)]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InvalidInputError(f"unknown team {name!r}") from None

    def mean(self, i: int, j: int) -> float:
        if i == j:
            raise InvalidPairingError("diagonal entry requested")
        return float(self.mean_goals[i, j])

    def to_csv(self) -> str:
        """Serialize back to the tabular text format; values round-trip
        exactly (shortest decimal representation)."""
        out = io.StringIO()
        out.write("," + ",".join(self.names) + "\n")
        for i, name in enumerate(self.names):
            cells = [
                "" if i == j else _fmt(self.mean_goals[i, j])
                for j in range(self.n)
            ]
            out.write(name + "," + ",".join(cells) + "\n")
        return out.getvalue()


def _fmt(v: float) -> str:
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def load_model(source) -> PairwiseGoalModel:
    """Read a comma-separated matrix: first row and first column are team
    names, cell (i, j) is the mean goals of the row team against the column
    team, diagonal blank.

    `source` may be a file-like object, text (a string containing a
    newline) or a path (any other string). Raises IngestionError naming
    the offending row/column.
    """
    text = _read_text(source)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise IngestionError("empty model file")
    header = [c.strip() for c in lines[0].split(",")]
    if header and header[0] == "":
        header = header[1:]
    names = header
    n = len(names)
    if n < 2:
        raise IngestionError("header must list at least 2 teams")
    if len(lines) - 1 != n:
        raise IngestionError(
            f"expected {n} data rows for {n} teams, found {len(lines) - 1}"
        )
    matrix = np.zeros((n, n))
    seen = set()
    for r, line in enumerate(lines[1:]):
        cells = [c.strip() for c in line.split(",")]
        row_name = cells[0]
        if row_name != names[r]:
            raise IngestionError(
                f"row {r + 1}: name {row_name!r} does not match header order"
            )
        if row_name in seen:
            raise IngestionError(f"duplicate team name {row_name!r}")
        seen.add(row_name)
        if len(cells) - 1 != n:
            raise IngestionError(
                f"row {row_name!r}: expected {n} cells, found {len(cells) - 1}"
            )
        for c, cell in enumerate(cells[1:]):
            if r == c:
                if cell not in ("", "-"):
                    raise IngestionError(
                        f"row {row_name!r}: diagonal cell must be blank"
                    )
                continue
            try:
                v = float(cell)
            except ValueError:
                raise IngestionError(
                    f"row {row_name!r}, column {names[c]!r}: "
                    f"unparsable cell {cell!r}"
                ) from None
            if not math.isfinite(v) or v < 0:
                raise IngestionError(
                    f"row {row_name!r}, column {names[c]!r}: "
                    f"invalid mean goals {cell!r}"
                )
            matrix[r, c] = v
    return PairwiseGoalModel(names, matrix)


def _read_text(source) -> str:
    if hasattr(source, "read"):
        return source.read()
    s = str(source)
    if "\n" in s:
        return s
    with open(s, "r", encoding="utf-8") as fh:
        return fh.read()


class PoissonSampler:
    """Default generative backend: independent Poisson goals per side with
    means taken from the model."""

    backend = "poisson"

    def __init__(self, model: PairwiseGoalModel):
        self.model = model
        self.names = model.names
        self._m = model.mean_goals

    @property
    def n(self) -> int:
        return len(self.names)

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


class EmpiricalPoolSampler:
    """Alternative backend drawing uniformly from a recorded pool of game
    results, one pool per unordered pair."""

    backend = "empirical"

    def __init__(self, names: Sequence[str], games: Iterable[GameResult]):
        self.names = list(names)
        self._pools: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for g in games:
            i, j = g.home.index, g.away.index
            gi, gj = g.home_goals, g.away_goals
            if i > j:
                i, j, gi, gj = j, i, gj, gi
            self._pools.setdefault((i, j), []).append((gi, gj))
        if not self._pools:
            raise InvalidInputError("empty game pool")

    @property
    def n(self) -> int:
        return len(self.names)

    def sample(self, i: int, j: int, rng: np.random.Generator) -> tuple[int, int]:
        if i == j:
            raise InvalidPairingError("a team cannot play itself")
        a, b = (i, j) if i < j else (j, i)
        pool = self._pools.get((a, b))
        if not pool:
            raise InvalidInputError(
                f"no recorded games for pair ({self.names[i]}, {self.names[j]})"
            )
        ga, gb = pool[int(rng.integers(len(pool)))]
        return (ga, gb) if i < j else (gb, ga)

    def sample_many(self, i: int, j: int, count: int, rng: np.random.Generator):
        a = np.empty(count, dtype=np.int64)
        b = np.empty(count, dtype=np.int64)
        for k in range(count):
            a[k], b[k] = self.sample(i, j, rng)
        return a, b


def sample_game(
    model: PairwiseGoalModel, i, j, rng: np.random.Generator
) -> GameResult:
    """Draw one game between teams i and j (TeamId or index). Repeated calls
    with the same rng state are bit-identical."""
    ii = i.index if isinstance(i, TeamId) else int(i)
    jj = j.index if isinstance(j, TeamId) else int(j)
    gi, gj = PoissonSampler(model).sample(ii, jj, rng)
    return GameResult(
        TeamId(ii, model.names[ii]), TeamId(jj, model.names[jj]), gi, gj
    )


def average_results(games: Sequence[GameResult]) -> AverageResult:
    """Arithmetic mean scoreline over a list of games that all belong to one
    unordered pair, oriented like the first game."""
    if not games:
        raise InvalidInputError("cannot average an empty game list")
    first = games[0]
    pair = {first.home, first.away}
    total_for = 0
    total_against = 0
    for g in games:
        if {g.home, g.away} != pair:
            raise InvalidInputError("games mix different pairings")
        if g.home == first.home:
            total_for += g.home_goals
            total_against += g.away_goals
        else:
            total_for += g.away_goals
            total_against += g.home_goals
    n = len(games)
    return AverageResult(
        (first.home, first.away), total_for / n, total_against / n, n
    )


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent substream for (master_seed, key...); the backbone of the
    one-master-seed reproducibility discipline."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, *key]))
