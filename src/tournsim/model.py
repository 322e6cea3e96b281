"""Pairwise team-strength model and the stochastic game sampler.

The generative ground truth is an n x n matrix of mean goals per ordered
team pair. Game results are drawn as two independent Poisson variates, one
per side.

Both kinds of team-by-team table are defined here: `PairwiseGoalModel`,
the goal means and per-pair points that `load_model` reads, and
`FixedResultTable`, the combined score tables of `tournsim.fixtures`.
Read from text, each goes through one reader, `_read_table`, which checks
the table's layout and parses its cells into one float array. Both are
`__slots__` classes whose fields are set once (`_Frozen`), by one
constructor step, `_freeze`, that reads the names and the array and
checks their shape; each then checks its own value rule, naming the
first bad cell (`_reject_first_cell`).

The package's records are plain classes, cheap to build at import. A
frozen value record is a namedtuple subclass (`_record`) whose fields are
declared once, each with its reader; `_at_least`, `_choice`, `_instance`,
`_bool`, `_names`, `_goal` and `_sampler` read every kind of field the
package has. A mutable record is a `__slots__` class equal to another of
its class with equal fields (`_Fields`).
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from collections.abc import Sequence
from typing import Callable

import numpy as np

from .errors import IngestionError, InvalidInputError, InvalidPairingError


def _record(typename: str, fields: dict, defaults: tuple = ()) -> type:
    """The namedtuple base of a frozen value record whose constructor reads
    each field by its reader in `fields`, `read(value, name)`: the value
    kept, or an InvalidInputError that names the field. Its `_make`, and so
    `_replace`, build through the constructor, as copy and unpickling do."""
    base = namedtuple(typename, fields, defaults=defaults)
    bind, readers = base.__new__, tuple(fields.items())

    @functools.wraps(bind)
    def __new__(cls, *args, **kwargs):
        values = bind(cls, *args, **kwargs)  # the arguments, defaults filled in
        return tuple.__new__(cls, [read(v, name) for (name, read), v in zip(readers, values)])

    base.__new__ = staticmethod(__new__)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


def _integer(value, rule: str = "goals must be integers") -> int:
    """`value` as an int, if it is an integral number and not a bool;
    otherwise an error that states `rule` and shows the value."""
    try:
        if not isinstance(value, (bool, np.bool_)) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidInputError(f"{rule}, not {value!r}")


# The largest int an int64 holds: a ledger's goals, and a histogram's L1
# values and counts, whose statistics are floats, are at most this.
_INT64_MAX = np.iinfo(np.int64).max


def _at_least(low) -> Callable:
    """A reader of an integer (`_integer`) of at least `low`."""
    def read(value, name: str) -> int:
        value = _integer(value, f"{name} must be an integer")
        if value < low:
            raise InvalidInputError(f"{name} must be >= {low}, not {value}")
        return value
    return read


def _choice(options: tuple, label: str = "") -> Callable:
    """A reader of a str in `options`; an error names `label` or the field."""
    def read(value, name: str) -> str:
        if isinstance(value, str) and value in options:
            return value
        raise InvalidInputError(f"unknown {label or name} {value!r}")
    return read


def _instance(cls: type, what: str = "") -> Callable:
    """A reader of an instance of `cls`, a `what` (by default its name)."""
    def read(value, name: str):
        if isinstance(value, cls):
            return value
        raise InvalidInputError(f"{name} must be a {what or cls.__name__}, not {value!r}")
    return read


_name = _instance(str, "team name")


def _bool(value, name: str) -> bool:
    """A bool or numpy bool, kept as a bool."""
    return bool(_instance((bool, np.bool_), "bool")(value, name))


def _goal(value, name: str) -> int:
    """A game's goals: a nonnegative integer, as `_integer` reads it."""
    value = _integer(value)
    if value < 0:
        raise InvalidInputError("goals must be nonnegative")
    return value


def _sequence(value) -> bool:
    """Whether `value` is a sequence but no str, or an array of 1+ dims; a
    set is none, as its order would vary between runs."""
    return (isinstance(value, Sequence) and not isinstance(value, str)
            or isinstance(value, np.ndarray) and value.ndim > 0)


def _names(value, name: str) -> tuple:
    """A `_sequence` of team names, as a tuple of its own."""
    # A list or tuple skips the slower ABC check, and `str.join` checks every name.
    if value.__class__ in (list, tuple) or _sequence(value):
        names = tuple(value)
        try:
            "".join(names)
            return names
        except TypeError:
            pass
    raise InvalidInputError(f"{name} must be a sequence of team names, not {value!r}")


def _sampler(value, name: str):
    """A sampler: any object whose `names` `_names` reads."""
    _names(getattr(value, "names", None), f"{name} names")
    return value


class _Fields:
    """Repr by the `__slots__` fields, and equality to a record of the
    same class with equal fields, so no hash: the mutable records."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class _Frozen(_Fields):
    """A `__slots__` record whose fields are set once, by `_freeze`, and
    cannot be reassigned; equal only to itself. It is pickled as its
    constructor's arguments, so unpickling checks it again."""

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class GameResult(_record("GameResult", dict(home=_name, away=_name, home_goals=_goal,
                                            away_goals=_goal))):
    """One sampled game: the two teams by name and integer goals for each
    side, a tuple that unpacks as (home, away, home_goals, away_goals). A
    goal that is not an int, such as a numpy integer or 2.0, is kept as the
    int it equals; a bool, a non-integral number, NaN or inf is rejected."""

    __slots__ = ()

    def __new__(cls, home: str, away: str, home_goals: int, away_goals: int):
        # Two strs and two nonnegative ints, as the engines pass, skip the readers.
        if not (home.__class__ is str and away.__class__ is str and home_goals.__class__ is int
                and away_goals.__class__ is int and home_goals >= 0 and away_goals >= 0):
            home, away, home_goals, away_goals = super().__new__(cls, home, away, home_goals,
                                                                 away_goals)
        if home == away:
            raise InvalidPairingError("a team cannot play itself")
        return tuple.__new__(cls, (home, away, home_goals, away_goals))


# The largest mean a model accepts: a team's goal total in any oracle run
# that fits in memory, about (n - 1) * games_per_pair * mean, stays in int64.
MAX_MEAN_GOALS = 1e6


class PairwiseGoalModel(_Frozen):
    """n x n matrix of mean goals; entry (i, j) is the expected goals team i
    scores against team j, from 0 to MAX_MEAN_GOALS, the unused diagonal 0.
    Its names and means are its own (`_freeze`): it is safe to share."""

    __slots__ = ("names", "mean_goals")  # (n, n) floats

    def __init__(self, names: Sequence[str], mean_goals):
        names, matrix = _freeze(self, names, mean_goals, (), IngestionError, "model",
                                "matrix shape {shape} does not match {n} teams")
        if len(names) < 2:
            raise IngestionError("a model needs at least 2 teams")
        bad = ~((matrix >= 0) & (matrix <= MAX_MEAN_GOALS))
        _reject_first_cell(names, bad, IngestionError,
                           lambda i, j: f"invalid mean goals {matrix[i, j].item()}")


class FixedResultTable(_Frozen):
    """A complete pairwise score table of its own (`_freeze`), used to
    replay the proposed format over fixed, non-sampled results. goals holds
    at [i, j] the goals of names[i] and of names[j] in their
    game with names[i] at home, each as printed (integer or
    average-valued), finite and nonnegative; the unused diagonal is 0. A
    pair's cells need not mirror."""

    __slots__ = ("names", "goals")  # (n, n, 2) floats

    def __init__(self, names: Sequence[str], goals):
        names, goals = _freeze(self, names, goals, (2,), InvalidInputError, "table",
                               "goals of shape {shape} do not fit {n} teams, need {need}")
        bad = ~(np.isfinite(goals) & (goals >= 0)).all(-1)
        _reject_first_cell(names, bad, InvalidInputError, lambda i, j:
                           f"goals {goals[i, j].tolist()} are not finite and nonnegative")


def _freeze(table: _Frozen, names, values, cell: tuple[int, ...], error: type, kind: str,
            bad_shape: str):
    """Set a team table's names (`_names`) and its values, a read-only float
    array of its own with a zero diagonal, once; returns the two."""
    # The fields by slot, as `_Frozen.__setattr__` refuses every write.
    name_slot, values_slot = type(table).__slots__
    names = _names(names, name_slot)
    n = len(names)
    try:
        array = np.array(values, dtype=float)  # a copy: the caller's stays theirs
    except (TypeError, ValueError):
        array = None
    if array is None or array.ndim == 0:  # numpy reads None as NaN
        raise error(f"{values_slot} must be an array of numbers, not {values!r}")
    if len(set(names)) != n:
        raise error(f"duplicate team name in {kind}")
    need = (n, n, *cell)
    if array.shape != need:
        raise error(bad_shape.format(shape=array.shape, n=n, need=need))
    array[range(n), range(n)] = 0
    array.setflags(write=False)
    object.__setattr__(table, name_slot, names)
    object.__setattr__(table, values_slot, array)
    return names, array


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
        self.model = model = _instance(PairwiseGoalModel)(model, "model")
        self.names = model.names
        self._m = model.mean_goals
        # The means as Python floats for `sample`: indexing a list of lists
        # costs less than reading a numpy scalar, and `rng.poisson` draws
        # the same variate from either.
        self._means = self._m.tolist()

    def sample(self, i: int, j: int, rng: np.random.Generator) -> tuple[int, int]:
        if i == j:
            raise InvalidPairingError("a team cannot play itself")
        m = self._means
        return int(rng.poisson(m[i][j])), int(rng.poisson(m[j][i]))

    def sample_many(self, i, j, count: int, rng: np.random.Generator) -> np.ndarray:
        """`count` games of each pairing (i, j), elementwise over two
        equal-shaped arrays of team indices (or two ints): an array of shape
        (2, *i.shape, count), home goals then away goals. One `rng.poisson`
        call draws them all, pairing by pairing, its home games then its
        away games; element by element, in that order, as one call per
        pairing and side would draw them (a zero mean draws nothing), so the
        variates and the generator state are those of the per-side calls."""
        i, j = np.asarray(i), np.asarray(j)
        if (i == j).any():
            raise InvalidPairingError("a team cannot play itself")
        nd = i.ndim
        # (*i.shape, 2, 1), then each mean repeated count times without a
        # copy; `transpose` costs less than `np.moveaxis` at this size.
        means = self._m[[i, j], [j, i]].transpose(*range(1, nd + 1), 0)[..., None]
        draws = rng.poisson(np.broadcast_to(means, (*means.shape[:-1], count)))
        return draws.transpose(nd, *range(nd), nd + 1)


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent substream for (master_seed, key...); the backbone of the
    one-master-seed reproducibility discipline. The generator is the one
    `np.random.default_rng` makes of the same SeedSequence, built directly,
    which skips its argument dispatch. The seed and each key are read as
    `_integer` reads them and must be >= 0."""
    words = [master_seed, *key]
    for w, word in enumerate(words):
        if type(word) is not int or word < 0:
            words[w] = _at_least(0)(word, "key" if w else "seed")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))

