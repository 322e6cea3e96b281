import copy
import itertools
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tournsim import (
    GameResult,
    IngestionError,
    InvalidInputError,
    InvalidPairingError,
    PairwiseGoalModel,
    PoissonSampler,
    derive_rng,
    load_model,
)
from tournsim import fixtures
from tournsim.cli import TRUTH_STREAM_KEY
from tournsim.fixtures import fixture_text
from tournsim.formats import Ledger, LedgerEntry, _pair_index
from tournsim.model import MAX_MEAN_GOALS

from built import built


@pytest.fixture(scope="module")
def model2012():
    return load_model(fixture_text("robocup2012.csv"))


@pytest.fixture(scope="module")
def model2013():
    return load_model(fixture_text("robocup2013.csv"))


class TestLoadModel:
    def test_2012_fixture(self, model2012):
        assert len(model2012.names) == 8
        names = model2012.names
        assert model2012.mean_goals[names.index("Helios"), names.index("Wright")] == 2.3

    def test_2013_fixture(self, model2013):
        assert len(model2013.names) == 8
        names = model2013.names
        assert model2013.mean_goals[names.index("Wright"), names.index("Helios")] == 1.9

    def test_negative_cell_rejected(self):
        text = ",A,B\nA,,-1.0\nB,0.5,\n"
        with pytest.raises(IngestionError, match="invalid mean goals"):
            load_model(text)

    @pytest.mark.parametrize(
        "cell,shown",
        [("-1.0", "-1.0"), ("-2", "-2.0"), ("nan", "nan"), ("inf", "inf"), ("1e300", "1e+300")],
    )
    def test_bad_value_message_names_cell_in_plain_numbers(self, cell, shown):
        with pytest.raises(IngestionError) as info:
            load_model(f",A,B\nA,,{cell}\nB,0.5,\n")
        assert str(info.value) == f"row 'A', column 'B': invalid mean goals {shown}"

    def test_mean_limit_is_inclusive(self):
        # 1e6 loads; the next float above it names its cell.
        assert load_model(",A,B\nA,,1e6\nB,0,\n").mean_goals[0, 1] == MAX_MEAN_GOALS == 1e6
        above = np.nextafter(MAX_MEAN_GOALS, np.inf)
        with pytest.raises(IngestionError, match="row 'B', column 'A'"):
            PairwiseGoalModel(["A", "B"], [[0.0, 1.0], [above, 0.0]])

    def test_model_names_first_bad_cell(self):
        # The constructor, not the reader, checks the values, so a model
        # built from an array names the cell too; the diagonal is unused.
        means = np.array([[np.nan, 1.0, 2.0], [0.5, 0.0, -0.25], [1.0, -3.0, 0.0]])
        with pytest.raises(IngestionError) as info:
            PairwiseGoalModel(["A", "B", "C"], means)
        assert str(info.value) == "row 'B', column 'C': invalid mean goals -0.25"

    def test_caller_array_stays_writable_and_unchanged(self):
        # The model keeps a read-only copy with a zero diagonal.
        means = np.array([[np.nan, 1.5], [0.5, np.nan]])
        model = PairwiseGoalModel(["A", "B"], means)
        assert model.mean_goals is not means
        assert model.mean_goals.tolist() == [[0.0, 1.5], [0.5, 0.0]]
        assert not model.mean_goals.flags.writeable
        means[0, 1] = 5
        assert np.isnan(means[1, 1]) and means[0, 1] == 5
        assert model.mean_goals[0, 1] == 1.5

    @pytest.mark.parametrize("field", ["names", "mean_goals"])
    def test_fields_cannot_be_reassigned(self, field):
        model = load_model(fixture_text("robocup2012.csv"))
        names, means = list(model.names), model.mean_goals.tolist()
        before = fixtures.discrete_fixture_standings(model)[1]
        with pytest.raises(AttributeError):
            setattr(model, field, getattr(model, field)[::-1])
        assert (list(model.names), model.mean_goals.tolist()) == (names, means)
        assert fixtures.discrete_fixture_standings(model)[1].places == before.places

    def test_names_are_a_tuple_of_their_own(self):
        # A write into the caller's list after construction, or into the
        # model's names, cannot skip the duplicate-name check.
        names = ["A", "B", "C"]
        model = PairwiseGoalModel(names, np.ones((3, 3)))
        names[1] = "A"
        assert model.names == ("A", "B", "C")
        with pytest.raises(TypeError):
            model.names[0] = "B"
        assert model.names == ("A", "B", "C")

    def test_non_square_rejected(self):
        with pytest.raises(IngestionError):
            load_model(",A,B\nA,,1.0\n")

    def test_unparsable_cell_names_row_and_column(self):
        with pytest.raises(IngestionError, match="'A'.*'B'"):
            load_model(",A,B\nA,,zzz\nB,0.5,\n")

    def test_duplicate_team_rejected(self):
        with pytest.raises(IngestionError, match="duplicate"):
            PairwiseGoalModel(["A", "A"], [[0, 1], [1, 0]])

    def test_empty_file_rejected(self):
        with pytest.raises(IngestionError, match="empty"):
            load_model("\n")

    @pytest.mark.parametrize("text", [",A\nA,\n", "A\nA,\n"])
    def test_header_of_one_team_rejected(self, text):
        with pytest.raises(IngestionError, match="^header must list at least 2 teams$"):
            load_model(text)

    def test_duplicate_row_name_rejected(self):
        with pytest.raises(IngestionError, match="^duplicate team name 'A'$"):
            load_model(",A,A\nA,,1.0\nA,0.5,\n")

    def test_model_of_one_team_rejected(self):
        with pytest.raises(IngestionError, match="^a model needs at least 2 teams$"):
            PairwiseGoalModel(["A"], [[0.0]])

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (2,), (2, 2, 1)])
    def test_matrix_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(IngestionError,
                           match=f"^{re.escape(f'matrix shape {shape} does not match 2 teams')}$"):
            PairwiseGoalModel(["A", "B"], np.ones(shape))


# Edits of the Oxsy row of the 2013 combined table, each breaking it in one
# way, the error they raise and how it must name the row (and the column,
# for a bad Oxsy-AUT cell). The reader rejects a malformed table; the
# FixedResultTable it builds rejects goals no game can have.
OXSY = "Oxsy,3:5,0.4:2.2,0:3,6:1,0:4,,2.3:0.8,2.2:1.0"
OXSY_AUT = "row 'Oxsy', column 'AUT'"
BROKEN_ROWS = {
    "long row": (OXSY + ",1:1", IngestionError, "row 'Oxsy'"),
    "misnamed row": (OXSY.replace("Oxsy", "Oksy"), IngestionError, "row 6: name 'Oksy'"),
    "filled diagonal": (OXSY.replace(",,", ",1:1,"), IngestionError, "row 'Oxsy'"),
    "cell without a colon": (OXSY.replace("2.3:0.8", "2.3"), IngestionError, "row 'Oxsy'"),
    "nan goals": (OXSY.replace("2.3:0.8", "nan:0.8"), InvalidInputError, OXSY_AUT),
    "infinite goals": (OXSY.replace("2.3:0.8", "inf:1"), InvalidInputError, OXSY_AUT),
    "negative goals": (OXSY.replace("2.3:0.8", "-1:0"), InvalidInputError, OXSY_AUT),
}


class TestCombinedTable:
    """The combined tables go through the reader `load_model` uses."""

    def test_2013_table_as_printed(self):
        # not mirror-symmetric: Wright-AUT reads 6.4:0.3, AUT-Wright 0:7
        table = fixtures.load_combined_table(2013)
        wright, aut = table.names.index("Wright"), table.names.index("AUT")
        assert table.goals.shape == (8, 8, 2)
        assert table.goals[wright, aut].tolist() == [6.4, 0.3]
        assert table.goals[aut, wright].tolist() == [0.0, 7.0]

    @pytest.mark.parametrize("broken", BROKEN_ROWS)
    def test_malformed_row_named(self, monkeypatch, broken):
        row, error, named = BROKEN_ROWS[broken]
        real = fixtures.fixture_text

        def corrupted(name):
            text = real(name)
            assert OXSY in text
            return text.replace(OXSY, row)

        monkeypatch.setattr(fixtures, "fixture_text", corrupted)
        with pytest.raises(error, match=named):
            fixtures.load_combined_table(2013)


@pytest.mark.parametrize("load", [fixtures.published_truth, fixtures.load_goal_model,
                                  fixtures.load_points_model, fixtures.load_combined_table])
@pytest.mark.parametrize("year", [2011, 2014, 2012.0])
def test_year_without_bundled_data_rejected(load, year):
    with pytest.raises(InvalidInputError,
                       match=f"^no bundled data for {year}: the bundled years are 2012, 2013$"):
        load(year)


class TestPoissonSampler:
    def test_zero_rate_is_goalless(self):
        s = PoissonSampler(PairwiseGoalModel(["A", "B"], [[0, 0], [0, 0]]))
        rng = derive_rng(1)
        for _ in range(50):
            assert s.sample(0, 1, rng) == (0, 0)

    def test_same_seed_same_result(self, model2012):
        s = PoissonSampler(model2012)
        assert s.sample(0, 1, derive_rng(99)) == s.sample(0, 1, derive_rng(99))

    def test_self_pairing_rejected(self, model2012):
        with pytest.raises(InvalidPairingError):
            PoissonSampler(model2012).sample(2, 2, derive_rng(0))

    def test_helios_wright_means(self, model2012):
        # lambda = 2.3 both sides; empirical means within 3 SE over 1e5 draws
        s = PoissonSampler(model2012)
        gi, gj = s.sample_many(0, 1, 100_000, derive_rng(7))
        se = math.sqrt(2.3 / 100_000)
        assert abs(gi.mean() - 2.3) < 3 * se
        assert abs(gj.mean() - 2.3) < 3 * se

    @pytest.mark.parametrize("lam", [0.3, 2.3, 7.0, 16.0])
    def test_poisson_sanity(self, lam):
        n = 100_000
        model = PairwiseGoalModel(["A", "B"], [[0, lam], [lam, 0]])
        draws, _ = PoissonSampler(model).sample_many(0, 1, n, derive_rng(int(lam * 10)))
        se_mean = math.sqrt(lam / n)
        se_var = math.sqrt((lam + 2 * lam * lam) / n)
        assert abs(draws.mean() - lam) < 4 * se_mean
        assert abs(draws.var() - lam) < 4 * se_var

    @pytest.mark.parametrize("year", [2012, 2013])
    @pytest.mark.parametrize("k", [1, 3, 10, 1000])
    def test_index_arrays_draw_as_one_call_per_pairing_and_side(self, year, k):
        # The 2012 model has a zero mean (no draw) and a mean of 12.1 (numpy's
        # rejection sampler for means of 10 and more).
        model = fixtures.load_goal_model(year)
        m, (i, j) = model.mean_goals, _pair_index(8)
        sampler = PoissonSampler(model)
        for seed in range(3 if k == 1000 else 20):
            got_rng, want_rng, scalar_rng = (derive_rng(seed, k) for _ in range(3))
            got = sampler.sample_many(i, j, k, got_rng)
            want = [[want_rng.poisson(m[a, b], k), want_rng.poisson(m[b, a], k)]
                    for a, b in zip(i, j)]
            scalar = [sampler.sample_many(a, b, k, scalar_rng) for a, b in zip(i, j)]
            assert got.shape == (2, 28, k)
            assert np.array_equal(got, np.transpose(want, (1, 0, 2)))
            assert np.array_equal(got, np.transpose(scalar, (1, 0, 2)))
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            assert scalar_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("year", [2012, 2013])
    def test_sample_draws_as_poisson_of_the_model_means(self, year):
        # `sample` reads a Python-float copy of the means; each call must draw
        # what rng.poisson draws from the model's own numpy scalars. The 2012
        # model holds a zero mean and a mean of 12.1 (numpy's rejection
        # sampler for means of 10 and more).
        model = fixtures.load_goal_model(year)
        m = model.mean_goals
        off = m[~np.eye(8, dtype=bool)]
        assert year != 2012 or (off.min(), off.max()) == (0.0, 12.1)
        sampler = PoissonSampler(model)
        got_rng, want_rng = derive_rng(year, 5), derive_rng(year, 5)
        for _ in range(20):
            for i, j in itertools.permutations(range(8), 2):
                got = sampler.sample(i, j, got_rng)
                assert got == (int(want_rng.poisson(m[i, j])), int(want_rng.poisson(m[j, i])))
                assert list(map(type, got)) == [int, int]
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("position", [0, 13, 27, None])
    def test_self_pairing_in_index_arrays_rejected(self, model2012, position):
        i, j = _pair_index(8).copy()
        if position is None:  # two ints
            i, j = 4, 4
        else:
            j[position] = i[position]
        with pytest.raises(InvalidPairingError, match="cannot play itself"):
            PoissonSampler(model2012).sample_many(i, j, 3, derive_rng(0))


# Home and away goals of k games of each of the 3 pairs of A, B, C, with
# negative and NaN goals among them.
GOAL_COLUMNS = st.integers(0, 4).flatmap(lambda k: st.tuples(*(
    st.lists(st.lists(values, min_size=k, max_size=k), min_size=3, max_size=3) for values in (
        st.sampled_from([0, 1, 5, -1, math.nan]), st.sampled_from([0, 2, -3, math.nan, 0.5]),
    ))))


def one_game_ledger(home_goals, away_goals):
    """The `Ledger` of one game of A v B."""
    return Ledger(("A", "B"), [[[home_goals]], [[away_goals]]])


class TestGameResult:
    @settings(max_examples=300)
    @given(columns=GOAL_COLUMNS)
    def test_ledger_builds_and_rejects_as_the_constructor(self, columns):
        names = ("A", "B", "C")
        ledger = built(lambda: Ledger(names, columns))
        home, away = columns
        one_by_one = built(lambda: [GameResult(names[i], names[j], *game)
                                    for (i, j), h, a in zip(_pair_index(3).T.tolist(), home, away)
                                    for game in zip(h, a)])
        if isinstance(one_by_one, list):
            games = [e.result for e in ledger]
            assert [type(g) for g in games] == [GameResult] * len(one_by_one)
            assert [g[:2] for g in games] == [g[:2] for g in one_by_one]
            # Accepted goals are ints, read back from an int64 array.
            got = np.array([g[2:] for g in games], float).reshape(-1, 2)
            want = np.array([g[2:] for g in one_by_one], float).reshape(-1, 2)
            assert np.array_equal(got, want, equal_nan=True)
        else:
            assert ledger == one_by_one

    def test_self_play_rejected(self):
        with pytest.raises(InvalidPairingError, match="cannot play itself"):
            GameResult("A", "A", 1, 0)

    @pytest.mark.parametrize("goals", [(-1, 0), (0, -1), (-2, -3)])
    def test_negative_goals_rejected(self, goals):
        with pytest.raises(InvalidInputError, match="nonnegative"):
            GameResult("A", "B", *goals)

    @pytest.mark.parametrize("goal, shown", [
        (0.4, "0.4"), (math.nan, "nan"), (math.inf, "inf"), (True, "True"), ("1", "'1'"),
    ])
    @pytest.mark.parametrize("side", [0, 1])
    def test_goal_that_is_not_an_integer_rejected(self, goal, shown, side):
        goals = [1, 1]
        goals[side] = goal
        match = f"^goals must be integers, not {re.escape(shown)}$"
        with pytest.raises(InvalidInputError, match=match):
            GameResult("A", "B", *goals)
        with pytest.raises(InvalidInputError, match=match):
            one_game_ledger(*goals)

    def test_bool_goals_array_rejected(self):
        with pytest.raises(InvalidInputError, match="^goals must be integers, not True$"):
            Ledger(("A", "B"), np.array([[[True]], [[False]]]))

    def test_integral_goals_kept_as_ints(self):
        g = GameResult("A", "B", np.int64(2), 1.0)
        assert g == ("A", "B", 2, 1) and [type(x) for x in g[2:]] == [int, int]
        for goals in ([[[2.0]], [[1]]], np.array([[[2.0]], [[1.0]]]),
                      np.array([[[2]], [[1]]], np.int32)):
            ledger = Ledger(("A", "B"), goals)
            assert ledger.goals.dtype == np.int64
            assert list(ledger) == [LedgerEntry("rr-1v2-g1", g)]

    def test_fields_unpack_and_repr(self):
        g = GameResult("A", "B", 2, 1)
        home, away, home_goals, away_goals = g
        assert (home, away, home_goals, away_goals) == ("A", "B", 2, 1)
        assert (g.home, g.away, g.home_goals, g.away_goals) == ("A", "B", 2, 1)
        assert repr(g) == "GameResult(home='A', away='B', home_goals=2, away_goals=1)"

    @pytest.mark.parametrize("field", ["home", "away", "home_goals", "away_goals", "other"])
    def test_attributes_cannot_be_set(self, field):
        g = GameResult("A", "B", 2, 1)
        with pytest.raises(AttributeError):
            setattr(g, field, 0)
        assert g == GameResult("A", "B", 2, 1)

    def test_equal_values_equal_and_hash_alike(self):
        a, b = GameResult("A", "B", 2, 1), GameResult("A", "B", 2, 1)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, GameResult("B", "A", 1, 2)}) == 2

    def test_pickle_round_trip(self):
        g = GameResult("A", "B", 2, 1)
        back = pickle.loads(pickle.dumps(g))
        assert type(back) is GameResult and back == g

    @pytest.mark.parametrize("fields, error", [
        (("A", "A", 1, 0), InvalidPairingError),
        (("A", "B", -1, 0), InvalidInputError),
        (("A", "B", 0.4, 0), InvalidInputError),
        (("A", "B", 0, math.nan), InvalidInputError),
        (("A", "B", True, 0), InvalidInputError),
    ])
    def test_every_constructor_path_checks(self, fields, error):
        # A record forged past the constructor is rebuilt through it by
        # unpickling and copying, `_make`/`_replace` build through it, and
        # a one-game `Ledger` of its goals rejects them as it does. (A
        # ledger's teams are those of its pairs, so none plays itself.)
        forged = tuple.__new__(GameResult, fields)
        rebuilds = [lambda: pickle.loads(pickle.dumps(forged)),
                    lambda: copy.copy(forged), lambda: copy.deepcopy(forged),
                    lambda: GameResult._make(fields),
                    lambda: GameResult("A", "B", 0, 0)._replace(
                        **dict(zip(GameResult._fields, fields)))]
        if fields[:2] == ("A", "B"):
            rebuilds.append(lambda: one_game_ledger(*fields[2:]))
        for rebuild in rebuilds:
            with pytest.raises(error):
                rebuild()

    def test_make_and_replace_build_records(self):
        g = GameResult._make(["A", "B", 2, 1])
        assert type(g) is GameResult and g == GameResult("A", "B", 2, 1)
        assert g._replace(away_goals=3) == GameResult("A", "B", 2, 3)


def test_derive_rng_independent_streams():
    a = derive_rng(10, 0).integers(0, 2**32, 8)
    b = derive_rng(10, 1).integers(0, 2**32, 8)
    a2 = derive_rng(10, 0).integers(0, 2**32, 8)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("key", [(), (0,), (2**32 - 1,), (2**32,), (2**64 + 3,),
                                 (TRUTH_STREAM_KEY,), (3, 0, 49, 2)])
@pytest.mark.parametrize("seed", [0, 20122013])
def test_derive_rng_is_default_rng_of_the_seed_sequence(seed, key):
    # derive_rng builds the generator directly; the stream must be the one
    # np.random.default_rng gives the same SeedSequence.
    want = np.random.default_rng(np.random.SeedSequence([seed, *key]))
    got = derive_rng(seed, *key)
    assert type(got) is np.random.Generator
    assert got.bit_generator.state == want.bit_generator.state
    assert got.integers(2**62, size=4).tolist() == want.integers(2**62, size=4).tolist()


@pytest.mark.parametrize("args, match", [
    ((True,), "^seed must be an integer, not True$"),
    ((1.5,), "^seed must be an integer, not 1.5$"),
    (("3",), "^seed must be an integer, not '3'$"),
    ((-1,), "^seed must be >= 0, not -1$"),
    ((1, -2), "^key must be >= 0, not -2$"),
    ((1, 0, 2.5), "^key must be an integer, not 2.5$"),
    ((1, False), "^key must be an integer, not False$"),
], ids=["bool-seed", "float-seed", "string-seed", "negative-seed", "negative-key",
        "float-key", "bool-key"])
def test_derive_rng_rejects_a_seed_or_key_that_is_no_nonnegative_integer(args, match):
    with pytest.raises(InvalidInputError, match=match):
        derive_rng(*args)


def test_derive_rng_reads_integral_seeds_and_keys_as_ints():
    want = derive_rng(7, 3).integers(2**62, size=4).tolist()
    for args in ((7.0, 3), (np.int64(7), np.uint8(3)), (7, 3.0)):
        assert derive_rng(*args).integers(2**62, size=4).tolist() == want
