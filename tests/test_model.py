import math

import numpy as np
import pytest

from tournsim import (
    EmpiricalPoolSampler,
    GameResult,
    IngestionError,
    InvalidInputError,
    InvalidPairingError,
    PairwiseGoalModel,
    PoissonSampler,
    TeamId,
    average_results,
    derive_rng,
    load_model,
    sample_game,
)
from tournsim.fixtures import fixture_text


@pytest.fixture(scope="module")
def model2012():
    return load_model(fixture_text("robocup2012.csv"))


@pytest.fixture(scope="module")
def model2013():
    return load_model(fixture_text("robocup2013.csv"))


class TestLoadModel:
    def test_2012_fixture(self, model2012):
        assert model2012.n == 8
        assert model2012.mean(
            model2012.index("Helios"), model2012.index("Wright")
        ) == 2.3

    def test_2013_fixture(self, model2013):
        assert model2013.n == 8
        assert model2013.mean(
            model2013.index("Wright"), model2013.index("Helios")
        ) == 1.9

    def test_negative_cell_rejected(self):
        text = ",A,B\nA,,-1.0\nB,0.5,\n"
        with pytest.raises(IngestionError, match="invalid mean goals"):
            load_model(text)

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

    def test_path_with_comma_is_a_path(self, tmp_path, model2012):
        path = tmp_path / "robocup,2012.csv"
        path.write_text(model2012.to_csv(), encoding="utf-8")
        for source in (path, str(path)):
            assert load_model(source).names == model2012.names

    def test_string_without_newline_is_a_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(str(tmp_path / "A,B"))

    def test_roundtrip_exact(self, model2012):
        again = load_model(model2012.to_csv())
        assert again.names == model2012.names
        off = ~np.eye(8, dtype=bool)
        assert np.array_equal(again.mean_goals[off], model2012.mean_goals[off])
        assert again.to_csv() == model2012.to_csv()


class TestSampleGame:
    def test_zero_rate_is_goalless(self):
        model = PairwiseGoalModel(["A", "B"], [[0, 0], [0, 0]])
        rng = derive_rng(1)
        for _ in range(50):
            g = sample_game(model, 0, 1, rng)
            assert (g.home_goals, g.away_goals) == (0, 0)

    def test_same_seed_same_result(self, model2012):
        g1 = sample_game(model2012, 0, 1, derive_rng(99))
        g2 = sample_game(model2012, 0, 1, derive_rng(99))
        assert g1 == g2

    def test_self_pairing_rejected(self, model2012):
        with pytest.raises(InvalidPairingError):
            sample_game(model2012, 2, 2, derive_rng(0))

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


class TestAverageResults:
    def _games(self, scores, a="A", b="B"):
        ta, tb = TeamId(0, a), TeamId(1, b)
        return [GameResult(ta, tb, x, y) for x, y in scores]

    def test_hand_computed_mean(self):
        avg = average_results(self._games([(2, 1), (0, 1), (1, 1)]))
        assert (avg.mean_for, avg.mean_against, avg.games_counted) == (1.0, 1.0, 3)

    def test_single_game(self):
        avg = average_results(self._games([(5, 0)]))
        assert (avg.mean_for, avg.mean_against) == (5.0, 0.0)

    def test_orientation_flip(self):
        ta, tb = TeamId(0, "A"), TeamId(1, "B")
        games = [GameResult(ta, tb, 2, 0), GameResult(tb, ta, 0, 2)]
        avg = average_results(games)
        assert (avg.mean_for, avg.mean_against) == (2.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            average_results([])

    def test_mixed_pairs_rejected(self):
        games = self._games([(1, 0)]) + self._games([(1, 0)], "A", "C")
        with pytest.raises(InvalidInputError, match="mix"):
            average_results(games)

    def test_sampled_helios_wright_within_3se(self, model2012):
        rng = derive_rng(3)
        games = [sample_game(model2012, 0, 1, rng) for _ in range(1000)]
        avg = average_results(games)
        se = math.sqrt(2.3 / 1000)
        assert abs(avg.mean_for - 2.3) < 3 * se
        assert abs(avg.mean_against - 2.3) < 3 * se


class TestEmpiricalPool:
    def test_samples_only_recorded_results(self, model2012):
        ta, tb = TeamId(0, "Helios"), TeamId(1, "Wright")
        pool = [GameResult(ta, tb, 3, 1), GameResult(ta, tb, 0, 0)]
        s = EmpiricalPoolSampler(model2012.names, pool)
        rng = derive_rng(5)
        seen = {s.sample(0, 1, rng) for _ in range(100)}
        assert seen <= {(3, 1), (0, 0)}
        # reversed orientation flips the scores
        seen_rev = {s.sample(1, 0, rng) for _ in range(100)}
        assert seen_rev <= {(1, 3), (0, 0)}

    def test_missing_pair_rejected(self, model2012):
        ta, tb = TeamId(0, "Helios"), TeamId(1, "Wright")
        s = EmpiricalPoolSampler(model2012.names, [GameResult(ta, tb, 1, 0)])
        with pytest.raises(InvalidInputError):
            s.sample(2, 3, derive_rng(0))


def test_derive_rng_independent_streams():
    a = derive_rng(10, 0).integers(0, 2**32, 8)
    b = derive_rng(10, 1).integers(0, 2**32, 8)
    a2 = derive_rng(10, 0).integers(0, 2**32, 8)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)
