import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tournsim import (
    CampaignSpec,
    DiscrepancyDistribution,
    FormatSpec,
    InvalidComparisonError,
    InvalidInputError,
    PairwiseGoalModel,
    PoissonSampler,
    Ranking,
    TournsimError,
    compare_campaigns,
    merge_distributions,
    montecarlo,
    run_campaign,
)
from tournsim.montecarlo import BLOCK_SIZE

NAMES8 = [f"T{i}" for i in range(8)]


def flat_sampler(n=8, mean=1.3):
    m = np.full((n, n), mean)
    np.fill_diagonal(m, np.nan)
    return PoissonSampler(PairwiseGoalModel(NAMES8[:n], m))


def chain_sampler():
    m = np.zeros((8, 8))
    for i in range(8):
        for j in range(i + 1, 8):
            m[i, j] = 40.0
    np.fill_diagonal(m, np.nan)
    return PoissonSampler(PairwiseGoalModel(NAMES8, m))


def spec(n=200, seed=77, start=0, kind="format_2013_double_elim", sampler=None):
    return CampaignSpec(
        format=FormatSpec(kind, seeding="random"),
        sampler=sampler or flat_sampler(),
        truth=Ranking.from_order(NAMES8),
        n_tournaments=n,
        master_seed=seed,
        start_index=start,
    )


class TestCampaignDeterminism:
    def test_same_spec_same_distribution(self):
        assert run_campaign(spec()).counts == run_campaign(spec()).counts

    def test_different_seed_differs(self):
        assert run_campaign(spec(seed=77)).counts != run_campaign(spec(seed=78)).counts

    def test_split_merge_equals_single_run(self):
        whole = run_campaign(spec(n=300))
        first = run_campaign(spec(n=120))
        second = run_campaign(spec(n=180, start=120))
        assert merge_distributions(first, second).counts == whole.counts

    def test_worker_count_does_not_change_result(self):
        one = run_campaign(spec(n=80), workers=1)
        two = run_campaign(spec(n=80), workers=2)
        assert one.counts == two.counts
        assert one.to_text() == two.to_text()


class DuckSampler:
    """Only the attributes perfbench's timing wrapper has; the batched
    engine does not recognise it, so campaigns take the scalar fallback."""

    def __init__(self, inner):
        self.names = inner.names
        self.backend = inner.backend
        self.sample = inner.sample
        self.sample_many = inner.sample_many


class TestBlockLayout:
    def test_block_size_is_part_of_the_stream_layout(self):
        # Another block size gives other histograms for the same seed,
        # which needs a new stream layout version.
        assert BLOCK_SIZE == 250
        assert montecarlo.STREAM_LAYOUT == "v2"

    @pytest.mark.parametrize("kind", ["proposed", "format_2013_double_elim"])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        start=st.integers(0, 600),
        first=st.integers(1, 400),
        second=st.integers(1, 400),
    )
    @example(start=0, first=249, second=451)
    @example(start=0, first=250, second=450)
    @example(start=0, first=251, second=449)
    @example(start=1, first=249, second=1)
    def test_any_split_merges_to_the_whole(self, kind, start, first, second):
        whole = run_campaign(spec(n=first + second, start=start, kind=kind))
        parts = merge_distributions(
            run_campaign(spec(n=first, start=start, kind=kind)),
            run_campaign(spec(n=second, start=start + first, kind=kind)),
        )
        assert parts.to_text() == whole.to_text()

    def test_fewer_tournaments_than_a_block(self):
        head = run_campaign(spec(n=10, kind="proposed"))
        tail = run_campaign(spec(n=240, start=10, kind="proposed"))
        assert head.n_samples == 10
        block = run_campaign(spec(n=BLOCK_SIZE, kind="proposed"))
        assert merge_distributions(head, tail).counts == block.counts
        # across a block boundary
        across = run_campaign(spec(n=10, start=245, kind="proposed"))
        assert across.n_samples == 10

    @pytest.mark.parametrize("duck", [False, True])
    def test_worker_count_with_partial_blocks(self, duck):
        sampler = DuckSampler(flat_sampler()) if duck else flat_sampler()
        s = spec(n=630, start=100, kind="proposed", sampler=sampler)
        one = run_campaign(s, workers=1)
        two = run_campaign(s, workers=2)
        assert one.n_samples == 630
        assert one.to_text() == two.to_text()

    def test_duck_typed_sampler_takes_the_scalar_fallback(self, monkeypatch):
        calls = {"run_format": 0, "derive_rng": 0}

        def counted(name):
            real = getattr(montecarlo, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        # perfbench's tracer patches these module-level names.
        for name in ("run_format", "derive_rng", "l1_distance"):
            assert callable(getattr(montecarlo, name))
        for name in calls:
            monkeypatch.setattr(montecarlo, name, counted(name))
        s = spec(n=300, start=260, kind="proposed", sampler=DuckSampler(flat_sampler()))
        d = run_campaign(s)
        assert d.n_samples == 300
        # blocks 1 and 2; block 1 simulates its first 10 rows and drops them
        assert calls == {"run_format": 310, "derive_rng": 2}
        again = merge_distributions(
            run_campaign(spec(n=100, start=260, kind="proposed", sampler=s.sampler)),
            run_campaign(spec(n=200, start=360, kind="proposed", sampler=s.sampler)),
        )
        assert again.counts == d.counts

    def test_batched_block_draws_one_generator(self, monkeypatch):
        keys = []
        real = montecarlo.derive_rng

        def recorded(*key):
            keys.append(key)
            return real(*key)

        monkeypatch.setattr(montecarlo, "derive_rng", recorded)
        run_campaign(spec(n=300, start=400, seed=5, kind="proposed"))
        assert keys == [(5, 1), (5, 2)]


class PairError(Exception):
    """An exception whose constructor does not take a message."""

    def __init__(self, i, j):
        super().__init__(f"no game between {i} and {j}")


class FailingSampler(DuckSampler):
    def __init__(self, inner):
        super().__init__(inner)

        def sample(i, j, rng):
            raise PairError(i, j)

        self.sample = sample


class TestErrors:
    def test_failure_names_the_tournament(self):
        s = spec(n=5, start=250, kind="proposed", sampler=FailingSampler(flat_sampler()))
        if sys.version_info >= (3, 11):
            with pytest.raises(PairError) as info:
                run_campaign(s)
            assert info.value.__notes__ == ["in tournament 250 of the campaign"]
        else:
            with pytest.raises(TournsimError, match="tournament 250: no game"):
                run_campaign(s)

    def test_batched_failure_names_the_block(self):
        bad = FormatSpec("proposed", seeding=(0, 1, 2))
        s = CampaignSpec(bad, flat_sampler(), Ranking.from_order(NAMES8), 5, 1, 252)
        with pytest.raises(TournsimError, match="permutation") as info:
            run_campaign(s)
        if sys.version_info >= (3, 11):
            assert isinstance(info.value, InvalidInputError)
            assert info.value.__notes__ == ["in tournaments 252-256 of the campaign"]
        else:
            assert "tournaments 252-256" in str(info.value)


class TestDistribution:
    def test_chain_model_is_point_mass_at_zero(self):
        d = run_campaign(spec(n=100, kind="proposed", sampler=chain_sampler()))
        assert d.counts == {0: 100}
        assert d.mean == 0.0 and d.median == 0.0 and d.std_error == 0.0

    def test_summary_statistics(self):
        d = DiscrepancyDistribution.from_counts({0: 2, 4: 1, 8: 1}, 8)
        assert d.n_samples == 4
        assert d.mean == pytest.approx(3.0)
        assert d.median == pytest.approx(2.0)
        assert d.cdf(0) == pytest.approx(0.5)
        assert d.cdf(4) == pytest.approx(0.75)
        assert d.cdf(8) == pytest.approx(1.0)
        assert d.std_error == pytest.approx((11.0 / 4) ** 0.5)

    def test_odd_value_rejected(self):
        with pytest.raises(InvalidInputError):
            DiscrepancyDistribution.from_counts({3: 1}, 8)

    def test_value_above_bound_rejected(self):
        with pytest.raises(InvalidInputError):
            DiscrepancyDistribution.from_counts({34: 1}, 8)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            DiscrepancyDistribution.from_counts({}, 8)

    def test_text_round_trip(self):
        d = run_campaign(spec(n=150))
        text = d.to_text(header={"format": "format_2013_double_elim"})
        back = DiscrepancyDistribution.from_text(text)
        assert back.counts == d.counts
        assert back.n_teams == d.n_teams
        assert back.to_text() == DiscrepancyDistribution.from_text(back.to_text()).to_text()

    def test_text_stream_versions(self):
        text = run_campaign(spec(n=20)).to_text(header={"stream": "v2"})
        assert text.startswith("# tournsim-histogram v1\n")
        assert DiscrepancyDistribution.from_text(text).n_samples == 20
        # files written before stream layout v2 carry no stream line
        old = run_campaign(spec(n=20)).to_text()
        assert DiscrepancyDistribution.from_text(old).n_samples == 20
        with pytest.raises(InvalidInputError, match="stream"):
            DiscrepancyDistribution.from_text(text.replace("stream=v2", "stream=v9"))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda t: t.split("\n", 1)[1],  # first line missing
            lambda t: t.replace("histogram v1", "histogram v7"),
            lambda t: "l1,count\n0,1\n",
            lambda t: t.replace("n_samples=20", "n_samples=21"),
            lambda t: t.replace("n_samples=20", "n_samples=x"),
            lambda t: t.replace(" n_samples=20", ""),
        ],
        ids=["no-magic", "unknown-version", "bare-csv", "n-mismatch", "n-garbled", "no-n"],
    )
    def test_text_rejects_malformed_files(self, edit):
        text = run_campaign(spec(n=20)).to_text()
        with pytest.raises(InvalidInputError):
            DiscrepancyDistribution.from_text(edit(text))

    def test_text_is_byte_deterministic(self):
        d1 = run_campaign(spec(n=150))
        d2 = run_campaign(spec(n=150))
        assert d1.to_text() == d2.to_text()


class TestCompare:
    def test_identical_distributions(self):
        d = run_campaign(spec(n=100))
        s = compare_campaigns(d, d)
        assert s.mean_delta == 0.0
        assert s.median_delta == 0.0
        assert s.dominance_holds
        assert all(v == 0.0 for v in s.cdf_deltas.values())

    def test_point_masses(self):
        a = DiscrepancyDistribution.from_counts({0: 10}, 8)
        b = DiscrepancyDistribution.from_counts({4: 10}, 8)
        s = compare_campaigns(a, b)
        assert s.mean_delta == pytest.approx(4.0)
        assert s.dominance_holds
        assert not compare_campaigns(b, a).dominance_holds

    def test_mismatched_team_counts_rejected(self):
        a = DiscrepancyDistribution.from_counts({0: 1}, 8)
        b = DiscrepancyDistribution.from_counts({0: 1}, 6)
        with pytest.raises(InvalidComparisonError):
            compare_campaigns(a, b)

    def test_merge_mismatched_team_counts_rejected(self):
        a = DiscrepancyDistribution.from_counts({0: 1}, 8)
        b = DiscrepancyDistribution.from_counts({0: 1}, 6)
        with pytest.raises(InvalidComparisonError):
            merge_distributions(a, b)


def test_campaign_spec_validation():
    with pytest.raises(InvalidInputError):
        CampaignSpec(
            FormatSpec("proposed"),
            flat_sampler(),
            Ranking.from_order(NAMES8),
            n_tournaments=0,
            master_seed=1,
        )
    with pytest.raises(InvalidInputError):
        CampaignSpec(
            FormatSpec("proposed"),
            flat_sampler(),
            Ranking.from_order(["X"] + NAMES8[1:]),
            n_tournaments=5,
            master_seed=1,
        )
