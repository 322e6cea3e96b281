import subprocess
import sys
from pathlib import Path

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
    Ranking,
    TournsimError,
    compare_campaigns,
    fixtures,
    merge_distributions,
    montecarlo,
    run_campaign,
    run_campaigns,
)
from tournsim.montecarlo import BLOCK_SIZE

from duck_sampler import DuckSampler
from pools import pool_sizes
from samplers import NAMES8, chain_sampler, flat_sampler, oracle


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

    def test_one_pool_for_many_specs_equals_one_campaign_each(self, monkeypatch):
        # Two batched blocks pay for a pool, so the 6 blocks start one.
        monkeypatch.setattr(montecarlo, "_BATCHED_BLOCKS_PER_PROCESS", 1)
        pools = pool_sizes(monkeypatch)
        specs = [spec(n=300), spec(n=120, start=200, kind="proposed"), spec(n=300)]
        alone = [run_campaign(s, workers=1).to_text() for s in specs]
        for workers in (1, 2, 3):
            shared = run_campaigns(specs, workers=workers)
            assert [d.to_text() for d in shared] == alone
        assert pools == [2, 3]

    def test_worker_count_does_not_change_result(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_BATCHED_BLOCKS_PER_PROCESS", 1)
        pools = pool_sizes(monkeypatch)
        one = run_campaign(spec(n=80), workers=1)
        two = run_campaign(spec(n=80), workers=2)
        assert one.counts == two.counts
        assert one.to_text() == two.to_text()
        # 80 tournaments in one block play in-process; across a block
        # boundary they make two blocks, which start a pool.
        assert pools == []
        one = run_campaign(spec(n=80, start=200), workers=1)
        two = run_campaign(spec(n=80, start=200), workers=2)
        assert one.to_text() == two.to_text()
        assert pools == [2]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(InvalidInputError, match=f"workers must be >= 1, not {workers}"):
            run_campaign(spec(n=5), workers=workers)
        with pytest.raises(InvalidInputError, match="workers must be >= 1"):
            run_campaigns([spec(n=5), spec(n=5, kind="proposed")], workers=workers)

    def test_import_does_not_load_the_process_pool(self):
        # The pool machinery is imported only when a campaign starts a pool.
        root = str(Path(montecarlo.__file__).parents[1])
        code = (f"import sys; sys.path.insert(0, {root!r}); import tournsim; "
                "print('concurrent.futures' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "False"

    def test_import_does_not_load_dataclasses(self):
        # The records are built without `dataclasses`, whose class building
        # every fresh interpreter would pay for.
        root = str(Path(montecarlo.__file__).parents[1])
        code = (f"import sys; sys.path.insert(0, {root!r}); import tournsim; "
                "print('dataclasses' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "False"

    def test_paper_campaign_at_n_2000_plays_in_process(self):
        # 3 formats of 8 batched blocks pay for no second process, even at
        # --workers 2, so the command never loads the pool machinery. Nor
        # does it load `dataclasses` (numpy, numpy.random and
        # concurrent.futures import none) or the bundled data.
        root = str(Path(montecarlo.__file__).parents[1])
        argv = ["campaign", "--model", str(fixtures.fixture_path("robocup2012.csv")),
                "--format", "proposed", "f2012", "f2013", "--n", "2000", "--workers", "2"]
        loaded = ("concurrent.futures", "dataclasses", "tournsim.fixtures")
        code = (f"import sys; sys.path.insert(0, {root!r}); from tournsim.cli import main; "
                f"code = main({argv!r}); print(code, *(m in sys.modules for m in {loaded!r}))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        lines = out.stdout.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == ["proposed", "f2012", "f2013"]
        assert lines[-1] == "0 False False False"

    def test_two_scalar_blocks_start_a_pool(self, monkeypatch):
        pools = pool_sizes(monkeypatch)
        s = spec(n=300, kind="proposed", sampler=DuckSampler(flat_sampler()))
        two = run_campaign(s, workers=2)
        assert pools == [2]
        assert two.to_text() == run_campaign(s, workers=1).to_text()
        assert pools == [2]


class TestProcessCount:
    """`_process_count` only counts blocks: these tests start no process."""

    @staticmethod
    def count(specs, workers):
        ranges = [montecarlo._block_range(s) for s in specs]
        return montecarlo._process_count(specs, ranges, workers)

    @staticmethod
    def paper_specs(n):
        kinds = ("proposed", "format_2012", "format_2013_double_elim")
        return [spec(n=n, kind=kind) for kind in kinds]

    @pytest.mark.parametrize("blocks, processes", [(95, 1), (96, 8), (144, 8)])
    def test_a_pool_from_96_batched_blocks(self, blocks, processes):
        whole = spec(n=blocks * BLOCK_SIZE)
        partial_last = spec(n=(blocks - 1) * BLOCK_SIZE + 1)
        partial_first = spec(n=(blocks - 1) * BLOCK_SIZE, start=1)
        for s in (whole, partial_last, partial_first):
            assert self.count([s], 8) == processes

    def test_three_formats_at_and_below_96_blocks(self):
        assert self.count(self.paper_specs(8000), 2) == 2  # 3 x 32 blocks
        assert self.count(self.paper_specs(7751), 2) == 2  # 3 x 32
        assert self.count(self.paper_specs(7750), 2) == 1  # 3 x 31

    def test_paper_default_campaign(self):
        # 3 formats x --n 10000: 120 batched blocks start `workers` processes.
        specs = self.paper_specs(10000)
        assert [self.count(specs, w) for w in (1, 2, 3, 8)] == [1, 2, 3, 8]
        # The paper's benchmark campaign, --n 2000: 24 blocks, one process.
        assert self.count(self.paper_specs(2000), 2) == 1

    def test_scalar_blocks_start_a_process_each(self):
        duck = spec(n=630, start=100, sampler=DuckSampler(flat_sampler()))  # 3 blocks
        assert [self.count([duck], w) for w in (1, 2, 3, 4)] == [1, 2, 3, 3]
        # The oracle takes the scalar path on the batched engine's sampler.
        one_block = CampaignSpec(oracle(3), flat_sampler(), Ranking.from_order(NAMES8), 250, 1)
        assert self.count([one_block], 2) == 1
        assert self.count([one_block, one_block], 2) == 2
        # One scalar spec lets the batched blocks beside it start processes too.
        assert self.count([one_block, spec(n=5 * BLOCK_SIZE)], 8) == 6
        assert self.count([spec(n=5 * BLOCK_SIZE)], 8) == 1

    def test_large_worker_count_is_bounded_by_the_blocks(self):
        workers = 10**6
        assert self.count(self.paper_specs(10000), workers) == 120
        assert self.count(self.paper_specs(2000), workers) == 1
        assert self.count([spec(n=5)], workers) == 1
        duck = spec(n=630, start=100, sampler=DuckSampler(flat_sampler()))
        assert self.count([duck], workers) == 3


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
    def test_worker_count_with_partial_blocks(self, duck, monkeypatch):
        monkeypatch.setattr(montecarlo, "_BATCHED_BLOCKS_PER_PROCESS", 1)
        pools = pool_sizes(monkeypatch)
        sampler = DuckSampler(flat_sampler()) if duck else flat_sampler()
        s = spec(n=630, start=100, kind="proposed", sampler=sampler)
        one = run_campaign(s, workers=1)
        two = run_campaign(s, workers=2)
        assert one.n_samples == 630
        assert one.to_text() == two.to_text()
        assert pools == [2]

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

    def test_merge_of_nothing_rejected(self):
        with pytest.raises(InvalidInputError, match="^nothing to merge$"):
            merge_distributions()

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidInputError, match="negative count -1 for L1 value 2"):
            DiscrepancyDistribution.from_counts({2: -1, 4: 3}, 8)

    def test_record_holds_the_counts_and_the_team_count(self):
        counts = {4: 1, 0: 2, 2: 0}
        d = DiscrepancyDistribution(counts, 8)
        assert DiscrepancyDistribution._fields == ("counts", "n_teams")
        assert tuple(d) == ({0: 2, 4: 1}, 8) and list(d.counts) == [0, 4]
        counts[6] = 5  # the record keeps a dict of its own
        assert d.counts == {0: 2, 4: 1} and d.n_samples == 3
        assert DiscrepancyDistribution.from_counts(counts, 8).n_samples == 8
        with pytest.raises(InvalidInputError, match="^impossible L1 value 1 for n=8$"):
            DiscrepancyDistribution({1: 5}, 8)

    def test_zero_count_changes_neither_equality_nor_text(self):
        with_zero = DiscrepancyDistribution.from_counts({0: 0, 2: 1, 6: 0}, 8)
        without = DiscrepancyDistribution.from_counts({2: 1}, 8)
        assert with_zero == without and with_zero.counts == {2: 1}
        assert with_zero.to_text() == without.to_text()
        assert DiscrepancyDistribution.from_text(with_zero.to_text()) == without

    @pytest.mark.parametrize("n_teams", [1, 0, -3])
    def test_fewer_than_two_teams_rejected(self, n_teams):
        with pytest.raises(InvalidInputError, match=f"at least 2 teams, not {n_teams}"):
            DiscrepancyDistribution.from_counts({0: 1}, n_teams)

    @given(
        st.dictionaries(st.integers(0, 16).map(lambda k: 2 * k), st.integers(0, 400),
                        min_size=1, max_size=17)
        .filter(lambda counts: sum(counts.values()) > 0)
    )
    @example({6: 1})  # n = 1
    @example({10: 5000})  # a single value
    @example({0: 0, 4: 3, 8: 0, 32: 1})  # zero counts around the sample
    @example({0: 99_999, 2: 1, 30: 100_000})  # large counts
    @example({4: 1, 18: 1})  # p95: numpy's b - (b - a)(1 - t) is not a + (b - a)t here
    @settings(max_examples=300, deadline=None)
    def test_summary_equals_numpy_on_the_expanded_sample(self, counts):
        d = DiscrepancyDistribution.from_counts(counts, 8)
        sample = np.repeat(sorted(counts), [counts[v] for v in sorted(counts)])
        p5, p25, p50, p75, p95 = np.percentile(sample, [5, 25, 50, 75, 95])
        assert d.n_samples == sample.size
        assert d.mean == np.mean(sample)
        assert d.median == p50
        assert d.quantiles == (p5, p25, p75, p95)
        assert all(type(x) is float for x in (d.mean, d.median, *d.quantiles))

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
    with pytest.raises(InvalidInputError, match="start_index must be >= 0, not -5"):
        CampaignSpec(
            FormatSpec("proposed"),
            flat_sampler(),
            Ranking.from_order(NAMES8),
            n_tournaments=5,
            master_seed=1,
            start_index=-5,
        )
    # The types of the records it holds, each checked before it is read.
    with pytest.raises(InvalidInputError, match="^format must be a FormatSpec, not 'proposed'$"):
        CampaignSpec("proposed", flat_sampler(), Ranking.from_order(NAMES8), 5, 1)
    places = dict(Ranking.from_order(NAMES8).places)
    with pytest.raises(InvalidInputError, match=r"^truth must be a Ranking, not \{'T0': 1, "):
        CampaignSpec(FormatSpec("proposed"), flat_sampler(), places, 5, 1)


@pytest.mark.parametrize("field, value, match", [
    ("n_tournaments", 2.5, "^n_tournaments must be an integer, not 2.5$"),
    ("n_tournaments", True, "^n_tournaments must be an integer, not True$"),
    ("n_tournaments", "5", "^n_tournaments must be an integer, not '5'$"),
    ("start_index", 0.5, "^start_index must be an integer, not 0.5$"),
    ("master_seed", 1.5, "^master_seed must be an integer, not 1.5$"),
    ("master_seed", False, "^master_seed must be an integer, not False$"),
    ("master_seed", -1, "^master_seed must be >= 0, not -1$"),
])
def test_campaign_spec_reads_integer_fields(field, value, match):
    # Rejected when the spec is built, not in its first block: True would
    # run one tournament, and 2.5 fail inside numpy.
    keyword = {"n_tournaments": "n", "start_index": "start", "master_seed": "seed"}[field]
    with pytest.raises(InvalidInputError, match=match):
        spec(**{keyword: value})


def test_campaign_spec_keeps_integral_fields_as_ints():
    want = run_campaign(spec(n=300, seed=7, start=5))
    got = spec(n=300.0, seed=np.int64(7), start=np.uint8(5))
    assert [type(v) for v in (got.n_tournaments, got.master_seed, got.start_index)] == [int] * 3
    assert (got.n_tournaments, got.master_seed, got.start_index) == (300, 7, 5)
    assert run_campaign(got).to_text() == want.to_text()


@pytest.mark.parametrize("workers", [1.5, True, "2", None])
def test_workers_that_are_not_an_integer_rejected(workers):
    with pytest.raises(InvalidInputError, match=f"^workers must be an integer, not {workers!r}$"):
        run_campaigns([spec(n=5)], workers=workers)


def test_integral_workers_accepted():
    want = run_campaign(spec(n=5)).to_text()
    assert run_campaign(spec(n=5), workers=2.0).to_text() == want
    assert run_campaign(spec(n=5), workers=np.int32(2)).to_text() == want


@pytest.mark.parametrize("counts, match", [
    ({0: 2.5, 2: 1}, "^counts must be integers, not 2.5$"),
    ({0: True, 2: 1}, "^counts must be integers, not True$"),
    ({0: 1, 2: "3"}, "^counts must be integers, not '3'$"),
    ({0.5: 1, 2: 1}, "^L1 values must be integers, not 0.5$"),
    ({True: 1, 2: 1}, "^L1 values must be integers, not True$"),
])
def test_counts_a_histogram_file_cannot_hold_rejected(counts, match):
    with pytest.raises(InvalidInputError, match=match):
        DiscrepancyDistribution.from_counts(counts, 8)


@pytest.mark.parametrize("n_teams", [8.5, "8", None, True])
def test_team_count_that_is_no_integer_rejected(n_teams):
    with pytest.raises(InvalidInputError, match=f"^n_teams must be an integer, not {n_teams!r}$"):
        DiscrepancyDistribution.from_counts({0: 1}, n_teams)


@pytest.mark.parametrize("n_teams", [np.int64(8), 8.0])
def test_integral_team_count_kept_as_an_int(n_teams):
    dist = DiscrepancyDistribution.from_counts({0: 1, 2: 1}, n_teams)
    assert type(dist.n_teams) is int and dist.n_teams == 8
    assert DiscrepancyDistribution.from_text(dist.to_text()) == dist


def test_integral_counts_are_written_and_read_back_as_ints():
    # 0.0 and 2.0 would otherwise be written as "0.0,1", which
    # `from_text` rejects.
    dist = DiscrepancyDistribution.from_counts({0.0: np.int64(1), np.int32(2): 2.0}, 8)
    assert dist.counts == {0: 1, 2: 2}
    assert [type(x) for item in dist.counts.items() for x in item] == [int] * 4
    text = dist.to_text()
    assert text.endswith("l1,count\n0,1\n2,2\n")
    assert DiscrepancyDistribution.from_text(text) == dist
