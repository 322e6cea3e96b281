"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS line on
success (pytest -v contributes the FAIL line when an assertion trips).
"""

import random

import numpy as np
import pytest

from tournsim import (
    CampaignSpec,
    DecisivePolicy,
    FormatSpec,
    RANDOM_SEEDING,
    Ranking,
    PoissonSampler,
    derive_rng,
    l1_distance,
    run_campaign,
    run_format,
)
from tournsim import fixtures, montecarlo

from pools import pool_sizes
from samplers import oracle

SEED = 20122013


def report(label):
    print(f"PASS {label}")


class TestCriterion1DiscreteReconstruction:
    def test_exact_discrete_points_and_rankings(self):
        for year, points, truth in (
            (2012, (19, 19, 10, 12, 6, 0, 13, 3), fixtures.R_D_2012),
            (2013, (21, 18, 11, 1, 7, 11, 1, 10), fixtures.R_D_2013),
        ):
            model = fixtures.load_goal_model(year)
            table, r = fixtures.discrete_fixture_standings(model)
            got = tuple(int(table[n].points) for n in model.names)
            assert got == points, f"{year} discrete points mismatch: {got}"
            assert r.places == truth.places, f"{year} discrete ranking mismatch"
        # the 2012 co-leaders split on goal difference, not seed order
        table, _ = fixtures.discrete_fixture_standings(fixtures.load_goal_model(2012))
        assert table["Wright"].points == table["Helios"].points
        assert table["Wright"].goal_difference > table["Helios"].goal_difference
        report("criterion-1 discrete points and rankings exact (tie-break incl.)")


class TestCriterion2ContinuousReconstruction:
    def test_continuous_totals_and_ranking(self):
        tol = 5e-4
        expected = {
            2012: (18.152, 18.899, 9.999, 10.291, 7.800, 0.377, 12.105, 2.973),
            2013: (18.308, 16.937, 9.434, 3.713, 8.371, 9.543, 4.416, 8.408),
        }
        for year, truth in ((2012, fixtures.R_C_2012), (2013, fixtures.R_C_2013)):
            model = fixtures.load_goal_model(year)
            table, r = fixtures.continuous_fixture_standings(
                model, fixtures.load_points_model(year)
            )
            for name, want in zip(model.names, expected[year]):
                got = table[name].points
                assert abs(got - want) <= tol, f"{year} {name}: {got} vs {want}"
            assert r.places == truth.places, f"{year} continuous ranking mismatch"
        report(f"criterion-2 continuous totals within {tol} and rankings exact")


class TestCriterion3RankingDistances:
    def test_six_published_distances(self):
        cases = [
            (fixtures.R_A_2012, fixtures.R_C_2012, 12),
            (fixtures.R_A_2013, fixtures.R_C_2013, 12),
            (fixtures.R_A_2013, fixtures.R_D_2013, 10),
            (fixtures.R_P_2012, fixtures.R_C_2012, 4),
            (fixtures.R_P_2013, fixtures.R_C_2013, 6),
            (fixtures.R_P_2013, fixtures.R_D_2013, 4),
        ]
        for a, b, want in cases:
            assert l1_distance(a, b) == want
        report("criterion-3 all six published L1 distances exact")


class TestCriterion4FormatOrdering:
    def test_mean_discrepancy_ordering_on_both_models(self):
        n = 10_000
        decisive = DecisivePolicy(max_replays=0)
        for year in (2012, 2013):
            model = fixtures.load_goal_model(year)
            sampler = PoissonSampler(model)
            truth = fixtures.published_truth(year)
            means = {}
            ses = {}
            for kind in ("proposed", "format_2012", "format_2013_double_elim"):
                dist = run_campaign(
                    CampaignSpec(
                        format=FormatSpec(
                            kind, decisive=decisive, seeding=RANDOM_SEEDING
                        ),
                        sampler=sampler,
                        truth=truth,
                        n_tournaments=n,
                        master_seed=SEED,
                    )
                )
                means[kind] = dist.mean
                ses[kind] = dist.std_error
            order = ("proposed", "format_2012", "format_2013_double_elim")
            for better, worse in zip(order, order[1:]):
                gap = means[worse] - means[better]
                se = (ses[better] ** 2 + ses[worse] ** 2) ** 0.5
                assert gap > 3 * se, (
                    f"{year}: {better} ({means[better]:.3f}) not separated from "
                    f"{worse} ({means[worse]:.3f}); gap {gap:.3f}, 3SE {3 * se:.3f}"
                )
        report(
            "criterion-4 proposed < hybrid-2012 < double-elim-2013 mean "
            "discrepancy on both models (gaps > 3 SE, n=10000 each)"
        )


class TestCriterion5StructuralInvariants:
    def test_structural_suite(self):
        sampler = PoissonSampler(fixtures.load_goal_model(2012))
        names = set(sampler.names)
        violations = 0
        runs_per_format = 1000
        specs = {
            "format_2012": (20, 20),
            "format_2013_double_elim": (16, 16),
            "proposed": (32, 32),
            "proposed-bo3": (36, 40),
        }
        for label, (lo, hi) in specs.items():
            spec = FormatSpec(
                label.replace("-bo3", ""),
                best_of_three=label.endswith("bo3"),
                seeding=RANDOM_SEEDING,
            )
            for k in range(runs_per_format):
                out = run_format(spec, sampler, derive_rng(SEED, 100, k))
                if not lo <= out.games_total <= hi:
                    violations += 1
                if len(out.games) != out.games_total:
                    violations += 1
                if set(out.ranking.places) != names:
                    violations += 1
                if sorted(out.ranking.places.values()) != list(range(1, 9)):
                    violations += 1
                if spec.kind == "format_2013_double_elim":
                    violations += _loss_violations(out)
                if spec.kind == "proposed":
                    violations += _swap_violations(out)
        assert violations == 0
        report(
            f"criterion-5 structural invariants: 0 violations over "
            f"{runs_per_format} runs per format"
        )


def _loss_violations(out):
    losses = {}
    for e in out.games:
        if e.winner is None or e.stage.startswith("class-"):
            continue
        loser = (
            e.result.away if e.winner == e.result.home else e.result.home
        )
        losses[loser] = losses.get(loser, 0) + 1
    order = out.ranking.order()
    bad = 0
    if losses.get(order[0], 0) > 1:
        bad += 1
    if losses.get(order[1], 0) not in (1, 2):
        bad += 1
    bad += sum(1 for name in order[2:] if losses.get(name, 0) != 2)
    return bad


def _swap_violations(out):
    playoffs = [e for e in out.games if not e.stage.startswith("rr-")]
    bad = 0
    for e in playoffs:
        pa = out.ranking[e.result.home]
        pb = out.ranking[e.result.away]
        # each playoff pairs two teams that end in the same bracket of two
        if {pa, pb} not in ({1, 2}, {3, 4}, {5, 6}, {7, 8}):
            bad += 1
    return bad


class TestCriterion6MetricProperties:
    def test_distance_is_an_even_bounded_metric(self):
        rnd = random.Random(SEED)
        for _ in range(10_000):
            n = rnd.randint(2, 12)
            names = [f"T{i}" for i in range(n)]
            orders = []
            for _ in range(3):
                o = names[:]
                rnd.shuffle(o)
                orders.append(Ranking.from_order(o))
            a, b, c = orders
            d = l1_distance(a, b)
            assert d >= 0
            assert d % 2 == 0
            assert d <= n * n // 2
            assert d == l1_distance(b, a)
            assert (d == 0) == (a.places == b.places)
            assert l1_distance(a, c) <= d + l1_distance(b, c)
        report("criterion-6 metric, parity, and bound properties over 10000 samples")


class TestCriterion7OracleStability:
    def test_high_n_round_robin_is_reproducible_truth(self):
        sampler = PoissonSampler(fixtures.load_goal_model(2012))
        identical = 0
        for k in range(100):
            r1 = run_format(
                oracle(1000), sampler, derive_rng(SEED, 2 * k), keep_games=False
            ).ranking
            r2 = run_format(
                oracle(1000), sampler, derive_rng(SEED, 2 * k + 1), keep_games=False
            ).ranking
            if r1.places == r2.places:
                identical += 1
        assert identical >= 95, f"only {identical}/100 oracle pairs agreed"

        # convergence: more games per pairing means smaller discrepancy
        truth = fixtures.R_C_2012
        stats = {}
        for gpp in (1, 100):
            ds = [
                l1_distance(
                    run_format(
                        oracle(gpp), sampler, derive_rng(SEED, 3, gpp, k), keep_games=False
                    ).ranking,
                    truth,
                )
                for k in range(1000)
            ]
            arr = np.asarray(ds, dtype=float)
            stats[gpp] = (arr.mean(), arr.std(ddof=1) / len(arr) ** 0.5)
        gap = stats[1][0] - stats[100][0]
        se = (stats[1][1] ** 2 + stats[100][1] ** 2) ** 0.5
        assert gap > 3 * se, f"convergence gap {gap:.3f} not above 3SE {3 * se:.3f}"
        report(
            f"criterion-7 oracle stability {identical}/100 pairs identical "
            f"(>=95) and discrepancy shrinks with games per pairing"
        )


class TestCriterion8ParallelReproducibility:
    def test_histograms_byte_identical_across_worker_counts(self, monkeypatch):
        # Two batched blocks pay for a pool, so the 2 blocks start one.
        monkeypatch.setattr(montecarlo, "_BATCHED_BLOCKS_PER_PROCESS", 1)
        pools = pool_sizes(monkeypatch)
        spec = CampaignSpec(
            format=FormatSpec(
                "format_2013_double_elim",
                decisive=DecisivePolicy(max_replays=0),
                seeding=RANDOM_SEEDING,
            ),
            sampler=PoissonSampler(fixtures.load_goal_model(2013)),
            truth=fixtures.R_C_2013,
            n_tournaments=400,
            master_seed=SEED,
        )
        one = run_campaign(spec, workers=1).to_text()
        two = run_campaign(spec, workers=2).to_text()
        assert one == two
        assert one.encode() == two.encode()
        assert pools == [2]
        report("criterion-8 campaign output byte-identical for 1 and 2 workers")
