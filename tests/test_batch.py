"""The batched campaign engine against the scalar engines it must match."""

import hashlib
import itertools

import numpy as np
import pytest
from scipy import stats

from tournsim import (
    HIGHER_SEED,
    RANDOM_SEEDING,
    UNIFORM_COIN,
    CampaignSpec,
    DecisivePolicy,
    FormatSpec,
    GameResult,
    PairwiseGoalModel,
    PoissonSampler,
    TieBreakPolicy,
    derive_rng,
    fixtures,
    rank,
    run_campaign,
    run_format,
)
from tournsim import batch
from tournsim.formats import _TABLES, BRACKETS, PLAYOFF, RR, _compile, _seed_rows

from duck_sampler import DuckSampler
from reference_ranking import ALL_POLICIES, reference_rank, reference_standings
from samplers import NAMES8, chain_sampler

# (kind, best of three) of every format the batched engine plays.
VARIANTS = [
    ("proposed", False),
    ("proposed", True),
    ("format_2012", False),
    ("format_2013_double_elim", False),
]
VARIANT_IDS = ["proposed", "proposed-bo3", "f2012", "f2013"]

SEEDINGS = [
    None,
    tuple(reversed(NAMES8)),
    (3, 6, 0, 7, 1, 5, 2, 4),
    (5, 2, 7, 1, 0, 4, 6, 3),
    (1, 0, 3, 2, 5, 4, 7, 6),
]


def sampler_of(matrix):
    m = np.array(matrix, dtype=float)
    np.fill_diagonal(m, np.nan)
    return PoissonSampler(PairwiseGoalModel(NAMES8, m))


def zero_sampler():
    """Every game ends 0-0."""
    return sampler_of(np.zeros((8, 8)))


def block(spec, sampler, rng, rows):
    """`play_block` of `rows` tournaments, seeded as a campaign seeds a
    block: by `_seed_rows` on the block's generator, before any game."""
    seeds = _seed_rows(spec.seeding, sampler.names, rng, rows)
    return batch.play_block(spec, sampler, rng, seeds)


def scalar_order(spec, sampler, seed):
    names = list(sampler.names)
    ranking = run_format(spec, sampler, derive_rng(seed), keep_games=False).ranking
    return [names.index(n) for n in ranking.order()]


class TestDeterministicModelsMatchExactly:
    """Where every result is forced, each batched row must be the scalar
    engine's ranking."""

    @pytest.mark.parametrize("kind,bo3", VARIANTS, ids=VARIANT_IDS)
    @pytest.mark.parametrize("seeding", SEEDINGS)
    def test_all_draws_go_to_tie_breaks_and_higher_seed(self, kind, bo3, seeding):
        sampler = zero_sampler()
        for replays in (0, 1):
            spec = FormatSpec(
                kind, best_of_three=bo3, seeding=seeding,
                decisive=DecisivePolicy(replays, HIGHER_SEED),
            )
            want = scalar_order(spec, sampler, 1)
            got = block(spec, sampler, derive_rng(2), 16)
            assert (got == want).all(), (want, got[0])

    @pytest.mark.parametrize("kind,bo3", VARIANTS, ids=VARIANT_IDS)
    @pytest.mark.parametrize("seeding", SEEDINGS)
    @pytest.mark.parametrize("resolution", [UNIFORM_COIN, HIGHER_SEED])
    def test_chain_model(self, kind, bo3, seeding, resolution):
        sampler = chain_sampler()
        for replays in (0, 1):
            spec = FormatSpec(
                kind, best_of_three=bo3, seeding=seeding,
                decisive=DecisivePolicy(replays, resolution),
            )
            want = scalar_order(spec, sampler, 3)
            got = block(spec, sampler, derive_rng(4), 16)
            assert (got == want).all(), (want, got[0])

    def test_tie_break_policy_order_is_followed(self):
        # Under points alone every 0-0 round robin ends in seed order,
        # which both engines must read the same way.
        spec = FormatSpec(
            "format_2012", seeding=SEEDINGS[2],
            decisive=DecisivePolicy(0, HIGHER_SEED),
            policy=TieBreakPolicy(("goals_for", "points", "seed_order")),
        )
        want = scalar_order(spec, zero_sampler(), 5)
        assert (block(spec, zero_sampler(), derive_rng(6), 4) == want).all()

    def test_head_to_head_decides_level_teams(self):
        # Every game is a 40-0 win or a 0-0 draw. Seeds 1 and 2 finish the
        # round robin level on 16 points, behind seed 3 on 17; seed 2 beat
        # seed 1, so it plays the final. Drawn playoffs go to the higher seed.
        beats = {0: [3, 4, 5, 6, 7], 1: [0, 4, 5, 6, 7], 2: [3, 4, 5, 6, 7],
                 3: [1, 4, 5, 6, 7], 4: [5, 6, 7], 5: [6, 7], 6: [7]}
        means = np.zeros((8, 8))
        for i, losers in beats.items():
            means[i, losers] = 40.0
        spec = FormatSpec(
            "proposed", decisive=DecisivePolicy(0, HIGHER_SEED),
            policy=TieBreakPolicy(("points", "head_to_head", "seed_order")),
        )
        want = [1, 2, 0, 3, 4, 5, 6, 7]
        assert scalar_order(spec, sampler_of(means), 7) == want
        assert (block(spec, sampler_of(means), derive_rng(8), 4) == want).all()


def pooled_bins(a: dict, b: dict, min_count=20):
    """Two histograms over shared bins, the rarest values of the upper tail
    pooled until every bin holds at least `min_count` of the two together."""
    values = sorted(set(a) | set(b))
    rows, acc = [], [0, 0]
    for v in reversed(values):
        acc = [acc[0] + a.get(v, 0), acc[1] + b.get(v, 0)]
        if sum(acc) >= min_count:
            rows.append(acc)
            acc = [0, 0]
    if sum(acc):
        rows[-1] = [rows[-1][0] + acc[0], rows[-1][1] + acc[1]]
    return np.array(rows).T


class TestDistributionsMatch:
    """Batched and scalar L1 histograms of the same campaign may differ
    only by chance. Seeds are fixed, so the test is deterministic; p < 1e-3
    is a failure."""

    N_SCALAR = 1500
    N_BATCHED = 15000

    @pytest.mark.parametrize("kind,bo3", VARIANTS, ids=VARIANT_IDS)
    @pytest.mark.parametrize("year", [2012, 2013])
    @pytest.mark.parametrize("replays", [0, 1])
    def test_chi_square(self, kind, bo3, year, replays):
        sampler = PoissonSampler(fixtures.load_goal_model(year))
        fmt = FormatSpec(
            kind, best_of_three=bo3, seeding=RANDOM_SEEDING,
            decisive=DecisivePolicy(max_replays=replays),
        )
        self.check(fmt, sampler, fixtures.published_truth(year))

    @pytest.mark.parametrize("kind", ["proposed", "format_2012"])
    @pytest.mark.parametrize("year", [2012, 2013])
    def test_head_to_head(self, kind, year):
        # Head-to-head decides every tie on points in the round robins.
        sampler = PoissonSampler(fixtures.load_goal_model(year))
        fmt = FormatSpec(
            kind, seeding=RANDOM_SEEDING,
            policy=TieBreakPolicy(("points", "head_to_head", "seed_order")),
        )
        self.check(fmt, sampler, fixtures.published_truth(year))

    def check(self, fmt, sampler, truth):
        assert batch.supports(fmt, sampler)
        assert not batch.supports(fmt, DuckSampler(sampler))
        scalar = run_campaign(
            CampaignSpec(fmt, DuckSampler(sampler), truth, self.N_SCALAR, 11)
        )
        batched = run_campaign(CampaignSpec(fmt, sampler, truth, self.N_BATCHED, 12))
        table = pooled_bins(scalar.counts, batched.counts)
        p = stats.chi2_contingency(table)[1]
        assert p > 1e-3, (p, scalar.mean, batched.mean)


class FixedGoals:
    """Stands in for a generator: `poisson` returns preset goals."""

    def __init__(self, goals):
        self.goals = goals

    def poisson(self, means):
        assert means.shape == self.goals.shape
        return self.goals


class TestRoundRobinStandings:
    """The batched ranking against `rank` under every tie-break order of
    points, goal difference and goals for, and against the reference
    ranker under every tie-break policy, on the same games."""

    POLICIES = [
        TieBreakPolicy(crits + ("seed_order",))
        for k in range(4)
        for crits in itertools.permutations(("points", "goal_difference", "goals_for"), k)
    ]

    # The seed positions of each bracket's round robins, stacked.
    GROUPS = {
        kind: np.array([[p for _, p in teams] for _, stage, teams in stages if stage == RR])
        for kind, (stages, _) in BRACKETS.items()
        if any(stage == RR for _, stage, _ in stages)
    }

    @staticmethod
    def tables(groups, policies):
        """Each policy's batched order of every round robin, and each
        round robin's (row, group, members, games, standings)."""
        rows = 300
        rng = np.random.default_rng(21)
        # low scoring, so that points and goals often tie
        goals = rng.poisson(0.7, (rows,) + groups.shape + (groups.shape[1],))
        goals[..., np.arange(groups.shape[1]), np.arange(groups.shape[1])] = 0
        seeds = np.tile(np.arange(8), (rows, 1))
        games = batch._Games(FixedGoals(goals), np.zeros((8, 8)), seeds, None)
        got = {policy: games.round_robin(groups, policy) for policy in policies}
        cases = []
        for r in range(rows):
            for g, members in enumerate(groups):
                played = [
                    GameResult(NAMES8[members[a]], NAMES8[members[b]],
                               int(goals[r, g, a, b]), int(goals[r, g, b, a]))
                    for a in range(len(members)) for b in range(a + 1, len(members))
                ]
                names = [NAMES8[m] for m in members]
                cases.append((r, g, names, played, reference_standings(played, names)))
        return got, cases

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: "-".join(p.criteria))
    @pytest.mark.parametrize("groups", GROUPS.values(), ids=GROUPS.keys())
    def test_same_order_as_scalar_rank(self, policy, groups):
        got, cases = self.tables(groups, [policy])
        for r, g, names, played, table in cases:
            want = rank(table, policy, names, played).order()
            assert [NAMES8[m] for m in got[policy][r, g]] == want

    @pytest.mark.parametrize("groups", GROUPS.values(), ids=GROUPS.keys())
    def test_same_order_as_reference(self, groups):
        got, cases = self.tables(groups, ALL_POLICIES)
        for r, g, names, played, table in cases:
            for policy in ALL_POLICIES:
                want = reference_rank(table, policy, names, played)
                assert [NAMES8[m] for m in got[policy][r, g]] == want, policy


def skellam(home_mean, away_mean):
    """Probabilities that the home side wins, draws and loses a game."""
    dist = stats.skellam(home_mean, away_mean)
    return dist.sf(0), dist.pmf(0), dist.cdf(-1)


class TestSlotProbabilities:
    """How often the home side of one slot advances, against the exact
    probability from the Skellam distribution of the goal difference."""

    HOME, AWAY = 1.4, 0.9  # mean goals of each side
    SLOTS = 60_000

    def advance_rate(self, method, decisive):
        means = np.zeros((8, 8))
        means[0, 1], means[1, 0] = self.HOME, self.AWAY
        seeds = np.tile(np.arange(8), (self.SLOTS, 1))
        games = batch._Games(np.random.default_rng(31), means, seeds, decisive)
        side = np.zeros((self.SLOTS, 1), dtype=int)
        winner, loser = getattr(games, method)(side, side + 1)
        assert ((winner == 0) ^ (loser == 0)).all()
        return float(np.mean(winner == 0))

    def settle(self, replays):
        """Chance the home side takes a level slot."""
        w, d, _ = skellam(self.HOME, self.AWAY)
        p = 0.5
        for _ in range(replays):
            p = w + d * p
        return p

    def check(self, got, want):
        se = (want * (1 - want) / self.SLOTS) ** 0.5
        assert abs(got - want) < 5 * se, (got, want)

    @pytest.mark.parametrize("replays", [0, 1, 2])
    def test_single_game(self, replays):
        w, d, _ = skellam(self.HOME, self.AWAY)
        got = self.advance_rate("knockout", DecisivePolicy(replays))
        self.check(got, w + d * self.settle(replays))

    @pytest.mark.parametrize("replays", [0, 1])
    def test_two_legs_on_aggregate(self, replays):
        w, d, _ = skellam(2 * self.HOME, 2 * self.AWAY)
        got = self.advance_rate("two_legs", DecisivePolicy(replays))
        self.check(got, w + d * self.settle(replays))

    @pytest.mark.parametrize("replays", [0, 1])
    def test_best_of_three(self, replays):
        game = skellam(self.HOME, self.AWAY)  # win, draw, loss
        want = 0.0
        for results in itertools.product(range(3), repeat=3):
            p = np.prod([game[k] for k in results])
            wins, losses = results[:2].count(0), results[:2].count(2)
            if max(wins, losses) < 2:  # the third game is played
                wins, losses = results.count(0), results.count(2)
            if wins != losses:
                want += p * (wins > losses)
            else:
                want += p * self.settle(replays)
        self.check(self.advance_rate("best_of_three", DecisivePolicy(replays)), want)

    def test_higher_seed_takes_level_slots(self):
        seeds = np.tile(np.arange(8), (5, 1))
        games = batch._Games(np.random.default_rng(0), np.zeros((8, 8)), seeds,
                             DecisivePolicy(1, HIGHER_SEED))
        winner, loser = games.knockout(np.array([[5, 2]] * 5), np.array([[3, 6]] * 5))
        assert (winner == [3, 2]).all() and (loser == [5, 6]).all()

    def test_higher_seed_reads_each_rows_seeding(self):
        # Team 7 is seeded first in row 0 and last in row 1.
        seeds = np.array([[7, 6, 5, 4, 3, 2, 1, 0], list(range(8))])
        games = batch._Games(np.random.default_rng(0), np.zeros((8, 8)), seeds,
                             DecisivePolicy(0, HIGHER_SEED))
        winner, loser = games.knockout(np.array([[7, 2], [7, 2]]), np.array([[0, 5]] * 2))
        assert (winner == [[7, 5], [0, 2]]).all() and (loser == [[0, 2], [7, 5]]).all()


class TestPinnedDraws:
    """Seeded campaigns of every batched variant, pinned to their counts
    under stream layout v2: a change to the batched engine that moves any
    draw fails here. The values assume numpy's
    `Generator` streams for `poisson`, `integers` and `permuted`; a numpy
    release that changes one of those streams changes them too."""

    COUNTS = {
        ("proposed", False, 2012): {0: 35, 2: 130, 4: 148, 6: 138, 8: 37, 10: 10, 12: 2},
        ("proposed", False, 2013): {
            0: 9, 2: 30, 4: 81, 6: 104, 8: 122, 10: 105, 12: 33, 14: 10, 16: 5, 18: 1},
        ("proposed", True, 2012): {0: 57, 2: 127, 4: 163, 6: 112, 8: 31, 10: 10},
        ("proposed", True, 2013): {
            0: 4, 2: 49, 4: 81, 6: 107, 8: 131, 10: 84, 12: 28, 14: 13, 16: 2, 18: 1},
        ("format_2012", False, 2012): {
            0: 24, 2: 54, 4: 99, 6: 144, 8: 111, 10: 50, 12: 15, 14: 3},
        ("format_2012", False, 2013): {
            0: 1, 2: 14, 4: 48, 6: 84, 8: 110, 10: 95, 12: 68, 14: 42, 16: 26, 18: 9,
            20: 3},
        ("format_2013_double_elim", False, 2012): {
            0: 20, 2: 66, 4: 112, 6: 143, 8: 99, 10: 45, 12: 10, 14: 5},
        ("format_2013_double_elim", False, 2013): {
            0: 3, 2: 16, 4: 43, 6: 80, 8: 121, 10: 84, 12: 85, 14: 39, 16: 20, 18: 6,
            20: 2, 22: 1},
    }

    @pytest.mark.parametrize("kind,bo3", VARIANTS, ids=VARIANT_IDS)
    @pytest.mark.parametrize("year", [2012, 2013])
    def test_campaign_counts(self, kind, bo3, year):
        sampler = PoissonSampler(fixtures.load_goal_model(year))
        fmt = FormatSpec(kind, best_of_three=bo3, seeding=RANDOM_SEEDING)
        assert batch.supports(fmt, sampler)
        got = run_campaign(
            CampaignSpec(fmt, sampler, fixtures.published_truth(year), 500, 2014)
        )
        assert got.counts == self.COUNTS[kind, bo3, year]

    # Fixed seeding in truth order, so the higher seed is the stronger team
    # and seed positions differ from team indices.
    DECISIVE = {"replays": DecisivePolicy(max_replays=2),
                "higher_seed": DecisivePolicy(1, HIGHER_SEED)}
    SETTLED_COUNTS = {
        ("replays", "proposed", False, 2012): {
            0: 53, 2: 129, 4: 142, 6: 118, 8: 44, 10: 13, 12: 1},
        ("replays", "proposed", False, 2013): {
            0: 6, 2: 29, 4: 71, 6: 132, 8: 127, 10: 80, 12: 35, 14: 13, 16: 3, 18: 4},
        ("replays", "proposed", True, 2012): {
            0: 79, 2: 120, 4: 152, 6: 97, 8: 42, 10: 10},
        ("replays", "proposed", True, 2013): {
            0: 11, 2: 36, 4: 79, 6: 125, 8: 126, 10: 78, 12: 28, 14: 11, 16: 5, 18: 1},
        ("replays", "format_2012", False, 2012): {
            0: 74, 2: 142, 4: 132, 6: 78, 8: 56, 10: 16, 12: 2},
        ("replays", "format_2012", False, 2013): {
            0: 5, 2: 29, 4: 59, 6: 73, 8: 108, 10: 117, 12: 50, 14: 31, 16: 15, 18: 9,
            20: 1, 22: 2, 24: 1},
        ("replays", "format_2013_double_elim", False, 2012): {
            0: 38, 2: 94, 4: 165, 6: 118, 8: 62, 10: 23},
        ("replays", "format_2013_double_elim", False, 2013): {
            0: 12, 2: 45, 4: 76, 6: 118, 8: 116, 10: 86, 12: 37, 14: 6, 16: 3, 18: 1},
        ("higher_seed", "proposed", False, 2012): {
            0: 59, 2: 128, 4: 146, 6: 113, 8: 40, 10: 13, 12: 1},
        ("higher_seed", "proposed", False, 2013): {
            0: 8, 2: 35, 4: 76, 6: 130, 8: 126, 10: 71, 12: 35, 14: 12, 16: 3, 18: 4},
        ("higher_seed", "proposed", True, 2012): {
            0: 83, 2: 126, 4: 150, 6: 91, 8: 42, 10: 8},
        ("higher_seed", "proposed", True, 2013): {
            0: 13, 2: 38, 4: 79, 6: 130, 8: 120, 10: 81, 12: 22, 14: 11, 16: 5, 18: 1},
        ("higher_seed", "format_2012", False, 2012): {
            0: 69, 2: 156, 4: 114, 6: 92, 8: 47, 10: 19, 12: 3},
        ("higher_seed", "format_2012", False, 2013): {
            0: 4, 2: 31, 4: 59, 6: 76, 8: 111, 10: 110, 12: 53, 14: 31, 16: 14, 18: 6,
            20: 2, 22: 2, 24: 1},
        ("higher_seed", "format_2013_double_elim", False, 2012): {
            0: 45, 2: 99, 4: 166, 6: 133, 8: 44, 10: 11, 12: 2},
        ("higher_seed", "format_2013_double_elim", False, 2013): {
            0: 9, 2: 59, 4: 87, 6: 107, 8: 118, 10: 73, 12: 30, 14: 15, 16: 2},
    }

    @pytest.mark.parametrize("kind,bo3", VARIANTS, ids=VARIANT_IDS)
    @pytest.mark.parametrize("year", [2012, 2013])
    @pytest.mark.parametrize("decisive", DECISIVE)
    def test_settled_campaign_counts(self, kind, bo3, year, decisive):
        sampler = PoissonSampler(fixtures.load_goal_model(year))
        truth = fixtures.published_truth(year)
        fmt = FormatSpec(kind, best_of_three=bo3, seeding=tuple(truth.order()),
                         decisive=self.DECISIVE[decisive])
        assert batch.supports(fmt, sampler)
        got = run_campaign(CampaignSpec(fmt, sampler, truth, 500, 2014))
        assert got.counts == self.SETTLED_COUNTS[decisive, kind, bo3, year]


class TestPinnedBlocks:
    """Final orders of `play_block`, row by row, pinned by one SHA-256 over
    two blocks of every variant under every seeding, 0-2 replays, both
    final resolutions, the default and a head-to-head policy, on both
    models. A change that moves one draw or one place fails here, and
    unlike the histograms of `TestPinnedDraws` no two changes can cancel
    out. The same numpy stream caveat applies."""

    H2H = TieBreakPolicy(("points", "head_to_head", "goal_difference", "seed_order"))
    SHA256 = "015ce1c81269d56c68ca582c113ea111d0e4f7e01d83eec098f0f42055fa8900"

    def test_final_orders(self):
        digest = hashlib.sha256()
        for year in (2012, 2013):
            sampler = PoissonSampler(fixtures.load_goal_model(year))
            truth = tuple(fixtures.published_truth(year).order())
            for (kind, bo3), seeding, replays, resolution, policy in itertools.product(
                    VARIANTS, (RANDOM_SEEDING, None, truth), (0, 1, 2),
                    (UNIFORM_COIN, HIGHER_SEED), (TieBreakPolicy(), self.H2H)):
                fmt = FormatSpec(kind, best_of_three=bo3, seeding=seeding,
                                 decisive=DecisivePolicy(replays, resolution), policy=policy)
                for b in (0, 1):
                    final = block(fmt, sampler, derive_rng(2014, b), 250)
                    digest.update(final.astype("<i8").tobytes())
        assert digest.hexdigest() == self.SHA256


class TestSeeds:
    """Both engines seed by `formats._seed_rows`, and `play_block` plays
    the seeds it is given."""

    @pytest.mark.parametrize("n", [2, 5, 8, 11])
    def test_random_rows_are_consecutive_permutations(self, n):
        # Row r of a block is the r-th one-row draw, and each one-row draw
        # is one `permutation` call. The one rule both engines seed by
        # rests on this property of numpy's generator.
        names = [f"T{i}" for i in range(n)]
        rng, twin, plain = derive_rng(3), derive_rng(3), derive_rng(3)
        rows = _seed_rows(RANDOM_SEEDING, names, rng, 250)
        one_by_one = [_seed_rows(RANDOM_SEEDING, names, twin, 1) for _ in range(250)]
        assert rows.shape == (250, n)
        assert (rows == np.concatenate(one_by_one)).all()
        assert (rows == [plain.permutation(n) for _ in range(250)]).all()
        assert rng.bit_generator.state == twin.bit_generator.state == plain.bit_generator.state

    def test_block_plays_the_seeds_given(self):
        # 0-0 everywhere: each round robin ends in seed order and every
        # playoff goes to the higher seed, so a row finishes as it was
        # seeded. The spec's random seeding is not read: nothing is drawn.
        spec = FormatSpec("proposed", seeding=RANDOM_SEEDING,
                          decisive=DecisivePolicy(0, HIGHER_SEED))
        seeds = _seed_rows(RANDOM_SEEDING, NAMES8, derive_rng(11), 40)
        rng = derive_rng(12)
        state = rng.bit_generator.state
        assert (batch.play_block(spec, zero_sampler(), rng, seeds) == seeds).all()
        assert rng.bit_generator.state == state


class TestSupports:
    def test_fallback_specs(self):
        sampler = PoissonSampler(fixtures.load_goal_model(2012))
        assert batch.supports(FormatSpec("proposed"), sampler)
        assert not batch.supports(FormatSpec("iterated_round_robin"), sampler)
        h2h = TieBreakPolicy(("points", "head_to_head", "seed_order"))
        assert batch.supports(FormatSpec("proposed", policy=h2h), sampler)
        six = PoissonSampler(PairwiseGoalModel(NAMES8[:6], np.ones((6, 6))))
        assert not batch.supports(FormatSpec("proposed"), six)
        assert not batch.supports(FormatSpec("proposed"), DuckSampler(sampler))


@pytest.mark.parametrize("kind, stage, refs", [
    ("proposed", 0, [("seeds", 1), ("seeds", 0), *(("seeds", p) for p in range(2, 8))]),
    ("format_2012", 1, [("groupA-", p) for p in range(4)]),
])
def test_round_robin_not_of_seeds_in_order_rejected(kind, stage, refs):
    # The engine reads a round robin's teams off the seeding in seed order.
    stages, places = BRACKETS[kind]
    label, _, _ = stages[stage]
    changed = [*stages[:stage], (label, RR, refs), *stages[stage + 1:]]
    compiled, _, _ = _compile(changed, places, False)
    with pytest.raises(ValueError, match=f"^round robin '{label}' must be played by seeds "
                                         "in seed order$"):
        batch._calls(compiled, len(places))


@pytest.mark.parametrize("key", list(_TABLES), ids=lambda key: f"{key[0]}-{key[1]}")
def test_plans_group_the_compiled_stages(key):
    # Every compiled stage is played once, in order, by a call that reads
    # no column it writes; the playoff kind is resolved before either
    # engine sees it.
    stages, places, width = _TABLES[key]
    calls, plan_places, plan_width = batch._PLANS[key]
    assert [(kind, tuple(t), tuple(y)) for kind, teams, yields in calls
            for t, y in zip(teams.tolist(), yields.tolist())] == [
        (kind, teams, yields) for kind, _, teams, yields in stages]
    for _, teams, yields in calls:
        assert not set(teams.flat) & set(yields.flat)
    assert PLAYOFF not in {kind for kind, *_ in stages}
    assert plan_places.tolist() == list(places) and plan_width == width
