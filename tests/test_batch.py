"""The batched campaign engine against the scalar engines it must match."""

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
    TeamId,
    TieBreakPolicy,
    derive_rng,
    fixtures,
    rank,
    run_campaign,
    run_format,
    standings_from_games,
)
from tournsim import batch

NAMES8 = [f"T{i}" for i in range(8)]

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


def chain_sampler():
    """The lower index scores 40 a game against a higher one and concedes
    none, so every game has the same winner."""
    return sampler_of(np.triu(np.full((8, 8), 40.0), 1))


class ScalarSampler:
    """A Poisson sampler the batched engine does not recognise, so its
    campaigns run on the scalar engines."""

    def __init__(self, inner):
        self.names = inner.names
        self.backend = inner.backend
        self.sample = inner.sample
        self.sample_many = inner.sample_many


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
            got = batch.play_block(spec, sampler, derive_rng(2), 16)
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
            got = batch.play_block(spec, sampler, derive_rng(4), 16)
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
        assert (batch.play_block(spec, zero_sampler(), derive_rng(6), 4) == want).all()


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
        truth = fixtures.published_truth(year)
        assert batch.supports(fmt, sampler)
        assert not batch.supports(fmt, ScalarSampler(sampler))
        scalar = run_campaign(
            CampaignSpec(fmt, ScalarSampler(sampler), truth, self.N_SCALAR, 11)
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
    """The batched standings and ranking against `standings_from_games`
    and `rank` on the same games, under every tie-break order."""

    POLICIES = [
        TieBreakPolicy(crits + ("seed_order",))
        for k in range(4)
        for crits in itertools.permutations(("points", "goal_difference", "goals_for"), k)
    ]

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: "-".join(p.criteria))
    @pytest.mark.parametrize("groups", [batch.ALL_TEAMS, batch.GROUPS_2012], ids=["all", "2012"])
    def test_same_order_as_scalar_rank(self, policy, groups):
        rows = 300
        rng = np.random.default_rng(21)
        # low scoring, so that points and goals often tie
        goals = rng.poisson(0.7, (rows,) + groups.shape + (groups.shape[1],))
        goals[..., np.arange(groups.shape[1]), np.arange(groups.shape[1])] = 0
        games = batch._Games(FixedGoals(goals), np.zeros((rows, 8, 8)), None)
        got = games.round_robin(groups, policy)
        for r in range(rows):
            for g, members in enumerate(groups):
                played = [
                    GameResult(
                        TeamId(members[a], NAMES8[members[a]]),
                        TeamId(members[b], NAMES8[members[b]]),
                        int(goals[r, g, a, b]), int(goals[r, g, b, a]),
                    )
                    for a in range(len(members)) for b in range(a + 1, len(members))
                ]
                names = [NAMES8[m] for m in members]
                table = standings_from_games(played, names)
                want = rank(table, policy, names, played).order()
                assert [NAMES8[m] for m in got[r, g]] == want


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
        means = np.zeros((self.SLOTS, 8, 8))
        means[:, 0, 1], means[:, 1, 0] = self.HOME, self.AWAY
        games = batch._Games(np.random.default_rng(31), means, decisive)
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
        means = np.zeros((5, 8, 8))
        games = batch._Games(np.random.default_rng(0), means, DecisivePolicy(1, HIGHER_SEED))
        winner, loser = games.knockout(np.array([[5, 2]] * 5), np.array([[3, 6]] * 5))
        assert (winner == [3, 2]).all() and (loser == [5, 6]).all()


class TestSupports:
    def test_fallback_specs(self):
        sampler = PoissonSampler(fixtures.load_goal_model(2012))
        assert batch.supports(FormatSpec("proposed"), sampler)
        assert not batch.supports(FormatSpec("iterated_round_robin"), sampler)
        h2h = TieBreakPolicy(("points", "head_to_head", "seed_order"))
        assert not batch.supports(FormatSpec("proposed", policy=h2h), sampler)
        six = PoissonSampler(PairwiseGoalModel(NAMES8[:6], np.ones((6, 6))))
        assert not batch.supports(FormatSpec("proposed"), six)
        assert not batch.supports(FormatSpec("proposed"), ScalarSampler(sampler))
