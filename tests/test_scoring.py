import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tournsim import (
    FormatSpec,
    GameResult,
    IngestionError,
    InvalidComparisonError,
    InvalidInputError,
    InvalidPairingError,
    PairwiseGoalModel,
    Ranking,
    TieBreakPolicy,
    l1_distance,
    rank,
    round_robin_totals,
    standings_from_games,
)
from tournsim import fixtures
from tournsim.scoring import (
    TeamStats,
    game_points,
    league_table,
    points_matrix,
    round_half_away,
)

from reference_ranking import ALL_POLICIES, points_per_game, reference_rank, reference_standings


def game(a, b, ga, gb):
    return GameResult(a, b, ga, gb)


def models(year):
    """The bundled goal and points models of `year`."""
    return fixtures.load_goal_model(year), fixtures.load_points_model(year)


@pytest.mark.parametrize(
    "score,expected",
    [((2, 1), (3, 0)), ((0, 0), (1, 1)), ((1, 4), (0, 3))],
)
def test_points_per_game(score, expected):
    assert points_per_game(game("A", "B", *score)) == expected


@pytest.mark.parametrize(
    "means,goals,points",
    [((1.9, 1.2), (2, 1), (3, 0)), ((0.46, 0.56), (0, 1), (0, 3)), ((0.5, 0.5), (1, 1), (1, 1))],
)
def test_discrete_scheme_rounds_each_mean_half_away(means, goals, points):
    model = PairwiseGoalModel(["A", "B"], [[0, means[0]], [means[1], 0]])
    table, _ = fixtures.discrete_fixture_standings(model)
    assert (table["A"].goals_for, table["B"].goals_for) == goals
    assert (table["A"].points, table["B"].points) == points


def test_game_points_by_hand():
    goals_for = np.array([[0, 1, 2], [3, 0, 1], [2, 2, 5]])
    goals_against = np.array([[0, 2, 1], [3, 4, 0], [1, 2, 0]])
    assert game_points(goals_for, goals_against).tolist() == [[1, 0, 3], [1, 0, 3], [3, 1, 3]]


def test_round_half_away_is_exact_on_integer_totals():
    totals = np.arange(201)
    for k in range(1, 51):
        # Fraction rounds halves to even; halves up is floor(x + 1/2).
        want = [math.floor(Fraction(t, k) + Fraction(1, 2)) for t in range(201)]
        assert round_half_away(totals, k).tolist() == want
        assert [round_half_away(t, k) for t in range(201)] == want
    assert round_half_away(totals, 7).dtype == np.int64


@pytest.mark.parametrize("x", [0.5, 1.5, 2.5, 0.49999999999999994, 999999.5, 1e6])
def test_round_half_away_on_floats_is_floor_of_x_plus_half(x):
    assert round_half_away(x) == math.floor(x + 0.5)
    rounded = round_half_away(np.array([x]))
    assert rounded.dtype == np.int64 and rounded.tolist() == [math.floor(x + 0.5)]


@st.composite
def round_robins(draw):
    """Goals of complete round robins, shape (rows, n, n), zero diagonal."""
    n, rows = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    goals = draw(hnp.arrays(np.int64, (rows, n, n), elements=st.integers(0, 6)))
    goals[:, np.arange(n), np.arange(n)] = 0
    return goals


@settings(max_examples=200)
@given(goals=round_robins())
def test_round_robin_totals_equal_reference_standings(goals):
    n = goals.shape[-1]
    teams = [f"T{i}" for i in range(n)]
    totals = np.stack(round_robin_totals(goals, points_matrix(goals)), -1)
    for r, g in enumerate(goals):
        table = reference_standings(
            GameResult(teams[i], teams[j], int(g[i, j]), int(g[j, i]))
            for i, j in itertools.combinations(range(n), 2)
        )
        want = [[table[t].points, table[t].goals_for, table[t].goals_against]
                for t in teams]
        assert totals[r].tolist() == want


class TestContinuousPoints:
    def test_wright_2012_total(self):
        table, _ = fixtures.continuous_fixture_standings(*models(2012))
        assert table["Wright"].points == pytest.approx(18.899, abs=5e-4)

    def test_aut_2012_total(self):
        table, _ = fixtures.continuous_fixture_standings(*models(2012))
        assert table["AUT"].points == pytest.approx(0.377, abs=5e-4)

    def test_equals_per_game_points_mean(self):
        # continuous total == (1/N) * sum of per-game points when every
        # pairing has exactly N games
        rnd = random.Random(4)
        n_teams = 4
        n_games = 5
        total = np.zeros(n_teams)
        per_opp = np.zeros((n_teams, n_teams))
        for x, y in itertools.combinations(range(n_teams), 2):
            for _ in range(n_games):
                px, py = points_per_game(game("A", "B", rnd.randint(0, 4), rnd.randint(0, 4)))
                total[x] += px
                total[y] += py
                per_opp[x, y] += px / n_games
                per_opp[y, x] += py / n_games
        points, _, _ = round_robin_totals(np.zeros((n_teams, n_teams)), per_opp)
        assert points == pytest.approx(total / n_games)

    # float.hex of every team's points, goals for and goals against. Ties
    # must not depend on summation order, so float tables keep np.sum; an
    # integer-only reduction that reached them would move a last bit here.
    TOTALS_HEX = {
        2012: {
            "Helios": ("0x1.226e978d4fdf4p+4", "0x1.d800000000001p+4", "0x1.c000000000001p+1"),
            "Wright": ("0x1.2e624dd2f1aa0p+4", "0x1.6000000000000p+5", "0x1.5333333333333p+2"),
            "Marlik": ("0x1.3ff7ced916872p+3", "0x1.d70a3d70a3d71p+2", "0x1.c3d70a3d70a3ep+2"),
            "Gliders": ("0x1.494fdf3b645a2p+3", "0x1.a1eb851eb851ep+3", "0x1.351eb851eb852p+3"),
            "GDUT": ("0x1.f333333333333p+2", "0x1.8cccccccccccdp+3", "0x1.2666666666666p+4"),
            "AUT": ("0x1.820c49ba5e354p-2", "0x1.4cccccccccccdp+0", "0x1.44ccccccccccdp+5"),
            "Yushan": ("0x1.835c28f5c28f6p+3", "0x1.6cccccccccccdp+4", "0x1.04cccccccccccp+4"),
            "RobOTTO": ("0x1.7c8b439581063p+1", "0x1.6666666666667p+2", "0x1.1999999999999p+5"),
        },
        2013: {
            "Wright": ("0x1.24ed916872b02p+4", "0x1.b4ccccccccccep+4", "0x1.3333333333332p+2"),
            "Helios": ("0x1.0efdf3b645a1dp+4", "0x1.219999999999ap+4", "0x1.999999999999bp+1"),
            "Yushan": ("0x1.2de353f7ced92p+3", "0x1.3333333333334p+3", "0x1.5cccccccccccdp+3"),
            "Axiom": ("0x1.db4395810624dp+1", "0x1.5333333333333p+2", "0x1.3cccccccccccdp+4"),
            "Gliders": ("0x1.0bdf3b645a1cbp+3", "0x1.099999999999ap+3", "0x1.4999999999999p+3"),
            "Oxsy": ("0x1.31604189374bcp+3", "0x1.5333333333334p+3", "0x1.999999999999ap+3"),
            "AUT": ("0x1.1a9fbe76c8b44p+2", "0x1.4000000000000p+2", "0x1.3000000000000p+4"),
            "Cyrus": ("0x1.0d0e560418937p+3", "0x1.1666666666666p+3", "0x1.8333333333334p+3"),
        },
    }

    @pytest.mark.parametrize("year", [2012, 2013])
    def test_totals_pinned_to_the_last_bit(self, year):
        table, _ = fixtures.continuous_fixture_standings(*models(year))
        got = {team: (s.points.hex(), s.goals_for.hex(), s.goals_against.hex())
               for team, s in table.items()}
        assert got == self.TOTALS_HEX[year]


def two_team_points(a, b):
    """The continuous league table of a two-team model whose points table
    gives A a mean of `a` points against B, and B `b` against A."""
    goals = PairwiseGoalModel(["A", "B"], [[0, 1.2], [0.4, 0]])
    return fixtures.continuous_fixture_standings(
        goals, PairwiseGoalModel(["A", "B"], [[0, a], [b, 0]]))


class TestPointsTableBounds:
    @pytest.mark.parametrize("a,b", [(3.0, 0.0), (1.0, 1.0), (1.0, 0.995), (1.5, 1.505)])
    def test_possible_points_accepted(self, a, b):
        table, _ = two_team_points(a, b)
        assert (table["A"].points, table["B"].points) == (a, b)

    @pytest.mark.parametrize("a,b", [(7.0, 5.0), (3.5, 0.0), (0.0, 3.5)])
    def test_cell_above_three_named(self, a, b):
        # A cell above 3 is named before the pair sum it breaks too.
        row, column, cell = ("A", "B", a) if a > 3 else ("B", "A", b)
        with pytest.raises(IngestionError) as info:
            two_team_points(a, b)
        assert str(info.value) == f"row {row!r}, column {column!r}: mean points {cell} above 3"

    @pytest.mark.parametrize("a,b", [(1.0, 0.98), (0.0, 0.0), (1.5, 1.52), (2.0, 1.5)])
    def test_pair_sum_outside_two_to_three_named(self, a, b):
        with pytest.raises(IngestionError) as info:
            two_team_points(a, b)
        assert str(info.value) == (
            f"row 'A', column 'B': mean points {a} and {b} of the pair sum outside 2..3")


class TestDiscreteStandings:
    def test_2012_points_column(self):
        model = fixtures.load_goal_model(2012)
        table, _ = fixtures.discrete_fixture_standings(model)
        assert tuple(int(table[n].points) for n in model.names) == (
            19, 19, 10, 12, 6, 0, 13, 3,
        )

    def test_2013_points_column(self):
        model = fixtures.load_goal_model(2013)
        table, _ = fixtures.discrete_fixture_standings(model)
        assert tuple(int(table[n].points) for n in model.names) == (
            21, 18, 11, 1, 7, 11, 1, 10,
        )

    def test_forced_draw(self):
        goals = np.array([[0, 1], [1, 0]])
        points, _, _ = round_robin_totals(goals, points_matrix(goals))
        assert points.tolist() == [1, 1]

    def test_total_points_identity(self):
        # 3 per decisive pairing, 2 per drawn one, in every row of a batch
        goals = np.random.default_rng(11).integers(0, 4, (20, 6, 6))
        goals[:, np.arange(6), np.arange(6)] = 0
        drawn = np.triu(goals == goals.swapaxes(1, 2), 1).sum((1, 2))
        points, _, _ = round_robin_totals(goals, points_matrix(goals))
        assert points.sum(1).tolist() == (3 * (15 - drawn) + 2 * drawn).tolist()


@st.composite
def ranked_tables(draw):
    """Standings and games of a round robin of 1-3 games a pair, with
    integer totals or float per-game means, a seed order, and the goal and
    points matrices the games sum to, of float dtype with the float means."""
    n, k = draw(st.integers(2, 8)), draw(st.integers(1, 3))
    names = [f"T{i}" for i in range(n)]
    games = [
        GameResult(names[i], names[j], draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        for i, j in itertools.combinations(range(n), 2)
        for _ in range(k)
    ]
    table = reference_standings(games, names)
    goals, points = np.zeros((2, n, n), dtype=np.int64)
    for g in games:
        i, j = names.index(g.home), names.index(g.away)
        goals[i, j] += g.home_goals
        goals[j, i] += g.away_goals
        home_points, away_points = points_per_game(g)
        points[i, j] += home_points
        points[j, i] += away_points
    if draw(st.booleans()):
        table = {t: TeamStats(s.points / k, s.goals_for / k, s.goals_against / k)
                 for t, s in table.items()}
        # Sums over games, not per-game means: thirds do not add up
        # exactly in floats, and a tie could then split on a last bit.
        goals, points = goals.astype(float), points.astype(float)
    return table, games, draw(st.none() | st.permutations(names)), (goals, points)


@settings(max_examples=200)
@given(case=ranked_tables())
def test_rank_equals_reference_under_every_policy(case):
    table, games, seed_order, matrices = case
    # league_table seeds in the order of its names: the matrices follow.
    names = list(seed_order or table)
    seat = [list(table).index(t) for t in names]
    goals, points = (m[np.ix_(seat, seat)] for m in matrices)
    totals = reference_standings(games, names)
    for policy in ALL_POLICIES:
        want = reference_rank(table, policy, seed_order, games)
        assert rank(table, policy, seed_order, games).order() == want, policy
        standings, ranking = league_table(names, goals, points, policy)
        assert standings == totals
        assert ranking.order() == reference_rank(totals, policy, names, games), policy


# Teams of drawn games; a team list, or a seed order, may leave some out.
POOL = [f"T{i}" for i in range(6)]


@st.composite
def game_lists(draw):
    """Games among the POOL teams, a pair any number of times either way
    round, and the teams a table lists first (None, or some of them)."""
    games = draw(st.lists(
        st.tuples(st.sampled_from(POOL), st.sampled_from(POOL), st.integers(0, 3),
                  st.integers(0, 3)).filter(lambda g: g[0] != g[1]).map(lambda g: GameResult(*g)),
        max_size=24))
    return games, draw(st.none() | st.lists(st.sampled_from(POOL), unique=True))


@settings(max_examples=100)
@given(case=game_lists(), data=st.data())
def test_standings_and_rank_equal_the_reference(case, data):
    games, teams = case
    table = standings_from_games(games, teams)
    want = reference_standings(games, teams)
    assert list(table) == list(want) and table == want
    # Ranked: some of the teams, some of whose games are with teams left out.
    group = data.draw(st.lists(st.sampled_from(POOL), unique=True, min_size=1))
    standings = {name: want.get(name, TeamStats()) for name in group}
    seed_order = data.draw(st.none() | st.permutations(group))
    for policy in ALL_POLICIES:
        assert (rank(standings, policy, seed_order, games).order()
                == reference_rank(standings, policy, seed_order, games)), policy


class TestRank:
    def test_rd_2012_with_goal_diff_tiebreak(self):
        table, r = fixtures.discrete_fixture_standings(fixtures.load_goal_model(2012))
        assert r.places == fixtures.R_D_2012.places
        # the tie-break separates Wright (+39) from Helios
        assert table["Wright"].points == table["Helios"].points == 19
        assert table["Wright"].goal_difference == 39

    def test_rc_2013_oxsy_third_yushan_fourth(self):
        _, r = fixtures.continuous_fixture_standings(*models(2013))
        assert r["Oxsy"] == 3 and r["Yushan"] == 4
        assert r.places == fixtures.R_C_2013.places

    def test_degenerate_tie_falls_to_seed_order(self):
        table = {t: TeamStats(points=5, goals_for=2, goals_against=2) for t in "ABCD"}
        r = rank(table, seed_order=["C", "A", "D", "B"])
        assert r.order() == ["C", "A", "D", "B"]

    def test_rescaling_invariance(self):
        rnd = random.Random(2)
        for _ in range(50):
            table = {
                f"T{i}": TeamStats(
                    points=rnd.randint(0, 21),
                    goals_for=rnd.randint(0, 30),
                    goals_against=rnd.randint(0, 30),
                )
                for i in range(8)
            }
            base = rank(table, seed_order=sorted(table))
            scaled = {
                t: TeamStats(s.points * 7.5, s.goals_for, s.goals_against)
                for t, s in table.items()
            }
            assert rank(scaled, seed_order=sorted(table)).places == base.places

    def test_head_to_head_criterion(self):
        games = [
            game("A", "B", 1, 0),
            game("B", "C", 1, 0),
            game("C", "A", 2, 0),
        ]
        table = standings_from_games(games)
        policy = TieBreakPolicy(("points", "head_to_head", "goal_difference", "seed_order"))
        # all on 3 points; head-to-head among the tied trio is also cyclic,
        # so goal difference decides: C (+1), A (-1)... C 2-1, A 1-2, B 1-1
        r = rank(table, policy, seed_order=["A", "B", "C"], games=games)
        assert r.order() == ["C", "B", "A"]

    def test_games_are_read_as_game_results_read_them(self):
        # A game's four fields in any sequence are read into a GameResult:
        # an integral goal is kept as an int, and self-play is rejected.
        games = [game("A", "B", 1, 0), game("B", "C", 1, 0), game("C", "A", 2, 0)]
        fields = [list(games[0]), ("B", "C", 1.0, np.int64(0)), np.array(games[2], dtype=object)]
        policy = TieBreakPolicy(("points", "head_to_head", "goal_difference", "seed_order"))
        table = standings_from_games(fields, np.array(["C", "B"]))
        assert list(table) == ["C", "B", "A"] and table == standings_from_games(games)
        assert rank(table, policy, ("A", "B", "C"), fields).order() == ["C", "B", "A"]
        with pytest.raises(InvalidPairingError, match="^a team cannot play itself$"):
            standings_from_games([("A", "A", 1, 0)])

    def test_seed_order_must_list_every_team_once(self):
        table = {t: TeamStats() for t in "ABC"}
        for seed_order in (["A", "B"], ["A", "B", "B"], ["A", "B", "D"]):
            with pytest.raises(InvalidInputError, match="seed_order"):
                rank(table, seed_order=seed_order)

    def test_policy_validation(self):
        with pytest.raises(InvalidInputError):
            TieBreakPolicy(("points", "points", "seed_order"))
        with pytest.raises(InvalidInputError):
            TieBreakPolicy(("points", "goal_difference"))

    def test_criteria_kept_as_a_tuple_of_their_own(self):
        criteria = ["points", "seed_order"]
        policy = TieBreakPolicy(criteria)
        criteria.insert(0, "bogus")
        assert policy.criteria == ("points", "seed_order")
        assert policy == TieBreakPolicy(("points", "seed_order"))
        hash(FormatSpec("proposed", policy=policy))

    @pytest.mark.parametrize("criteria", ["seed_order", {"points", "seed_order"}, None])
    def test_criteria_not_in_a_sequence_rejected(self, criteria):
        # A string would be read a letter at a time, and a set's order
        # varies between runs.
        with pytest.raises(InvalidInputError, match="^criteria must be a sequence of criterion "
                                                    f"names, not {re.escape(repr(criteria))}$"):
            TieBreakPolicy(criteria)

    @pytest.mark.parametrize("criteria, match", [
        ((), "^criteria must end with seed_order$"),
        ((["points"], "seed_order"), r"^unknown criterion \['points'\]$"),
    ])
    def test_criteria_rejected_with_an_input_error(self, criteria, match):
        with pytest.raises(InvalidInputError, match=match):
            TieBreakPolicy(criteria)

    def test_criteria_of_an_array_kept(self):
        policy = TieBreakPolicy(np.array(["points", "seed_order"]))
        assert policy == TieBreakPolicy(("points", "seed_order"))

    def test_unknown_criterion_rejected(self):
        with pytest.raises(InvalidInputError, match="^unknown criterion 'wins'$"):
            TieBreakPolicy(("points", "wins", "seed_order"))

    def test_order_naming_a_team_twice_rejected(self):
        with pytest.raises(InvalidInputError, match="team 'B' is listed more than once"):
            Ranking.from_order(["A", "B", "C", "B"])

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from("ABCDEFGHIJ"), max_size=10))
    def test_from_order_builds_a_checked_ranking(self, names):
        # from_order skips the constructor's check; every Ranking it returns
        # must pass it, and a repeated name is named as before.
        repeated = [name for name in names if names.count(name) > 1]
        if repeated:
            with pytest.raises(InvalidInputError,
                               match=f"^team {repeated[0]!r} is listed more than once$"):
                Ranking.from_order(names)
            return
        ranking = Ranking.from_order(names)
        assert Ranking(dict(ranking.places)) == ranking
        assert ranking.order() == names


class TestL1Distance:
    def test_golden_2012(self):
        assert l1_distance(fixtures.R_A_2012, fixtures.R_C_2012) == 12

    def test_identity(self):
        assert l1_distance(fixtures.R_C_2013, fixtures.R_C_2013) == 0

    def test_full_reversal_of_8(self):
        a = Ranking.from_order([f"T{i}" for i in range(8)])
        b = Ranking.from_order([f"T{i}" for i in reversed(range(8))])
        # direct summation of |i - (9 - i)| over i = 1..8
        assert l1_distance(a, b) == sum(abs(i - (9 - i)) for i in range(1, 9)) == 32

    def test_mismatched_teams_rejected(self):
        a = Ranking.from_order(["A", "B"])
        b = Ranking.from_order(["A", "C"])
        with pytest.raises(InvalidComparisonError):
            l1_distance(a, b)

    def test_metric_and_parity_properties(self):
        rnd = random.Random(8)
        for _ in range(2000):
            n = rnd.randint(2, 12)
            names = [f"T{i}" for i in range(n)]
            perms = []
            for _ in range(3):
                order = names[:]
                rnd.shuffle(order)
                perms.append(Ranking.from_order(order))
            a, b, c = perms
            dab = l1_distance(a, b)
            assert dab >= 0
            assert dab % 2 == 0
            assert dab <= n * n // 2
            assert dab == l1_distance(b, a)
            assert (dab == 0) == (a.places == b.places)
            assert l1_distance(a, c) <= dab + l1_distance(b, c)
            # relabeling both rankings by one permutation changes nothing
            relabel = dict(zip(names, rnd.sample(names, n)))
            ra = Ranking({relabel[t]: p for t, p in a.places.items()})
            rb = Ranking({relabel[t]: p for t, p in b.places.items()})
            assert l1_distance(ra, rb) == dab


def test_ranking_must_be_permutation():
    with pytest.raises(InvalidInputError):
        Ranking({"A": 1, "B": 1})


def test_ranking_keeps_its_own_copy_of_the_places():
    # A later change to the caller's mapping would leave a ranking that is
    # no permutation.
    places = {"A": 1, "B": 2}
    ranking = Ranking(places)
    places["A"] = 5
    assert ranking.places == {"A": 1, "B": 2}
    assert l1_distance(ranking, Ranking.from_order(("A", "B"))) == 0


@pytest.mark.parametrize("places, match", [
    ([("A", 1), ("B", 2)], r"^places must be a mapping of team to place, not \[\('A', 1\)"),
    ({"A": True, "B": 2}, "^places must be integers, not True$"),
    ({"A": 1.0, "B": 2}, "^places must be integers, not 1.0$"),
    ({"A": np.True_, "B": 2}, "^places must be integers, not np.True_$"),
    ({"A": "1", "B": 2}, "^places must be integers, not '1'$"),
], ids=["pairs", "bool", "float", "numpy-bool", "string"])
def test_ranking_of_places_that_are_not_ints_rejected(places, match):
    with pytest.raises(InvalidInputError, match=match):
        Ranking(places)


def test_ranking_keeps_integer_places_as_ints():
    ranking = Ranking({"A": np.int64(2), "B": np.uint8(1)})
    assert ranking.places == {"A": 2, "B": 1}
    assert [type(p) for p in ranking.places.values()] == [int, int]
    assert ranking.order() == ["B", "A"]
