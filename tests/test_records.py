"""The contract the package's records keep. No record changes once it
is built: every record refuses every assignment. A value record is a
tuple, equal to another with equal fields, and is built through its
constructor by `_replace`, copying and unpickling; the records a worker
process receives survive pickling. Every public constructor either
builds its record or raises a TournsimError that names the field it
rejects."""

import copy
import inspect
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tournsim import (
    CampaignSpec,
    DecisivePolicy,
    DiscrepancyDistribution,
    FixedResultTable,
    FormatSpec,
    GameResult,
    IngestionError,
    InvalidInputError,
    LedgerEntry,
    PairwiseGoalModel,
    PoissonSampler,
    Ranking,
    TeamStats,
    TieBreakPolicy,
    TournamentOutcome,
    TournsimError,
    compare_campaigns,
    derive_rng,
    l1_distance,
    load_model,
    merge_distributions,
    rank,
    rank_from_fixed_results,
    replay_outcome,
    run_campaign,
    run_campaigns,
    run_format,
    standings_from_games,
)
from tournsim.fixtures import golden_checks, load_combined_table
from tournsim.formats import Ledger
from tournsim.scoring import league_table

from samplers import NAMES8, flat_sampler


def campaign_spec():
    return CampaignSpec(FormatSpec("proposed", seeding="random"), flat_sampler(),
                        Ranking.from_order(NAMES8[::-1]), 300, 5)


def distribution():
    return DiscrepancyDistribution.from_counts({0: 1, 2: 3}, 8)


def entry():
    return LedgerEntry("final", GameResult("A", "B", 1, 0), "A")


def outcome():
    return TournamentOutcome(Ranking.from_order(("A", "B")), [entry()], 1, (0, 1))


def frozen_records():
    spec = campaign_spec()
    dist = distribution()
    return {
        "DecisivePolicy": DecisivePolicy(),
        "FormatSpec": spec.format,
        "TieBreakPolicy": TieBreakPolicy(),
        "Ranking": spec.truth,
        "CampaignSpec": spec,
        "DiscrepancyDistribution": dist,
        "ComparisonSummary": compare_campaigns(dist, dist),
        "GoldenCheck": golden_checks()[0],
        "PairwiseGoalModel": spec.sampler.model,
        "FixedResultTable": FixedResultTable(NAMES8, np.ones((8, 8, 2))),
        "LedgerEntry": entry(),
        "TournamentOutcome": outcome(),
        "TeamStats": TeamStats(3, 1, 0),
    }


@pytest.mark.parametrize("name", list(frozen_records()))
def test_frozen_record_rejects_assignment(name):
    record = frozen_records()[name]
    fields = getattr(record, "_fields", None) or type(record).__slots__
    for field in (*fields, "other"):
        before = getattr(record, field, None)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field, None) is before


def test_campaign_spec_survives_pickling():
    # A worker process receives the spec, its truth and its sampler's model.
    spec = campaign_spec()
    back = pickle.loads(pickle.dumps(spec))
    assert type(back) is CampaignSpec
    assert back._replace(sampler=spec.sampler) == spec
    model = back.sampler.model
    assert type(model) is PairwiseGoalModel and model.names == tuple(NAMES8)
    assert np.array_equal(model.mean_goals, spec.sampler.model.mean_goals)
    assert not model.mean_goals.flags.writeable
    assert run_campaign(back).to_text() == run_campaign(spec).to_text()


@pytest.mark.parametrize("name", ["Ranking", "DiscrepancyDistribution", "FormatSpec",
                                  "LedgerEntry", "TournamentOutcome", "TeamStats"])
def test_value_record_survives_pickling(name):
    record = frozen_records()[name]
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record


def test_goal_model_survives_pickling():
    model = PairwiseGoalModel(["A", "B", "C"], np.arange(9.0).reshape(3, 3))
    back = pickle.loads(pickle.dumps(model))
    assert type(back) is PairwiseGoalModel and back.names == model.names
    assert back.mean_goals.tolist() == model.mean_goals.tolist()
    assert not back.mean_goals.flags.writeable


REPLACED = {
    "max_replays": (DecisivePolicy(), dict(max_replays=-1),
                    "^max_replays must be >= 0, not -1$"),
    "final_resolution": (DecisivePolicy(), dict(final_resolution="toss"),
                         "^unknown final_resolution 'toss'$"),
    "games_per_pair": (FormatSpec("proposed"), dict(games_per_pair=0),
                       "^games_per_pair must be >= 1, not 0$"),
    "seeding": (FormatSpec("proposed"), dict(seeding=set(NAMES8)), "^seeding is not a sequence"),
    "criteria": (TieBreakPolicy(), dict(criteria=("points",)),
                 "^criteria must end with seed_order$"),
    "places": (Ranking.from_order(("A", "B")), dict(places={"A": 1, "B": 1}),
               "^ranks must be a permutation of 1..n$"),
    "n_tournaments": (campaign_spec(), dict(n_tournaments=0),
                      "^n_tournaments must be >= 1, not 0$"),
    "master_seed": (campaign_spec(), dict(master_seed=1.5),
                    "^master_seed must be an integer, not 1.5$"),
    "truth": (campaign_spec(), dict(truth=Ranking.from_order(("A", "B"))),
              "^truth ranking does not cover the model's teams$"),
    "best_of_three": (FormatSpec("proposed"), dict(best_of_three="yes"),
                      "^best_of_three must be a bool, not 'yes'$"),
    "decisive": (FormatSpec("proposed"), dict(decisive=3),
                 "^decisive must be a DecisivePolicy, not 3$"),
    "policy": (FormatSpec("proposed"), dict(policy="points"),
               "^policy must be a TieBreakPolicy, not 'points'$"),
    "format": (campaign_spec(), dict(format="proposed"),
               "^format must be a FormatSpec, not 'proposed'$"),
    "truth-type": (campaign_spec(), dict(truth={"T0": 1}),
                   r"^truth must be a Ranking, not \{'T0': 1\}$"),
    "counts": (distribution(), dict(counts={3: 1}), "^impossible L1 value 3 for n=8$"),
    "n_teams": (distribution(), dict(n_teams=1), "^a ranking needs at least 2 teams, not 1$"),
    "stage": (entry(), dict(stage=None), "^stage must be a stage label, not None$"),
    "result": (entry(), dict(result=("A", "B", 1, 0)),
               r"^result must be a GameResult, not \('A', 'B', 1, 0\)$"),
    "winner": (entry(), dict(winner=1), "^winner must be a team name, not 1$"),
    "ranking": (outcome(), dict(ranking={"A": 1, "B": 2}),
                r"^ranking must be a Ranking, not \{'A': 1, 'B': 2\}$"),
    "games": (outcome(), dict(games=[1]), "^games must be a LedgerEntry, not 1$"),
    "games_total": (outcome(), dict(games_total=2),
                    "^games_total is 2, but the ledger holds 1 games$"),
    "outcome seeding": (outcome(), dict(seeding=(0, -1)), "^seeding must be >= 0, not -1$"),
    "points": (TeamStats(), dict(points=True), "^points must be a real number, not True$"),
    "goals_for": (TeamStats(), dict(goals_for="1"), "^goals_for must be a real number, not '1'$"),
    "goals_against": (TeamStats(), dict(goals_against=None),
                      "^goals_against must be a real number, not None$"),
}


@pytest.mark.parametrize("field", list(REPLACED))
def test_replace_with_a_bad_value_raises_the_constructor_error(field):
    record, change, match = REPLACED[field]
    with pytest.raises(InvalidInputError, match=match):
        record._replace(**change)


@pytest.mark.parametrize("field", list(REPLACED))
def test_forged_record_is_checked_when_copied_or_unpickled(field):
    # A record forged past the constructor is rebuilt through it.
    record, change, match = REPLACED[field]
    forged = tuple.__new__(type(record), {**record._asdict(), **change}.values())
    for rebuild in (lambda: pickle.loads(pickle.dumps(forged)),
                    lambda: copy.copy(forged), lambda: copy.deepcopy(forged)):
        with pytest.raises(InvalidInputError, match=match):
            rebuild()


def tables():
    return (PairwiseGoalModel(["A", "B"], np.ones((2, 2))),
            FixedResultTable(["A", "B"], np.ones((2, 2, 2))))


# Changes that break a team table's rules, each with the error its type
# raises: IngestionError for a model, InvalidInputError for a fixed table.
TABLES_REPLACED = {
    "negative mean": (0, dict(mean_goals=[[0, -1], [1, 0]]), IngestionError,
                      "^row 'A', column 'B': invalid mean goals -1.0$"),
    "means of a wrong shape": (0, dict(mean_goals=np.ones(3)), IngestionError,
                               r"^matrix shape \(3,\) does not match 2 teams$"),
    "model names repeated": (0, dict(names=("A", "A")), IngestionError,
                             "^duplicate team name in model$"),
    "negative goals": (1, dict(goals=[[[0, 0], [1, -1]], [[1, 1], [0, 0]]]), InvalidInputError,
                       r"^row 'A', column 'B': goals \[1.0, -1.0\] are not finite and "
                       "nonnegative$"),
    "goals of a wrong shape": (1, dict(goals=np.ones((2, 2))), InvalidInputError,
                               r"^goals of shape \(2, 2\) do not fit 2 teams, need \(2, 2, 2\)$"),
}


@pytest.mark.parametrize("case", list(TABLES_REPLACED))
def test_table_is_rebuilt_through_its_constructor(case):
    # As every other record, a table is rebuilt by `_replace`, copying and
    # unpickling through its constructor, which raises the table's error.
    at, change, error, match = TABLES_REPLACED[case]
    table = tables()[at]
    with pytest.raises(error, match=match):
        table._replace(**change)
    forged = tuple.__new__(type(table), {**table._asdict(), **change}.values())
    for rebuild in (lambda: pickle.loads(pickle.dumps(forged)),
                    lambda: copy.copy(forged), lambda: copy.deepcopy(forged)):
        with pytest.raises(error, match=match):
            rebuild()


@pytest.mark.parametrize("at", [0, 1], ids=["PairwiseGoalModel", "FixedResultTable"])
def test_table_unpacks_as_its_names_and_array(at):
    table = tables()[at]
    names, values = table
    assert names is table.names and values is getattr(table, table._fields[1])
    # A copy holds a read-only array of its own and, as every table, is
    # equal only to itself.
    back = copy.deepcopy(table)
    assert back != table and back[0] == names and np.array_equal(back[1], values)
    assert back[1] is not values and not back[1].flags.writeable


def test_replace_keeps_what_the_constructor_keeps():
    spec = FormatSpec("proposed")._replace(seeding=list(NAMES8), games_per_pair=2.0)
    assert spec == FormatSpec("proposed", games_per_pair=2, seeding=tuple(NAMES8))
    assert type(spec.games_per_pair) is int
    assert type(TieBreakPolicy()._replace(criteria=["seed_order"]).criteria) is tuple


# Each of the records the engines build, its fields and its repr.
BUILT = {
    "LedgerEntry": (LedgerEntry, ("final", GameResult("A", "B", 1, 0), "A"),
                    "LedgerEntry(stage='final', result=GameResult(home='A', away='B', "
                    "home_goals=1, away_goals=0), winner='A')"),
    "TeamStats": (TeamStats, (3, 1, 0), "TeamStats(points=3, goals_for=1, goals_against=0)"),
    "TournamentOutcome": (TournamentOutcome, (Ranking.from_order(("A", "B")), (entry(),), 1,
                                              (0, 1)),
                          "TournamentOutcome(ranking=Ranking(places={'A': 1, 'B': 2}), "
                          "games=(LedgerEntry(stage='final', result=GameResult(home='A', "
                          "away='B', home_goals=1, away_goals=0), winner='A'),), "
                          "games_total=1, seeding=(0, 1))"),
}


@pytest.mark.parametrize("name", list(BUILT))
def test_engine_record_is_a_value_equal_by_fields(name):
    cls, fields, text = BUILT[name]
    a, b = cls(*fields), cls(*fields)
    assert a == b and a == fields and repr(a) == text
    if isinstance(a, TournamentOutcome):  # it holds a Ranking, a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_kept_ledger_is_a_tuple_of_its_own():
    games = [entry()]
    out = TournamentOutcome(TRUTH, games, 1, [1, 0])
    games.append(entry())
    assert out.games == (entry(),) and out.seeding == (1, 0)
    assert TournamentOutcome(TRUTH, None, 7).games_total == 7


TRUTH = Ranking.from_order(("A", "B"))
PROPOSED = FormatSpec("proposed")
OUTCOME = run_format(PROPOSED, flat_sampler(), derive_rng(1))

# Calls that ended in a bare Python error, or built a record they should
# not, each with the error it raises now.
REJECTED = {
    "counts not a mapping": (lambda: DiscrepancyDistribution([(0, 1)], 8), InvalidInputError,
                             r"^counts must be a mapping of L1 value to count, not \[\(0, 1\)\]$"),
    "counts None": (lambda: DiscrepancyDistribution(None, 8), InvalidInputError,
                    "^counts must be a mapping of L1 value to count, not None$"),
    "sampler None": (lambda: CampaignSpec(FormatSpec("proposed"), None, TRUTH, 5, 1),
                     InvalidInputError,
                     "^sampler names must be a sequence of team names, not None$"),
    "model None": (lambda: PoissonSampler(None), InvalidInputError,
                   "^model must be a PairwiseGoalModel, not None$"),
    "model names None": (lambda: PairwiseGoalModel(None, np.ones((2, 2))), InvalidInputError,
                         "^names must be a sequence of team names, not None$"),
    "table names None": (lambda: FixedResultTable(None, np.ones((2, 2, 2))), InvalidInputError,
                         "^names must be a sequence of team names, not None$"),
    "ledger names None": (lambda: Ledger(None, [[[1]], [[0]]]), InvalidInputError,
                          "^names must be a sequence of team names, not None$"),
    "order None": (lambda: Ranking.from_order(None), InvalidInputError,
                   "^names must be a sequence of team names, not None$"),
    "means a string": (lambda: PairwiseGoalModel(["A", "B"], "xx"), IngestionError,
                       "^mean_goals must be an array of numbers, not 'xx'$"),
    "means ragged": (lambda: PairwiseGoalModel(["A", "B"], [[0, 1], [1]]), IngestionError,
                     r"^mean_goals must be an array of numbers, not \[\[0, 1\], \[1\]\]$"),
    "model names a string": (lambda: PairwiseGoalModel("AB", np.ones((2, 2))),
                             InvalidInputError,
                             "^names must be a sequence of team names, not 'AB'$"),
    "ledger names a string": (lambda: Ledger("AB", [[[1]], [[0]]]), InvalidInputError,
                              "^names must be a sequence of team names, not 'AB'$"),
    "teams lists": (lambda: GameResult([1], [2], 1, 1), InvalidInputError,
                    r"^home must be a team name, not \[1\]$"),
    "place of no team": (lambda: Ranking({1: 1}), InvalidInputError,
                         r"^places must be a mapping of team to place, not \{1: 1\}$"),
    # `value not in (...)` compared an array elementwise: numpy's bare
    # "truth value of an array is ambiguous".
    "kind an array": (lambda: FormatSpec(np.array(["proposed", "x"])), InvalidInputError,
                      r"^unknown format kind array\(\['proposed', 'x'\]"),
    "scheme an array": (lambda: FormatSpec("proposed", scheme=np.array(["discrete", "x"])),
                        InvalidInputError, r"^unknown scheme array\(\['discrete', 'x'\]"),
    "final_resolution an array": (lambda: DecisivePolicy(1, np.array(["higher_seed", "x"])),
                                  InvalidInputError,
                                  r"^unknown final_resolution array\(\['higher_seed', 'x'\]"),
    # A seeding entry is a team name or an integer index; a list entry made
    # a spec that could not be hashed.
    "seeding nested list": (lambda: FormatSpec("proposed", seeding=[[0, 1]]), InvalidInputError,
                            r"^seeding indices must be integers, not \[0, 1\]$"),
    "seeding bool entry": (lambda: FormatSpec("proposed", seeding=(1, True)), InvalidInputError,
                           "^seeding indices must be integers, not True$"),
    "seeding fractional entry": (lambda: FormatSpec("proposed", seeding=(0, 0.5)),
                                 InvalidInputError,
                                 "^seeding indices must be integers, not 0.5$"),
    # The arguments of the public functions, read as the records' fields are.
    "replay names a string": (lambda: replay_outcome(PROPOSED, "T0T1", OUTCOME),
                              InvalidInputError,
                              "^names must be a sequence of team names, not 'T0T1'$"),
    "replay names None": (lambda: replay_outcome(PROPOSED, None, OUTCOME), InvalidInputError,
                          "^names must be a sequence of team names, not None$"),
    "replay outcome None": (lambda: replay_outcome(PROPOSED, NAMES8, None), InvalidInputError,
                            "^outcome must be a TournamentOutcome, not None$"),
    "run spec a kind": (lambda: run_format("proposed", flat_sampler(), derive_rng(1)),
                        InvalidInputError, "^spec must be a FormatSpec, not 'proposed'$"),
    "run rng None": (lambda: run_format(PROPOSED, flat_sampler(), None), InvalidInputError,
                     "^rng must be a Generator, not None$"),
    "l1 of None": (lambda: l1_distance(None, TRUTH), InvalidInputError,
                   "^a must be a Ranking, not None$"),
    "compare None": (lambda: compare_campaigns(None, distribution()), InvalidInputError,
                     "^a must be a DiscrepancyDistribution, not None$"),
    "merge a list": (lambda: merge_distributions([1]), InvalidInputError,
                     r"^dists must be a DiscrepancyDistribution, not \[1\]$"),
    "overrides pairs": (lambda: rank_from_fixed_results(
        FixedResultTable(NAMES8, np.ones((8, 8, 2))), playoff_overrides=[("A", "B")]),
        InvalidInputError, r"^playoff_overrides must be a mapping, not \[\('A', 'B'\)\]$"),
    # The constructors of the three records the engines build checked nothing.
    "entry of None": (lambda: LedgerEntry(None, None), InvalidInputError,
                      "^stage must be a stage label, not None$"),
    "outcome of None": (lambda: TournamentOutcome(None, None, "x"), InvalidInputError,
                        "^ranking must be a Ranking, not None$"),
    "outcome games not entries": (lambda: TournamentOutcome(TRUTH, [1, 2, 3], 3),
                                  InvalidInputError, "^games must be a LedgerEntry, not 1$"),
    "outcome games a string": (lambda: TournamentOutcome(TRUTH, "final", 5), InvalidInputError,
                               "^games must be a sequence of ledger entries, not 'final'$"),
    "outcome games_total None": (lambda: TournamentOutcome(TRUTH, None, None),
                                 InvalidInputError,
                                 "^games_total must be an integer, not None$"),
    "outcome seeding an int": (lambda: TournamentOutcome(TRUTH, [], 0, seeding=5),
                               InvalidInputError,
                               "^seeding must be a sequence of team indices, not 5$"),
    "outcome seeding of names": (lambda: TournamentOutcome(TRUTH, [], 0, seeding=("A", "B")),
                                 InvalidInputError, "^seeding must be an integer, not 'A'$"),
    "stats of a string": (lambda: TeamStats("x"), InvalidInputError,
                          "^points must be a real number, not 'x'$"),
    # A fixed table's overrides: a frozenset of two of its teams to one of
    # the two, each settling a playoff. Keyed by a tuple, or naming a pair
    # that meets in no playoff, an override was ignored.
    "override keyed by a tuple": (lambda: rank_from_fixed_results(
        load_combined_table(2013), playoff_overrides={("Wright", "Helios"): "Helios"}),
        InvalidInputError, "^playoff_overrides must be keyed by a frozenset of two teams of "
                           r"the table, not \('Wright', 'Helios'\)$"),
    "override of other teams": (lambda: rank_from_fixed_results(
        load_combined_table(2013), playoff_overrides={frozenset({"X", "Y"}): "X"}),
        InvalidInputError, "^playoff_overrides must be keyed by a frozenset of two teams of "
                           "the table, not frozenset"),
    "override of three teams": (lambda: rank_from_fixed_results(
        load_combined_table(2013),
        playoff_overrides={frozenset({"Wright", "Helios", "Oxsy"}): "Oxsy"}),
        InvalidInputError, "^playoff_overrides must be keyed by a frozenset of two teams"),
    "override winner a list": (lambda: rank_from_fixed_results(
        load_combined_table(2013), playoff_overrides={frozenset({"Wright", "Helios"}): ["x"]}),
        InvalidInputError, r"^playoff_overrides winner \['x'\] is not Helios or Wright$"),
    "override of no playoff": (lambda: rank_from_fixed_results(
        load_combined_table(2013), playoff_overrides={frozenset({"Wright", "Oxsy"}): "Oxsy"}),
        InvalidInputError, "^playoff_overrides: Oxsy and Wright meet in no playoff$"),
    # A league table's matrices fit its names.
    "league matrices too small": (lambda: league_table(["A", "B", "C"], np.ones((2, 2), int),
                                                       np.ones((2, 2), int)),
                                  InvalidInputError, r"^goals must be an array of shape "
                                                     r"\(3, 3\), not one of shape \(2, 2\)$"),
    "league matrices too large": (lambda: league_table(["A", "B"], np.ones((3, 3), int),
                                                       np.ones((3, 3), int)),
                                  InvalidInputError, r"^goals must be an array of shape "
                                                     r"\(2, 2\), not one of shape \(3, 3\)$"),
    "league points a list": (lambda: league_table(["A", "B"], np.ones((2, 2), int),
                                                  [[0, 1], [1, 0]]),
                             InvalidInputError, r"^points must be an array of shape \(2, 2\), "
                                                r"not \[\[0, 1\], \[1, 0\]\]$"),
    "league names None": (lambda: league_table(None, np.ones((2, 2)), np.ones((2, 2))),
                          InvalidInputError,
                          "^names must be a sequence of team names, not None$"),
    # Entry points that ended in a bare TypeError or AttributeError.
    "campaigns None": (lambda: run_campaigns(None), InvalidInputError,
                       "^specs must be a sequence of campaign specs, not None$"),
    "campaigns of an int": (lambda: run_campaigns([1]), InvalidInputError,
                            "^specs must be a CampaignSpec, not 1$"),
    "model text None": (lambda: load_model(None), InvalidInputError,
                        "^text must be a str, not None$"),
    "histogram text None": (lambda: DiscrepancyDistribution.from_text(None), InvalidInputError,
                            "^text must be a str, not None$"),
    # A bracket round robin's scorers: each game is read as GameResult
    # reads it. Each call ended in a bare AttributeError or TypeError, or
    # read a string of names as its letters.
    "rank of an int": (lambda: rank({"A": 1}), InvalidInputError,
                       r"^standings must be a mapping of team name to TeamStats, not \{'A': 1\}$"),
    "rank policy None": (lambda: rank({}, None), InvalidInputError,
                         "^policy must be a TieBreakPolicy, not None$"),
    "rank seed_order a string": (lambda: rank({}, seed_order="AB"), InvalidInputError,
                                 "^seed_order must be a sequence of team names, not 'AB'$"),
    "rank games of an int": (lambda: rank({}, games=[1]), InvalidInputError,
                             "^games must be a sequence of games, each a GameResult or its "
                             r"four fields, not \[1\]$"),
    "standings of an int": (lambda: standings_from_games([1]), InvalidInputError,
                            "^games must be a sequence of games, each a GameResult or its "
                            r"four fields, not \[1\]$"),
    "standings goals a string": (lambda: standings_from_games([("A", "B", "x", 0)]),
                                 InvalidInputError, "^goals must be integers, not 'x'$"),
    "standings games None": (lambda: standings_from_games(None), InvalidInputError,
                             "^games must be a sequence of games, each a GameResult or its "
                             "four fields, not None$"),
    "standings teams a string": (lambda: standings_from_games([], "AB"), InvalidInputError,
                                 "^teams must be a sequence of team names, not 'AB'$"),
}


@pytest.mark.parametrize("case", list(REJECTED))
def test_bad_input_raises_an_error_that_names_the_field(case):
    build, error, match = REJECTED[case]
    with pytest.raises(error, match=match):
        build()


def test_duck_samplers_are_read_by_their_names():
    # Any object with team names is a sampler: no type is required.
    class Names:
        names = tuple(NAMES8)

    spec = CampaignSpec(FormatSpec("proposed"), Names(), Ranking.from_order(NAMES8), 5, 1)
    assert type(spec.sampler) is Names


def test_names_of_every_sequence_type_read_as_a_tuple():
    for names in (["A", "B"], ("A", "B"), np.array(["A", "B"])):
        assert Ranking.from_order(names) == TRUTH
        assert PairwiseGoalModel(names, np.ones((2, 2))).names == ("A", "B")
    with pytest.raises(InvalidInputError, match="^names must be a sequence of team names"):
        Ranking.from_order(["A", 2])


# A valid set of arguments for each public constructor. Team names are
# longer than any drawn string, so no drawn name plays itself.
BUILDS = {
    "DecisivePolicy": (DecisivePolicy, (1, "uniform_coin")),
    "FormatSpec": (FormatSpec, ("proposed", 1, "continuous", False, DecisivePolicy(),
                                TieBreakPolicy(), None)),
    "TieBreakPolicy": (TieBreakPolicy, (("points", "goals_for", "seed_order"),)),
    "Ranking": (Ranking, ({"home team": 1, "away team": 2},)),
    "CampaignSpec": (CampaignSpec, (FormatSpec("proposed"), flat_sampler(),
                                    Ranking.from_order(NAMES8), 5, 1, 0)),
    "DiscrepancyDistribution": (DiscrepancyDistribution, ({0: 1, 2: 3}, 8)),
    "GameResult": (GameResult, ("home team", "away team", 1, 0)),
    "PairwiseGoalModel": (PairwiseGoalModel, (["home team", "away team"], np.ones((2, 2)))),
    "FixedResultTable": (FixedResultTable, (["home team", "away team"], np.ones((2, 2, 2)))),
    "Ledger": (Ledger, (("home team", "away team"), [[[1]], [[0]]])),
    "PoissonSampler": (PoissonSampler, (PairwiseGoalModel(["A", "B"], np.ones((2, 2))),)),
    "Ranking.from_order": (Ranking.from_order, (["home team", "away team"],)),
    "LedgerEntry": (LedgerEntry, ("final", GameResult("home team", "away team", 1, 0),
                                  "home team")),
    "TournamentOutcome": (TournamentOutcome, (Ranking.from_order(["home team", "away team"]),
                                              (entry(),), 1, (1, 0))),
    "TeamStats": (TeamStats, (3, 1, 0)),
}


def fields(build):
    """The fields a constructor reads, in argument order."""
    return getattr(build, "_fields", None) or tuple(inspect.signature(build).parameters)


def test_builds_cover_every_public_value_record():
    import tournsim

    records = {name for name, obj in vars(tournsim).items()
               if isinstance(obj, type) and issubclass(obj, tuple)}
    # The record `compare_campaigns` returns, not one a caller builds.
    assert records - set(BUILDS) == {"ComparisonSummary"}
    for build, args in BUILDS.values():
        assert len(fields(build)) == len(args)
        build(*args)


FIELDS = [(name, field) for name, (build, _) in BUILDS.items() for field in fields(build)]

# The word a message uses for a field, where it is not the field's name.
SAID = {"n_teams": "teams", "home_goals": "goals", "away_goals": "goals",
        "criteria": "criteri", "places": "place"}

# Values of the wrong type for some field or other: an integral float,
# which reads as the int it equals, is left out, and so is an array for a
# field that holds a sequence or an array, which it is.
WRONG = st.one_of(
    st.none(), st.builds(object), st.frozensets(st.integers(), max_size=2).map(set),
    st.booleans(), st.floats().filter(lambda x: not x.is_integer()), st.text(max_size=4),
)
ARRAYS = hnp.arrays(st.sampled_from([np.int64, np.float64, np.bool_, np.str_]),
                    hnp.array_shapes(min_dims=0, max_dims=1, max_side=3))


@pytest.mark.parametrize("name, field", FIELDS)
@settings(max_examples=25)
@given(data=st.data())
def test_wrong_typed_field_is_named_or_read(name, field, data):
    build, args = BUILDS[name]
    args, at = list(args), fields(build).index(field)
    sequence = isinstance(args[at], (list, tuple, np.ndarray))
    args[at] = data.draw(WRONG if sequence else st.one_of(WRONG, ARRAYS))
    try:
        record = build(*args)
    except TournsimError as e:
        assert SAID.get(field, field) in str(e)
        return
    # Built: it survives a pickle round trip, and hashes as its kind does.
    back = pickle.loads(pickle.dumps(record))
    if isinstance(record, CampaignSpec):  # a sampler is equal only to itself
        back = back._replace(sampler=record.sampler)
    elif isinstance(record, PoissonSampler):
        back, record = back.model, record.model
    assert type(back) is type(record) and repr(back) == repr(record)
    if isinstance(record, tuple) and not isinstance(record, (
            Ranking, CampaignSpec, DiscrepancyDistribution, TournamentOutcome)):
        hash(record)
