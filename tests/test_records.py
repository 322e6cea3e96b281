"""The contract the package's records keep. A frozen record refuses
every assignment; a value record is built through its constructor by
`_replace`, copying and unpickling; the records a worker process
receives survive pickling; a mutable record equals one of its class with
equal fields and is not hashable."""

import copy
import pickle

import numpy as np
import pytest

from tournsim import (
    CampaignSpec,
    DecisivePolicy,
    DiscrepancyDistribution,
    FixedResultTable,
    FormatSpec,
    GameResult,
    InvalidInputError,
    LedgerEntry,
    PairwiseGoalModel,
    Ranking,
    TeamStats,
    TieBreakPolicy,
    TournamentOutcome,
    compare_campaigns,
    run_campaign,
)
from tournsim.fixtures import golden_checks

from samplers import NAMES8, flat_sampler


def campaign_spec():
    return CampaignSpec(FormatSpec("proposed", seeding="random"), flat_sampler(),
                        Ranking.from_order(NAMES8[::-1]), 300, 5)


def frozen_records():
    spec = campaign_spec()
    dist = DiscrepancyDistribution.from_counts({0: 1, 2: 3}, 8)
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


@pytest.mark.parametrize("name", ["Ranking", "DiscrepancyDistribution", "FormatSpec"])
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
                    "^max_replays must be nonnegative$"),
    "final_resolution": (DecisivePolicy(), dict(final_resolution="toss"),
                         "^unknown final_resolution 'toss'$"),
    "games_per_pair": (FormatSpec("proposed"), dict(games_per_pair=0),
                       "^games_per_pair must be >= 1$"),
    "seeding": (FormatSpec("proposed"), dict(seeding=set(NAMES8)), "^seeding is not a sequence"),
    "criteria": (TieBreakPolicy(), dict(criteria=("points",)),
                 "^criteria must end with seed_order$"),
    "places": (Ranking.from_order("AB"), dict(places={"A": 1, "B": 1}),
               "^ranks must be a permutation of 1..n$"),
    "n_tournaments": (campaign_spec(), dict(n_tournaments=0), "^n_tournaments must be >= 1$"),
    "master_seed": (campaign_spec(), dict(master_seed=1.5),
                    "^master_seed must be an integer, not 1.5$"),
    "truth": (campaign_spec(), dict(truth=Ranking.from_order("AB")),
              "^truth ranking does not cover the model's teams$"),
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


def test_replace_keeps_what_the_constructor_keeps():
    spec = FormatSpec("proposed")._replace(seeding=list(NAMES8), games_per_pair=2.0)
    assert spec == FormatSpec("proposed", games_per_pair=2, seeding=tuple(NAMES8))
    assert type(spec.games_per_pair) is int
    assert type(TieBreakPolicy()._replace(criteria=["seed_order"]).criteria) is tuple


MUTABLE = {
    "LedgerEntry": (LedgerEntry, ("final", GameResult("A", "B", 1, 0), "A"),
                    "LedgerEntry(stage='final', result=GameResult(home='A', away='B', "
                    "home_goals=1, away_goals=0), winner='A')"),
    "TeamStats": (TeamStats, (3, 1, 0), "TeamStats(points=3, goals_for=1, goals_against=0)"),
    "TournamentOutcome": (TournamentOutcome, (Ranking.from_order("AB"), None, 1, (0, 1)),
                          "TournamentOutcome(ranking=Ranking(places={'A': 1, 'B': 2}), "
                          "games=None, games_total=1, seeding=(0, 1))"),
}


@pytest.mark.parametrize("name", list(MUTABLE))
def test_mutable_record_equals_by_fields(name):
    cls, fields, text = MUTABLE[name]
    a, b = cls(*fields), cls(*fields)
    assert a == b and repr(a) == text
    assert a != fields and fields != a
    with pytest.raises(TypeError):
        hash(a)
    last = cls.__slots__[-1]
    setattr(b, last, "changed")
    assert a != b and getattr(b, last) == "changed"
    with pytest.raises(AttributeError):
        b.other = 0
