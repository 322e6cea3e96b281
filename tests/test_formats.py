import dataclasses
import hashlib
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tournsim import (
    HIGHER_SEED,
    RANDOM_SEEDING,
    UNIFORM_COIN,
    DecisivePolicy,
    FormatSpec,
    GameResult,
    InvalidInputError,
    FixedResultTable,
    LedgerEntry,
    PairwiseGoalModel,
    PoissonSampler,
    Ranking,
    TeamStats,
    TieBreakPolicy,
    TournamentOutcome,
    UnsupportedSizeError,
    derive_rng,
    rank_from_fixed_results,
    replay_outcome,
    run_format,
)
from tournsim import fixtures
from tournsim.formats import KINDS, _scheme_matrices
from tournsim.scoring import league_table

from duck_sampler import DuckSampler
from reference_ranking import ALL_POLICIES, reference_rank

NAMES8 = [f"T{i}" for i in range(8)]


def oracle(games_per_pair):
    return FormatSpec("iterated_round_robin", games_per_pair=games_per_pair)


def flat_sampler(n=8, mean=1.3):
    """All pairs share the same symmetric goal mean."""
    m = np.full((n, n), mean)
    np.fill_diagonal(m, np.nan)
    return PoissonSampler(PairwiseGoalModel(NAMES8[:n], m))


def dominant_sampler():
    """T0 scores 60 per game against anyone and never concedes."""
    m = np.full((8, 8), 1.0)
    m[0, :] = 60.0
    m[:, 0] = 0.0
    np.fill_diagonal(m, np.nan)
    return PoissonSampler(PairwiseGoalModel(NAMES8, m))


def chain_sampler(n=8):
    """Strict dominance chain: lower index always wins by a wide margin."""
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i < j:
                m[i, j] = 40.0
    np.fill_diagonal(m, np.nan)
    return PoissonSampler(PairwiseGoalModel(NAMES8[:n], m))


class TestGameCounts:
    def test_2012_is_20_games(self):
        out = run_format(FormatSpec("format_2012"), flat_sampler(), derive_rng(1, 0))
        assert out.games_total == 20
        assert len(out.games) == 20

    def test_2013_is_16_games(self):
        out = run_format(FormatSpec("format_2013_double_elim"), flat_sampler(), derive_rng(1, 1))
        assert out.games_total == 16
        assert len(out.games) == 16

    def test_proposed_is_32_games(self):
        out = run_format(FormatSpec("proposed"), flat_sampler(), derive_rng(1, 2))
        assert out.games_total == 32
        assert len(out.games) == 32

    def test_proposed_best_of_three_range(self):
        # 28 preliminary games plus 4 series of 2 or 3 games each
        sampler = flat_sampler()
        for k in range(30):
            out = run_format(FormatSpec("proposed", best_of_three=True), sampler, derive_rng(2, k))
            assert 36 <= out.games_total <= 40
            assert len(out.games) == out.games_total

    def test_oracle_count_is_pairs_times_gpp(self):
        out = run_format(oracle(5), flat_sampler(), derive_rng(1, 3))
        assert out.games_total == 28 * 5


class TestPerTeamCounts:
    def test_2012_top_half_plays_six(self):
        out = run_format(FormatSpec("format_2012"), flat_sampler(), derive_rng(3, 0))
        played = Counter()
        for e in out.games:
            played[e.result.home] += 1
            played[e.result.away] += 1
        assert sorted(played.values()) == [4, 4, 4, 4, 6, 6, 6, 6]

    def test_double_elim_loss_invariant(self):
        # champion loses at most once; grand-final loser once or twice
        # (no bracket reset); everyone else exactly twice
        sampler = flat_sampler()
        for k in range(200):
            out = run_format(FormatSpec("format_2013_double_elim"), sampler, derive_rng(4, k))
            losses = Counter()
            for e in out.games:
                # classification games for places 5-8 sit outside the bracket
                if e.winner is None or e.stage.startswith("class-"):
                    continue
                loser = (
                    e.result.away
                    if e.winner == e.result.home
                    else e.result.home
                )
                losses[loser] += 1
            order = out.ranking.order()
            assert losses[order[0]] <= 1
            assert losses[order[1]] in (1, 2)
            for name in order[2:]:
                assert losses[name] == 2


class TestDominance:
    def test_dominant_team_wins_everywhere(self):
        sampler = dominant_sampler()
        for k, kind in enumerate(("format_2012", "format_2013_double_elim", "proposed")):
            for trial in range(50):
                out = run_format(FormatSpec(kind), sampler, derive_rng(5, k, trial))
                assert out.ranking["T0"] == 1

    def test_chain_model_oracle_recovers_order(self):
        out = run_format(oracle(1), chain_sampler(), derive_rng(6, 0))
        assert out.ranking.order() == NAMES8

    def test_proposed_adjacent_swap_only(self):
        # placement playoffs can only swap preliminary neighbours
        # (1,2), (3,4), (5,6), (7,8)
        sampler = flat_sampler()
        spec = FormatSpec("proposed")
        for k in range(200):
            out = run_format(spec, sampler, derive_rng(7, k))
            prelim = [e for e in out.games if e.stage.startswith("rr-")]
            assert len(prelim) == 28
            final_places = out.ranking.places
            prelim_rank = _prelim_ranking(spec, out)
            for name, p in final_places.items():
                q = prelim_rank[name]
                assert abs(p - q) <= 1
                assert (p - 1) // 2 == (q - 1) // 2


def _prelim_ranking(spec, outcome):
    sub = [e for e in outcome.games if e.stage.startswith("rr-")]
    from tournsim.formats import TournamentOutcome

    partial = TournamentOutcome(outcome.ranking, sub, len(sub))
    rr_spec = FormatSpec("iterated_round_robin", scheme=spec.scheme, policy=spec.policy)
    return replay_outcome(rr_spec, NAMES8, partial).places


class TestSeeding:
    def test_explicit_seeding_by_name(self):
        sampler = chain_sampler()
        seeding = tuple(reversed(NAMES8))
        out = run_format(FormatSpec("format_2012", seeding=seeding), sampler, derive_rng(8, 0))
        assert out.ranking["T0"] == 1

    def test_seeding_of_unknown_team_rejected(self):
        seeding = ("Nope",) + tuple(NAMES8[1:])
        with pytest.raises(InvalidInputError, match="'Nope'"):
            run_format(FormatSpec("proposed", seeding=seeding), flat_sampler(), derive_rng(8, 1))
        out = run_format(FormatSpec("proposed"), flat_sampler(), derive_rng(8, 1))
        with pytest.raises(InvalidInputError, match="'Nope'"):
            replay_outcome(FormatSpec("proposed", seeding=seeding), NAMES8, out)

    def test_random_seeding_varies_pairings(self):
        spec = FormatSpec("format_2013_double_elim", seeding="random")
        sampler = flat_sampler()
        openers = {
            frozenset(
                (e.result.home, e.result.away)
            )
            for k in range(20)
            for e in run_format(spec, sampler, derive_rng(9, k)).games[:1]
        }
        assert len(openers) > 1

    def test_wrong_size_rejected(self):
        small = flat_sampler(n=4)
        with pytest.raises(UnsupportedSizeError):
            run_format(FormatSpec("format_2012"), small, derive_rng(10, 0))
        with pytest.raises(UnsupportedSizeError):
            run_format(FormatSpec("format_2013_double_elim"), small, derive_rng(10, 1))
        with pytest.raises(UnsupportedSizeError):
            run_format(FormatSpec("proposed"), small, derive_rng(10, 2))

    def test_oracle_works_for_two_teams(self):
        m = np.array([[np.nan, 3.0], [0.5, np.nan]])
        sampler = PoissonSampler(PairwiseGoalModel(["A", "B"], m))
        out = run_format(oracle(50), sampler, derive_rng(11, 0))
        assert out.games_total == 50
        assert out.ranking["A"] == 1


class TestReplay:
    @pytest.mark.parametrize(
        "spec",
        [
            FormatSpec("iterated_round_robin", games_per_pair=3),
            FormatSpec("iterated_round_robin", games_per_pair=2, scheme="discrete"),
            FormatSpec("format_2012"),
            FormatSpec("format_2013_double_elim"),
            FormatSpec("proposed"),
            FormatSpec("proposed", best_of_three=True),
            FormatSpec("format_2012", decisive=DecisivePolicy(max_replays=0)),
        ],
        ids=lambda s: f"{s.kind}{'-bo3' if s.best_of_three else ''}"
        f"{'-r0' if s.decisive.max_replays == 0 else ''}"
        f"-{s.scheme}-gpp{s.games_per_pair}",
    )
    def test_ledger_reproduces_ranking(self, spec):
        sampler = flat_sampler()
        for k in range(30):
            out = run_format(spec, sampler, derive_rng(12, k))
            assert replay_outcome(spec, NAMES8, out).places == out.ranking.places

    def test_random_seeding_replays_from_recorded_seeding(self):
        sampler = flat_sampler()
        for kind in ("format_2012", "format_2013_double_elim", "proposed"):
            spec = FormatSpec(kind, seeding="random")
            for k in range(30):
                out = run_format(spec, sampler, derive_rng(13, k))
                assert sorted(out.seeding) == list(range(8))
                assert replay_outcome(spec, NAMES8, out).places == out.ranking.places

    def test_replay_rejects_random_seeding(self):
        # without the seeding the run recorded, a random seeding is unknown
        spec = FormatSpec("proposed", seeding="random")
        out = run_format(spec, flat_sampler(), derive_rng(13, 0))
        out.seeding = None
        with pytest.raises(InvalidInputError, match="seeding"):
            replay_outcome(spec, NAMES8, out)


def swapped_teams(entry, home, away):
    r = entry.result
    return LedgerEntry(entry.stage, GameResult(home, away, r.home_goals, r.away_goals),
                       entry.winner)


class TestReplayChecksLedger:
    def live(self, kind, k=0):
        spec = FormatSpec(kind)
        return spec, run_format(spec, flat_sampler(), derive_rng(18, k))

    @pytest.mark.parametrize(
        "kind, stage",
        [("format_2013_double_elim", "wb1-1"), ("format_2012", "semi1-leg2"),
         ("proposed", "rr-1v2"), ("proposed", "po-7-8")],
    )
    def test_entry_of_other_teams_rejected(self, kind, stage):
        spec, out = self.live(kind)
        p = next(p for p, e in enumerate(out.games) if e.stage == stage)
        r = out.games[p].result
        others = [n for n in NAMES8 if n not in (r.home, r.away)]
        for home, away in ((r.away, r.home), (others[0], r.away), (r.home, others[1])):
            out.games[p] = swapped_teams(out.games[p], home, away)
            with pytest.raises(InvalidInputError, match="expected"):
                replay_outcome(spec, NAMES8, out)

    @pytest.mark.parametrize("kind", ["format_2012", "format_2013_double_elim", "proposed"])
    def test_winner_outside_the_slot_rejected(self, kind):
        spec, out = self.live(kind)
        entry = next(e for e in out.games if e.winner is not None)
        r = entry.result
        outsider = next(n for n in NAMES8 if n not in (r.home, r.away))
        for winner in ("T9", outsider):
            entry.winner = winner
            with pytest.raises(InvalidInputError, match="winner"):
                replay_outcome(spec, NAMES8, out)

    @pytest.mark.parametrize("kind", ["format_2012", "format_2013_double_elim", "proposed"])
    def test_winner_against_the_result_rejected(self, kind):
        # the last game decides places and feeds no later slot
        spec, out = next(
            (spec, out) for spec, out in (self.live(kind, k) for k in range(100))
            if out.games[-1].result.home_goals != out.games[-1].result.away_goals
        )
        r = out.games[-1].result
        loser = r.away if r.home_goals > r.away_goals else r.home
        out.games[-1].winner = loser
        with pytest.raises(InvalidInputError, match="winner"):
            replay_outcome(spec, NAMES8, out)

    @pytest.mark.parametrize("kind", ["format_2012", "format_2013_double_elim", "proposed"])
    def test_entries_after_the_last_stage_rejected(self, kind):
        spec, out = self.live(kind)
        out.games.append(out.games[-1])
        with pytest.raises(InvalidInputError, match="1 ledger entries left"):
            replay_outcome(spec, NAMES8, out)


@pytest.mark.parametrize(
    "spec",
    [
        FormatSpec("iterated_round_robin", games_per_pair=3),
        FormatSpec("format_2012"),
        FormatSpec("format_2013_double_elim"),
        FormatSpec("proposed"),
        FormatSpec("proposed", best_of_three=True),
    ],
    ids=lambda s: s.kind + ("-bo3" if s.best_of_three else ""),
)
def test_keep_games_false_drops_only_the_ledger(spec):
    sampler = flat_sampler()
    for k in range(20):
        kept = run_format(spec, sampler, derive_rng(19, k))
        dropped = run_format(spec, sampler, derive_rng(19, k), keep_games=False)
        assert dropped.games is None
        assert dropped.ranking.places == kept.ranking.places
        assert dropped.games_total == kept.games_total == len(kept.games)


class TestBracketProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["format_2012", "format_2013_double_elim", "proposed"]),
        best_of_three=st.booleans(),
        decisive=st.builds(
            DecisivePolicy, st.integers(0, 1), st.sampled_from([UNIFORM_COIN, HIGHER_SEED])
        ),
        seeding=st.one_of(
            st.none(), st.permutations(NAMES8).map(tuple), st.just(RANDOM_SEEDING)
        ),
        mean=st.sampled_from([0.2, 1.3, 4.0]),
        seed=st.integers(0, 2**63),
    )
    def test_permutation_game_count_and_replay(
        self, kind, best_of_three, decisive, seeding, mean, seed
    ):
        spec = FormatSpec(kind, best_of_three=best_of_three, decisive=decisive,
                          seeding=seeding)
        out = run_format(spec, flat_sampler(mean=mean), derive_rng(seed))
        assert sorted(out.ranking.order()) == NAMES8
        if kind == "proposed" and best_of_three:
            assert 36 <= out.games_total <= 40
        else:
            assert out.games_total == {
                "format_2012": 20, "format_2013_double_elim": 16, "proposed": 32
            }[kind]
        assert out.games_total == len(out.games)
        assert replay_outcome(spec, NAMES8, out).places == out.ranking.places


# SHA-256 of `ledger_text` over every DecisivePolicy with up to two replays
# and seeds 0-19 of `run_format` on a bundled model, recorded before the
# interpreter settled every knockout slot by one rule.
PINNED_RUN_LEDGERS = {
    (2012, "f2012", "model"): "6be1a1a13a0a7c038647184a8f614296b33b9a702be7e7f98c2af313f2d934c5",
    (2012, "f2012", "random"): "205c450f572b2b329946a9536034857157207227d0435ca6bb8f16ae4e45f9a0",
    (2012, "f2013", "model"): "d08587efa139bce8f794bc25d252957c6ee34a8761de1023f77294225f3c1ef9",
    (2012, "f2013", "random"): "273d6d66759c6ded56c0018968bf4e98063652e0d11a11e23fdda708072e89c2",
    (2012, "proposed", "model"): "f453aaef665d387824fbe82af668ea2c2e45b09c29238c3455f8cbbafd0d9f5c",
    (2012, "proposed", "random"): "bbdb39a3aaa6720c22634b6ee8fe7de0dcef7d96578da868725affc94cb10cf5",
    (2012, "proposed-bo3", "model"): "aa6098701d491557edf26cc4efdbee2b8e234960f8d81cf5005e41e359c100ac",
    (2012, "proposed-bo3", "random"): "58b2a2d690f53e185e80c5d17f17d0446ac1071776cfeb1898865db5f175b993",
    (2013, "f2012", "model"): "d83ba1bbd572261b639d15eed00cf980c7320fd7eef87c5a6a49bf7ffdfe632f",
    (2013, "f2012", "random"): "851041233da1b7ad6a5d436c61a52682356c1dbe77a630d0d7d378a89556a01f",
    (2013, "f2013", "model"): "e10687e919c7d1b5f7766839da51dc99df67baf188acfe0fcc1250757be868a4",
    (2013, "f2013", "random"): "e0717574b0e777f96c6fa7d7fd723bbc3edfac6b651150e39e2cb3439d109849",
    (2013, "proposed", "model"): "bf63fca8a98323548362dff23f53071afc92e6a103166e457cf2e6ac88f0d674",
    (2013, "proposed", "random"): "e92a07ca514998c8a62187f72e2a2066193bd5ccdd3e460ac9aa2c18e0e106f0",
    (2013, "proposed-bo3", "model"): "638a684354244b5dbba2832bb14fcd2ae25b95615ce4a9c91ec1fa441ddfee21",
    (2013, "proposed-bo3", "random"): "fa92369a9f1e19282c598141af96c426ac756346d3134b8f24f45cd3331353f9",
}
PINNED_SPECS = {
    "f2012": FormatSpec("format_2012"),
    "f2013": FormatSpec("format_2013_double_elim"),
    "proposed": FormatSpec("proposed"),
    "proposed-bo3": FormatSpec("proposed", best_of_three=True),
}
PINNED_SEEDINGS = {"model": None, "random": RANDOM_SEEDING}
ALL_DECISIVE = [DecisivePolicy(r, f) for r in range(3) for f in (UNIFORM_COIN, HIGHER_SEED)]


def ledger_text(outcome):
    """A live run as text: its seeding and game count, every ledger entry
    and the final order."""
    lines = [f"{outcome.seeding} {outcome.games_total}\n"]
    lines += [f"{e.stage},{','.join(map(str, e.result))},{e.winner or ''}\n"
              for e in outcome.games]
    lines.append(",".join(outcome.ranking.order()) + "\n")
    return "".join(lines)


def pinned_runs(year, fmt, seeding):
    """(spec, outcome) of every run one PINNED_RUN_LEDGERS entry covers."""
    sampler = PoissonSampler(fixtures.load_goal_model(year))
    for decisive in ALL_DECISIVE:
        spec = dataclasses.replace(PINNED_SPECS[fmt], decisive=decisive,
                                   seeding=PINNED_SEEDINGS[seeding])
        for seed in range(20):
            yield spec, run_format(spec, sampler, derive_rng(seed, 0))


class TestPinnedRunLedgers:
    @pytest.mark.parametrize("year, fmt, seeding", PINNED_RUN_LEDGERS)
    def test_ledger_pinned_and_replayed(self, year, fmt, seeding):
        names = fixtures.load_goal_model(year).names
        text = []
        for spec, out in pinned_runs(year, fmt, seeding):
            assert replay_outcome(spec, names, out).places == out.ranking.places
            text.append(ledger_text(out))
        digest = hashlib.sha256("".join(text).encode()).hexdigest()
        assert digest == PINNED_RUN_LEDGERS[year, fmt, seeding]


class TestFixedResults:
    def test_2012_combined_table_gives_published_proposed_ranking(self):
        table = fixtures.load_combined_table(2012)
        r = rank_from_fixed_results(
            table, playoff_overrides=fixtures.PLAYOFF_OVERRIDES_2012
        )
        assert r.places == fixtures.R_P_2012.places

    def test_2013_combined_table_gives_published_proposed_ranking(self):
        table = fixtures.load_combined_table(2013)
        r = rank_from_fixed_results(
            table, playoff_overrides=fixtures.PLAYOFF_OVERRIDES_2013
        )
        assert r.places == fixtures.R_P_2013.places

    def test_dominant_fixed_table(self):
        names = ["A", "B", "C", "D", "E", "F", "G", "H"]
        goals = np.zeros((8, 8, 2))
        upper = np.triu(np.ones((8, 8), dtype=bool), 1)
        goals[upper] = 2.0, 0.0
        goals[upper.T] = 0.0, 2.0
        r = rank_from_fixed_results(FixedResultTable(names, goals))
        assert r.order() == names

    @pytest.mark.parametrize("shape", [(8, 8), (8, 7, 2), (7, 7, 2), (8, 8, 3)])
    def test_goals_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(InvalidInputError, match="shape"):
            FixedResultTable(NAMES8, np.zeros(shape))

    def test_caller_array_stays_writable_and_unchanged(self):
        # The table keeps a read-only copy with a zero diagonal, so a write
        # to the caller's array cannot slip a negative goal past the check.
        goals = np.ones((8, 8, 2))
        goals[0, 0], goals[1, 1] = np.nan, -3
        table = FixedResultTable(NAMES8, goals)
        assert table.goals is not goals
        assert not table.goals.flags.writeable
        assert table.goals[[0, 1], [0, 1]].tolist() == [[0.0, 0.0], [0.0, 0.0]]
        goals[0, 1] = -5
        assert goals[0, 1].tolist() == [-5, -5] and np.isnan(goals[0, 0]).all()
        assert table.goals[0, 1].tolist() == [1.0, 1.0]
        assert rank_from_fixed_results(table).order() == NAMES8

    def test_drawn_playoff_keeps_the_higher_preliminary_place(self):
        goals = np.ones((8, 8, 2))
        # every game drawn: the preliminary order is the seeding, table order
        r = rank_from_fixed_results(FixedResultTable(NAMES8, goals))
        assert r.order() == NAMES8
        swapped = {frozenset(("T0", "T1")): "T1", frozenset(("T6", "T7")): "T7"}
        r = rank_from_fixed_results(FixedResultTable(NAMES8, goals), playoff_overrides=swapped)
        assert r.order() == ["T1", "T0", *NAMES8[2:6], "T7", "T6"]

    def test_policy_orders_the_preliminary_round(self):
        # Every game 1-1 but T1 1-0 T2, T2 5-0 T7 and T6 1-0 T1. T6 leads on
        # 9 points; T1 and T2 are level on 8, T2 on goal difference, T1 on
        # head to head. Second place meets T6 in the final (the home side
        # keeps a drawn playoff), third meets T0.
        goals = np.ones((8, 8, 2))
        for a, b, ga, gb in ((1, 2, 1, 0), (2, 7, 5, 0), (6, 1, 1, 0)):
            goals[a, b], goals[b, a] = (ga, gb), (gb, ga)
        table = FixedResultTable(NAMES8, goals)
        rest = ["T0", "T3", "T4", "T5", "T7"]
        assert rank_from_fixed_results(table).order() == ["T6", "T2", "T1", *rest]
        h2h = TieBreakPolicy(("points", "head_to_head", "goal_difference", "seed_order"))
        assert rank_from_fixed_results(table, h2h).order() == ["T6", "T1", "T2", *rest]

    def test_override_outside_the_playoff_pair_rejected(self):
        table = fixtures.load_combined_table(2012)
        overrides = {frozenset(("Marlik", "Yushan")): "Helios"}
        with pytest.raises(InvalidInputError, match="override"):
            rank_from_fixed_results(table, playoff_overrides=overrides)


class TestSamplerInterchangeability:
    """`run_format` reads a sampler's `names`, `sample` and `sample_many`
    alone, so a duck sampler plays every format as the sampler it wraps."""

    @pytest.mark.parametrize("bo3", [False, True], ids=["single", "bo3"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_duck_sampler_plays_as_poisson(self, kind, bo3):
        spec = FormatSpec(kind, games_per_pair=3, best_of_three=bo3, seeding=RANDOM_SEEDING)
        poisson = flat_sampler()
        for k in range(10):
            ref = run_format(spec, poisson, derive_rng(14, k))
            out = run_format(spec, DuckSampler(poisson), derive_rng(14, k))
            assert out.games == ref.games
            assert out.ranking.places == ref.ranking.places
            assert replay_outcome(spec, NAMES8, out).places == out.ranking.places


class FixedGoalsSampler:
    """Hands out preset games: goals[:, p] for the p-th pair (i < j, in
    row-major order), whatever the generator."""

    backend = "fixed"

    def __init__(self, names, goals):
        self.names = list(names)
        n = len(self.names)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self._games = {pair: (goals[0][p], goals[1][p]) for p, pair in enumerate(pairs)}

    def sample_many(self, i, j, count, rng):
        home, away = self._games[(i, j)]
        assert len(home) == count
        return np.array(home), np.array(away)


def fraction_standings(names, goals, scheme):
    """The schemes' definitions in exact arithmetic: per pair the mean
    points and goals of its k games (continuous), or the pair's mean
    scoreline rounded half away from zero to one game (discrete). Returns
    the standings and the games they score, for head-to-head."""
    n = len(names)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    zero = Fraction(0)
    table = {name: TeamStats(zero, zero, zero) for name in names}
    played = []
    for p, (i, j) in enumerate(pairs):
        home, away = goals[0][p], goals[1][p]
        k = len(home)
        if scheme == "continuous":
            pts_i = Fraction(sum(3 * (a > b) + (a == b) for a, b in zip(home, away)), k)
            pts_j = Fraction(sum(3 * (b > a) + (a == b) for a, b in zip(home, away)), k)
            for_i, for_j = Fraction(sum(home), k), Fraction(sum(away), k)
            played += [GameResult(names[i], names[j], a, b) for a, b in zip(home, away)]
        else:
            # half away from zero; goals are never negative
            for_i = math.floor(Fraction(sum(home), k) + Fraction(1, 2))
            for_j = math.floor(Fraction(sum(away), k) + Fraction(1, 2))
            pts_i = 3 if for_i > for_j else 1 if for_i == for_j else 0
            pts_j = 3 if for_j > for_i else 1 if for_i == for_j else 0
            played.append(GameResult(names[i], names[j], for_i, for_j))
        for team, pts, scored, conceded in ((i, pts_i, for_i, for_j), (j, pts_j, for_j, for_i)):
            s = table[names[team]]
            s.points += pts
            s.goals_for += scored
            s.goals_against += conceded
    return table, played


@st.composite
def round_robins(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, 12))
    pairs = n * (n - 1) // 2
    games = st.lists(st.integers(0, 6), min_size=k, max_size=k)
    goals = [draw(st.lists(games, min_size=pairs, max_size=pairs)) for _ in range(2)]
    return NAMES8[:n], k, goals


def flipped(entry):
    r = entry.result
    return LedgerEntry(entry.stage, GameResult(r.away, r.home, r.away_goals, r.home_goals))


class TestLeagueTable:
    @pytest.mark.parametrize("scheme", ["continuous", "discrete"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=round_robins(), shuffle=st.randoms(use_true_random=False),
           policy=st.sampled_from(ALL_POLICIES))
    def test_exact_totals_and_live_equals_replay(self, scheme, case, shuffle, policy):
        names, k, goals = case
        n = len(names)
        table, ranking = league_table(
            names, *_scheme_matrices(n, np.array(goals), scheme), policy
        )
        exact, played = fraction_standings(names, goals, scheme)
        assert ranking.order() == reference_rank(exact, policy, names, played)
        divisor = k if scheme == "continuous" else 1
        for name in names:
            got, want = table[name], exact[name]
            for field in ("points", "goals_for", "goals_against"):
                total = getattr(got, field)
                assert isinstance(total, int)
                assert Fraction(total, divisor) == getattr(want, field)
                assert total / divisor == float(getattr(want, field))

        spec = FormatSpec("iterated_round_robin", games_per_pair=k, scheme=scheme,
                          policy=policy)
        live = run_format(spec, FixedGoalsSampler(names, goals), derive_rng(15, 0))
        assert live.games_total == len(live.games) == k * n * (n - 1) // 2
        assert live.ranking.places == ranking.places
        assert replay_outcome(spec, names, live).places == live.ranking.places
        # any game order, either orientation
        games = [flipped(e) if shuffle.random() < 0.5 else e for e in live.games]
        shuffle.shuffle(games)
        mixed = TournamentOutcome(live.ranking, games, len(games))
        assert replay_outcome(spec, names, mixed).places == live.ranking.places


class TestOracleHeadToHead:
    """A and B finish level on points, goal difference and goals for, A
    beat B, and B is seeded first."""

    NAMES = ["B", "A", "C", "D"]
    # Two games of each pair (B, A), (B, C), (B, D), (A, C), (A, D), (C, D).
    GOALS = [
        [[0, 0], [1, 1], [1, 1], [0, 0], [1, 1], [0, 0]],
        [[1, 1], [0, 0], [0, 0], [1, 1], [0, 0], [0, 0]],
    ]

    @pytest.mark.parametrize("scheme", ["continuous", "discrete"])
    @pytest.mark.parametrize(
        "criteria,order",
        [
            (("points", "head_to_head", "seed_order"), ["A", "B", "C", "D"]),
            (("points", "goal_difference", "goals_for", "seed_order"), ["B", "A", "C", "D"]),
        ],
    )
    def test_head_to_head_decides_live_and_replayed(self, scheme, criteria, order):
        spec = FormatSpec("iterated_round_robin", games_per_pair=2, scheme=scheme,
                          policy=TieBreakPolicy(criteria))
        live = run_format(spec, FixedGoalsSampler(self.NAMES, self.GOALS), derive_rng(17))
        assert live.ranking.order() == order
        assert replay_outcome(spec, self.NAMES, live).order() == order


# Four teams, ten games a pair, as (count, home goals, away goals). A and B
# both take 14 points-units (3 a win, 1 a draw) over k=10: A as 10 + 1 + 3,
# B as 10 + 4 + 0, which summed as per-pair means in float give
# 1.4000000000000001 and 1.4. Goal difference, -17 against -13, must decide.
TIED_ON_POINTS = {
    (0, 1): [(10, 0, 0)],
    (0, 2): [(1, 0, 0), (9, 0, 1)],
    (0, 3): [(1, 1, 0), (9, 0, 1)],
    (1, 2): [(1, 5, 0), (1, 0, 0), (8, 0, 1)],
    (1, 3): [(10, 0, 1)],
    (2, 3): [(10, 0, 0)],
}


class TestOracleLedger:
    NAMES = ["A", "B", "C", "D"]
    SPEC = FormatSpec("iterated_round_robin", games_per_pair=10)

    def ledger(self, pairs=TIED_ON_POINTS):
        names = self.NAMES
        games = [
            LedgerEntry(f"rr-{i + 1}v{j + 1}", GameResult(names[i], names[j], a, b))
            for (i, j), runs in pairs.items()
            for count, a, b in runs
            for _ in range(count)
        ]
        return TournamentOutcome(Ranking.from_order(self.NAMES), games, len(games))

    def test_equal_points_from_different_splits_go_to_goal_difference(self):
        replayed = replay_outcome(self.SPEC, self.NAMES, self.ledger())
        assert replayed.order() == ["D", "C", "B", "A"]
        goals = [[], []]
        for runs in TIED_ON_POINTS.values():
            goals[0].append([a for count, a, _ in runs for _ in range(count)])
            goals[1].append([b for count, _, b in runs for _ in range(count)])
        live = run_format(self.SPEC, FixedGoalsSampler(self.NAMES, goals), derive_rng(16, 0))
        assert live.ranking.places == replayed.places

    @pytest.mark.parametrize("away", ["E", "Z", "A2"])
    def test_team_outside_names_rejected(self, away):
        outcome = self.ledger()
        r = outcome.games[0].result
        outcome.games[0] = LedgerEntry(
            "rr-1v5", GameResult(r.home, away, r.home_goals, r.away_goals)
        )
        with pytest.raises(InvalidInputError, match=f"'{away}', a team not in names"):
            replay_outcome(self.SPEC, self.NAMES, outcome)

    @pytest.mark.parametrize("position", [0, -1])
    def test_home_team_outside_names_rejected(self, position):
        outcome = self.ledger()
        r = outcome.games[position].result
        outcome.games[position] = LedgerEntry("rr-5v1", r._replace(home="E"))
        with pytest.raises(InvalidInputError, match="'E', a team not in names"):
            replay_outcome(self.SPEC, self.NAMES, outcome)

    def test_empty_ledger_rejected(self):
        outcome = TournamentOutcome(Ranking.from_order(self.NAMES), [], 0)
        with pytest.raises(InvalidInputError, match=r"0 games of \(A, B\), not 10"):
            replay_outcome(self.SPEC, self.NAMES, outcome)

    def test_missing_pair_rejected(self):
        pairs = {p: runs for p, runs in TIED_ON_POINTS.items() if p != (1, 3)}
        with pytest.raises(InvalidInputError, match=r"0 games of \(B, D\)"):
            replay_outcome(self.SPEC, self.NAMES, self.ledger(pairs))

    @pytest.mark.parametrize("count", [9, 11])
    def test_wrong_game_count_rejected(self, count):
        pairs = dict(TIED_ON_POINTS)
        pairs[(2, 3)] = [(count, 0, 0)]
        with pytest.raises(InvalidInputError, match=rf"{count} games of \(C, D\)"):
            replay_outcome(self.SPEC, self.NAMES, self.ledger(pairs))
