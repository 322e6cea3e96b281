import hashlib
import math
import re
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
    CampaignSpec,
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
    TournsimError,
    UnsupportedSizeError,
    derive_rng,
    rank_from_fixed_results,
    replay_outcome,
    run_campaign,
    run_format,
)
from tournsim import fixtures, formats
from tournsim.formats import (
    _BEST_OF_THREE,
    BRACKETS,
    KINDS,
    KO,
    LEGS,
    PLAYOFF,
    RR,
    _TABLES,
    Ledger,
    _ledger_labels,
    _pair_index,
    _scheme_matrices,
    _seed_rows,
)
from tournsim.scoring import league_table, rank

from built import built
from duck_sampler import DuckSampler
from reference_ranking import ALL_POLICIES, reference_rank, reference_standings
from samplers import NAMES8, chain_sampler, flat_sampler, oracle


def dominant_sampler():
    """T0 scores 60 per game against anyone and never concedes."""
    m = np.full((8, 8), 1.0)
    m[0, :] = 60.0
    m[:, 0] = 0.0
    np.fill_diagonal(m, np.nan)
    return PoissonSampler(PairwiseGoalModel(NAMES8, m))


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
    games = [e.result for e in outcome.games if e.stage.startswith("rr-")]
    return rank(reference_standings(games, NAMES8), spec.policy, NAMES8, games).places


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

    @pytest.mark.parametrize("seeding, value", [
        ((True, 0, 2, 3, 4, 5, 6, 7), "True"),
        ((0, 1, 2, 3, 4, 5, 6, 7.9), "7.9"),
        ((0, 1, 2, 3, 4, 5, 6, math.nan), "nan"),
    ])
    def test_seeding_index_not_an_integer_rejected(self, seeding, value):
        # Not cast: True would play as team 1, and 7.9 as team 7.
        match = f"seeding indices must be integers, not {value}"
        with pytest.raises(InvalidInputError, match=f"^{match}$"):
            FormatSpec("format_2013_double_elim", seeding=seeding)
        # A spec forged past its constructor is still rejected where it is played.
        spec = tuple.__new__(FormatSpec, (*FormatSpec("format_2013_double_elim")[:-1], seeding))
        with pytest.raises(InvalidInputError, match=f"^{match}$"):
            run_format(spec, flat_sampler(), derive_rng(8, 2))
        out = run_format(FormatSpec("format_2013_double_elim"), flat_sampler(), derive_rng(8, 2))
        with pytest.raises(InvalidInputError, match=f"^{match}$"):
            replay_outcome(spec, NAMES8, out)
        # Both campaign engines: batched, and the scalar fallback.
        for sampler in (flat_sampler(), DuckSampler(flat_sampler())):
            campaign = CampaignSpec(spec, sampler, Ranking.from_order(NAMES8), 5, 1)
            with pytest.raises(TournsimError, match=match):
                run_campaign(campaign)

    def test_integral_float_seeding_index_accepted(self):
        spec = FormatSpec("format_2013_double_elim", seeding=(7.0, 1, 2, 3, 4, 5, 6, 0.0))
        out = run_format(spec, flat_sampler(), derive_rng(8, 3))
        assert out.seeding == (7, 1, 2, 3, 4, 5, 6, 0)
        assert replay_outcome(spec, NAMES8, out) == out.ranking

    @pytest.mark.parametrize("given, kept", [
        (list(reversed(NAMES8)), tuple(reversed(NAMES8))),
        (np.array(NAMES8[::-1]), tuple(reversed(NAMES8))),
        (np.arange(8)[::-1], (7, 6, 5, 4, 3, 2, 1, 0)),
    ], ids=["list", "array-of-names", "array-of-indices"])
    def test_seeding_sequence_kept_as_a_tuple(self, given, kept):
        # A list kept as given would leave the frozen spec unhashable, and
        # an array would fail every run on its ambiguous truth value.
        spec = FormatSpec("format_2012", seeding=given)
        want = FormatSpec("format_2012", seeding=kept)
        assert isinstance(spec.seeding, tuple)
        assert spec == want and hash(spec) == hash(want)
        sampler = flat_sampler()
        out = run_format(spec, sampler, derive_rng(8, 4))
        assert out.seeding == tuple(range(7, -1, -1))
        assert out.games == run_format(want, sampler, derive_rng(8, 4)).games
        truth = Ranking.from_order(NAMES8)
        assert (run_campaign(CampaignSpec(spec, sampler, truth, 300, 5)).counts
                == run_campaign(CampaignSpec(want, sampler, truth, 300, 5)).counts)

    def test_random_seeding_records_row_0_of_the_seed_rows(self):
        spec = FormatSpec("format_2012", seeding=RANDOM_SEEDING)
        for k in range(5):
            out = run_format(spec, flat_sampler(), derive_rng(14, k))
            row = _seed_rows(RANDOM_SEEDING, NAMES8, derive_rng(14, k), 1)[0]
            assert out.seeding == tuple(row.tolist())

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

    def test_oracle_of_one_team_rejected(self):
        with pytest.raises(UnsupportedSizeError, match="^need at least 2 teams$"):
            run_format(oracle(1), FixedGoalsSampler(["A"], [[], []]), derive_rng(11, 0))

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

    @pytest.mark.parametrize("spec", [oracle(3), FormatSpec("format_2012")],
                             ids=lambda s: s.kind)
    def test_outcome_without_a_ledger_rejected(self, spec):
        out = run_format(spec, flat_sampler(), derive_rng(13, 0), keep_games=False)
        with pytest.raises(InvalidInputError, match="^outcome carries no game ledger$"):
            replay_outcome(spec, NAMES8, out)

    @pytest.mark.parametrize("kind", BRACKETS)
    def test_dropped_ledger_builds_no_entry(self, kind, monkeypatch):
        # The games are counted, but entries are built for a kept ledger only.
        spec = FormatSpec(kind)
        want = run_format(spec, flat_sampler(), derive_rng(13, 1))

        def entry(fields):
            raise AssertionError("a ledger entry was built")

        monkeypatch.setattr(formats, "_entry", entry)
        out = run_format(spec, flat_sampler(), derive_rng(13, 1), keep_games=False)
        assert out == want._replace(games=None)
        with pytest.raises(AssertionError, match="entry was built"):
            run_format(spec, flat_sampler(), derive_rng(13, 1))

    def test_replay_rejects_random_seeding(self):
        # without the seeding the run recorded, a random seeding is unknown
        spec = FormatSpec("proposed", seeding="random")
        out = run_format(spec, flat_sampler(), derive_rng(13, 0))._replace(seeding=None)
        with pytest.raises(InvalidInputError, match="seeding"):
            replay_outcome(spec, NAMES8, out)


def swapped_teams(entry, home, away):
    r = entry.result
    return LedgerEntry(entry.stage, GameResult(home, away, r.home_goals, r.away_goals),
                       entry.winner)


def replaced(out, p, entry):
    """`out` with `entry` in place of its game p."""
    games = list(out.games)
    games[p] = entry
    return out._replace(games=games)


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
            out = replaced(out, p, swapped_teams(out.games[p], home, away))
            with pytest.raises(InvalidInputError, match="expected"):
                replay_outcome(spec, NAMES8, out)

    @pytest.mark.parametrize("kind", ["format_2012", "format_2013_double_elim", "proposed"])
    def test_winner_outside_the_slot_rejected(self, kind):
        spec, out = self.live(kind)
        p, entry = next((p, e) for p, e in enumerate(out.games) if e.winner is not None)
        r = entry.result
        outsider = next(n for n in NAMES8 if n not in (r.home, r.away))
        for winner in ("T9", outsider):
            with pytest.raises(InvalidInputError, match="winner"):
                replay_outcome(spec, NAMES8, replaced(out, p, entry._replace(winner=winner)))

    @pytest.mark.parametrize("kind", ["format_2012", "format_2013_double_elim", "proposed"])
    def test_winner_against_the_result_rejected(self, kind):
        # the last game decides places and feeds no later slot
        spec, out = next(
            (spec, out) for spec, out in (self.live(kind, k) for k in range(100))
            if out.games[-1].result.home_goals != out.games[-1].result.away_goals
        )
        r = out.games[-1].result
        loser = r.away if r.home_goals > r.away_goals else r.home
        out = replaced(out, -1, out.games[-1]._replace(winner=loser))
        with pytest.raises(InvalidInputError, match="winner"):
            replay_outcome(spec, NAMES8, out)

    @pytest.mark.parametrize("kind", ["format_2012", "format_2013_double_elim", "proposed"])
    def test_entries_after_the_last_stage_rejected(self, kind):
        spec, out = self.live(kind)
        out = out._replace(games=out.games + out.games[-1:], games_total=out.games_total + 1)
        with pytest.raises(InvalidInputError, match="1 ledger entries left"):
            replay_outcome(spec, NAMES8, out)

    @pytest.mark.parametrize("kind", ["format_2012", "format_2013_double_elim", "proposed"])
    def test_ledger_that_ends_early_rejected(self, kind):
        spec, out = self.live(kind)
        out = out._replace(games=out.games[:-1], games_total=out.games_total - 1)
        with pytest.raises(InvalidInputError, match="^ledger exhausted during replay$"):
            replay_outcome(spec, NAMES8, out)

    def test_entry_of_another_stage_rejected(self):
        spec, out = self.live("format_2012")
        entry = out.games[12]
        assert entry.stage == "semi1-leg1"
        out = replaced(out, 12, LedgerEntry("semi2-leg1", entry.result, entry.winner))
        with pytest.raises(InvalidInputError, match="^ledger stage 'semi2-leg1' does not "
                                                    "match expected 'semi1-leg1'$"):
            replay_outcome(spec, NAMES8, out)

    def test_drawn_slot_without_winner_rejected(self):
        spec, out = next(
            (spec, out) for spec, out in (self.live("format_2013_double_elim", k)
                                          for k in range(100))
            if out.games[-1].result.home_goals == out.games[-1].result.away_goals
        )
        out = replaced(out, -1, out.games[-1]._replace(winner=None))
        with pytest.raises(InvalidInputError,
                           match="^drawn knockout game without recorded winner$"):
            replay_outcome(spec, NAMES8, out)

    def test_decided_slot_without_winner_takes_its_natural_winner(self):
        spec, out = self.live("format_2013_double_elim")
        decided = [p for p, e in enumerate(out.games)
                   if e.winner is not None and e.result.home_goals != e.result.away_goals]
        assert decided
        for p in decided:
            out = replaced(out, p, out.games[p]._replace(winner=None))
        assert replay_outcome(spec, NAMES8, out).places == out.ranking.places

    @pytest.mark.parametrize(
        "kind, best_of_three, stage",
        [("format_2012", False, "groupA-1v2"), ("format_2012", False, "groupB-3v4"),
         ("format_2012", False, "semi1-leg1"), ("proposed", False, "rr-7v8"),
         ("proposed", True, "po-5-6-g1")],
    )
    def test_winner_on_a_game_that_settles_no_slot_rejected(self, kind, best_of_three, stage):
        # A round robin game, a first leg and the first game of a best of
        # three (a series lasts two games at least) settle no slot.
        spec = FormatSpec(kind, best_of_three=best_of_three)
        out = run_format(spec, flat_sampler(), derive_rng(18, 0))
        p, entry = next((p, e) for p, e in enumerate(out.games) if e.stage == stage)
        assert entry.winner is None
        for winner in ("NotATeam", entry.result.home):
            with pytest.raises(InvalidInputError, match=f"^ledger game '{stage}' records winner "
                                                        f"'{winner}' but settles no knockout slot$"):
                replay_outcome(spec, NAMES8, replaced(out, p, entry._replace(winner=winner)))

    def test_winner_on_a_series_game_that_does_not_end_it_rejected(self):
        # A three-game series: its second game settles no slot either.
        spec = FormatSpec("proposed", best_of_three=True)
        runs = (run_format(spec, flat_sampler(), derive_rng(18, k)) for k in range(100))
        out, p = next((out, p - 1) for out in runs
                      for p, e in enumerate(out.games) if e.stage.endswith("-g3"))
        entry = out.games[p]
        assert entry.stage.endswith("-g2") and entry.winner is None
        out = replaced(out, p, entry._replace(winner=entry.result.away))
        with pytest.raises(InvalidInputError, match=f"^ledger game '{entry.stage}' records"):
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


@pytest.mark.parametrize("best_of_three", [False, True])
@pytest.mark.parametrize("kind", list(BRACKETS))
def test_precomputed_labels_are_those_of_the_stage_table(kind, best_of_three):
    # Both engines read each stage's ledger labels and resolved kind off a
    # table compiled once; they must be those the stage table names, in
    # playing order.
    stages, places = BRACKETS[kind]
    want = []
    for label, stage_kind, refs in stages:
        if stage_kind == RR:
            want.append([(f"{label}{a + 1}v{b + 1}", a, b)
                         for a in range(len(refs)) for b in range(a + 1, len(refs))])
        elif stage_kind == LEGS:
            want.append([f"{label}-leg1", f"{label}-leg2"])
        elif stage_kind == PLAYOFF and best_of_three:
            want.append([f"{label}-g1", f"{label}-g2", f"{label}-g3"])
        else:
            want.append([label])
    table, table_places, width = _TABLES[kind, best_of_three]
    assert [list(games) for _, games, _, _ in table] == want
    resolved = {PLAYOFF: _BEST_OF_THREE if best_of_three else KO}
    assert [k for k, *_ in table] == [resolved.get(s[1], s[1]) for s in stages]
    assert len(table_places) == len(places)
    assert width == len(places) + sum(len(refs) for _, _, refs in stages)


def test_compiled_board_columns_of_the_2012_format():
    # Columns 0-7 are the seeds; each stage yields to the next free columns.
    table, places, width = _TABLES["format_2012", False]
    assert [(teams, yields) for _, _, teams, yields in table] == [
        ((0, 3, 4, 7), (8, 9, 10, 11)),  # group A: seeds 1, 4, 5, 8
        ((1, 2, 5, 6), (12, 13, 14, 15)),  # group B: seeds 2, 3, 6, 7
        ((8, 13), (16, 17)),  # semi1: A1 v B2
        ((12, 9), (18, 19)),  # semi2: B1 v A2
        ((16, 18), (20, 21)),  # final: semifinal winners
        ((17, 19), (22, 23)),  # third place: semifinal losers
        ((10, 14), (24, 25)),  # class-5-6: A3 v B3
        ((11, 15), (26, 27)),  # class-7-8: A4 v B4
    ]
    assert places == tuple(range(20, 28))
    assert width == 28


class TestBracketProperties:
    @settings(max_examples=300)
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
        spec = PINNED_SPECS[fmt]._replace(decisive=decisive, seeding=PINNED_SEEDINGS[seeding])
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

    @pytest.mark.parametrize("field", ["names", "goals"])
    def test_fields_cannot_be_reassigned(self, field):
        table = fixtures.load_combined_table(2013)
        names, goals = list(table.names), table.goals.tolist()
        with pytest.raises(AttributeError):
            setattr(table, field, np.full((8, 8, 2), -1.0))
        assert (list(table.names), table.goals.tolist()) == (names, goals)
        r = rank_from_fixed_results(table, playoff_overrides=fixtures.PLAYOFF_OVERRIDES_2013)
        assert r.places == fixtures.R_P_2013.places

    def test_names_are_a_tuple_of_their_own(self):
        # A write into the caller's list after construction, or into the
        # table's names, cannot put a team in the table twice.
        names = list(NAMES8)
        table = FixedResultTable(names, np.ones((8, 8, 2)))
        names[1] = "T0"
        assert table.names == tuple(NAMES8)
        with pytest.raises(TypeError):
            table.names[1] = "T0"
        assert rank_from_fixed_results(table).order() == NAMES8

    def test_duplicate_name_rejected(self):
        with pytest.raises(InvalidInputError, match="duplicate team name"):
            FixedResultTable(["T0", *NAMES8[:7]], np.ones((8, 8, 2)))

    def test_tables_compare_without_reading_their_goals(self):
        # A comparison of the goals arrays would have no single truth value,
        # so tables compare as PairwiseGoalModel does: by identity.
        table, same = fixtures.load_combined_table(2013), fixtures.load_combined_table(2013)
        assert (table == same) is False and (table != same) is True
        assert table == table and not table != table
        assert len({table, same}) == 2

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

    def test_overrides_are_read_not_changed(self):
        table = fixtures.load_combined_table(2013)
        plain = rank_from_fixed_results(table)
        assert plain.order()[:2] == ["Wright", "Helios"]
        overrides = {frozenset(("Wright", "Helios")): "Helios"}
        kept = dict(overrides)
        swapped = rank_from_fixed_results(table, playoff_overrides=overrides)
        assert swapped.order()[:2] == ["Helios", "Wright"] and overrides == kept
        assert rank_from_fixed_results(table, playoff_overrides={}) == plain

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
    row-major order), whatever the generator, to a `sample_many` over index
    arrays, as the oracle calls it."""

    backend = "fixed"

    def __init__(self, names, goals):
        self.names = list(names)
        n = len(self.names)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self._games = {pair: (goals[0][p], goals[1][p]) for p, pair in enumerate(pairs)}

    def sample_many(self, i, j, count, rng):
        games = [self._games[pair] for pair in zip(i.tolist(), j.tolist())]
        for home, _ in games:
            assert len(home) == count
        return np.array(games).transpose(1, 0, 2)  # (2, pairs, count)


def fraction_standings(names, goals, scheme):
    """The schemes' definitions in exact arithmetic: per pair the mean
    points and goals of its k games (continuous), or the pair's mean
    scoreline rounded half away from zero to one game (discrete). Returns
    the standings and the games they score, for head-to-head."""
    n = len(names)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    zero = Fraction(0)
    totals = {name: (zero, zero, zero) for name in names}
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
            points, goals_for, goals_against = totals[names[team]]
            totals[names[team]] = (points + pts, goals_for + scored, goals_against + conceded)
    return {name: TeamStats(*total) for name, total in totals.items()}, played


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
    @settings(max_examples=100)
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
        # Its entries replay in ledger order alone: in another order, or
        # with a game the other way round, they are rejected.
        games = list(live.games)
        assert replay_outcome(spec, names, TournamentOutcome(live.ranking, games, len(games))
                              ).places == live.ranking.places
        games = [flipped(e) if shuffle.random() < 0.5 else e for e in games]
        shuffle.shuffle(games)
        mixed = TournamentOutcome(live.ranking, games, len(games))
        if games == list(live.games):
            assert replay_outcome(spec, names, mixed).places == live.ranking.places
        else:
            with pytest.raises(InvalidInputError, match="^ledger game 'rr-"):
                replay_outcome(spec, names, mixed)


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
        """The entries of `pairs`, labelled game by game as the oracle
        labels them."""
        names = self.NAMES
        games = [
            LedgerEntry(f"rr-{i + 1}v{j + 1}-g{g + 1}", GameResult(names[i], names[j], a, b))
            for (i, j), runs in pairs.items()
            for g, (a, b) in enumerate((a, b) for count, a, b in runs for _ in range(count))
        ]
        return TournamentOutcome(Ranking.from_order(self.NAMES), games, len(games))

    def draws(self):
        """The goals of TIED_ON_POINTS as lists, (2, pairs, games)."""
        goals = [[], []]
        for runs in TIED_ON_POINTS.values():
            goals[0].append([a for count, a, _ in runs for _ in range(count)])
            goals[1].append([b for count, _, b in runs for _ in range(count)])
        return goals

    def test_equal_points_from_different_splits_go_to_goal_difference(self):
        replayed = replay_outcome(self.SPEC, self.NAMES, self.ledger())
        assert replayed.order() == ["D", "C", "B", "A"]
        live = run_format(self.SPEC, FixedGoalsSampler(self.NAMES, self.draws()),
                          derive_rng(16, 0))
        assert live.ranking.places == replayed.places

    @pytest.mark.parametrize("keep_games", [True, False])
    @pytest.mark.parametrize("goal, match", [(0.4, "integers, not 0.4"),
                                             (math.nan, "integers, not nan"),
                                             (-1, "nonnegative")])
    def test_draw_that_no_game_has_rejected(self, keep_games, goal, match):
        # Checked, not cast: int64 would read 0.4 as 0.
        goals = self.draws()
        goals[1][2][5] = goal
        with pytest.raises(InvalidInputError, match=f"^goals must be {match}$"):
            run_format(self.SPEC, FixedGoalsSampler(self.NAMES, goals), derive_rng(16, 0),
                       keep_games)

    def test_integral_float_draws_are_ints(self):
        goals = self.draws()
        floats = [[[float(g) for g in pair] for pair in side] for side in goals]
        want = run_format(self.SPEC, FixedGoalsSampler(self.NAMES, goals), derive_rng(16, 0))
        got = run_format(self.SPEC, FixedGoalsSampler(self.NAMES, floats), derive_rng(16, 0))
        assert got.games.goals.dtype == np.int64
        assert got.games == want.games and got.ranking.places == want.ranking.places

    def test_entry_with_a_fractional_goal_rejected(self):
        # A result forged past the constructor is rebuilt by the replay.
        outcome = self.ledger()
        stage, (home, away, _, away_goals) = outcome.games[3].stage, outcome.games[3].result
        outcome = replaced(outcome, 3, LedgerEntry(stage, tuple.__new__(
            GameResult, (home, away, 0.4, away_goals))))
        with pytest.raises(InvalidInputError, match="^goals must be integers, not 0.4$"):
            replay_outcome(self.SPEC, self.NAMES, outcome)

    def test_empty_ledger_rejected(self):
        outcome = TournamentOutcome(Ranking.from_order(self.NAMES), [], 0)
        with pytest.raises(InvalidInputError, match="^ledger has 0 games, not 60$"):
            replay_outcome(self.SPEC, self.NAMES, outcome)

    def test_missing_pair_rejected(self):
        pairs = {p: runs for p, runs in TIED_ON_POINTS.items() if p != (1, 3)}
        with pytest.raises(InvalidInputError, match="^ledger has 50 games, not 60$"):
            replay_outcome(self.SPEC, self.NAMES, self.ledger(pairs))

    @pytest.mark.parametrize("count", [9, 11])
    def test_wrong_game_count_rejected(self, count):
        pairs = dict(TIED_ON_POINTS)
        pairs[(2, 3)] = [(count, 0, 0)]
        with pytest.raises(InvalidInputError, match=f"^ledger has {50 + count} games, not 60$"):
            replay_outcome(self.SPEC, self.NAMES, self.ledger(pairs))

    @pytest.mark.parametrize("position", [0, 25, -1])
    def test_entry_that_records_a_winner_rejected(self, position):
        # No round robin game settles a slot.
        outcome = self.ledger()
        entry = outcome.games[position]
        outcome = replaced(outcome, position, entry._replace(winner=entry.result.away))
        with pytest.raises(InvalidInputError, match=f"^ledger game '{entry.stage}' records "
                                                    f"winner '{entry.result.away}' but settles "
                                                    "no knockout slot$"):
            replay_outcome(self.SPEC, self.NAMES, outcome)

    @pytest.mark.parametrize("k", [0, 9, 11])
    def test_ledger_of_another_game_count_rejected(self, k):
        ledger = Ledger(self.NAMES, np.zeros((2, 6, k), int))
        outcome = TournamentOutcome(Ranking.from_order(self.NAMES), ledger, len(ledger))
        with pytest.raises(InvalidInputError, match=re.escape(
                f"ledger of ('A', 'B', 'C', 'D'), {k} games a pair, replayed as one of "
                "('A', 'B', 'C', 'D'), 10 games a pair")):
            replay_outcome(self.SPEC, self.NAMES, outcome)

    @pytest.mark.parametrize("as_list", [False, True])
    def test_names_in_another_order_rejected(self, as_list):
        # Every game 0-0: the ranking is the seed order, A then B. Read under
        # names B, A, the same games would rank B first.
        spec = oracle(3)
        sampler = PoissonSampler(PairwiseGoalModel(["A", "B"], np.zeros((2, 2))))
        live = run_format(spec, sampler, derive_rng(22, 0))
        assert live.ranking.order() == ["A", "B"]
        games = list(live.games) if as_list else live.games
        outcome = TournamentOutcome(live.ranking, games, len(games))
        assert replay_outcome(spec, ["A", "B"], outcome).order() == ["A", "B"]
        match = ("^ledger game 'rr-1v2-g1' of A v B is not 'rr-1v2-g1' of B v A$" if as_list
                 else re.escape("ledger of ('A', 'B'), 3 games a pair, replayed as one of "
                                "('B', 'A'), 3 games a pair"))
        with pytest.raises(InvalidInputError, match=match):
            replay_outcome(spec, ["B", "A"], outcome)

    @pytest.mark.parametrize("g", [0, 1, 9, 10, 37, 58])
    def test_entry_list_out_of_ledger_order_rejected(self, g):
        # Game g relabelled, played the other way round, or moved to the
        # end: the error names the first entry that is not the ledger's.
        want = list(self.ledger().games)
        label, (home, away, *_) = want[g].stage, want[g].result
        expected = f" is not '{label}' of {home} v {away}$"
        moved = want[g + 1]
        for games, named in [
            (want[:g] + [LedgerEntry("rr-1v2", want[g].result)] + want[g + 1:],
             f"'rr-1v2' of {home} v {away}{expected}"),
            (want[:g] + [flipped(want[g])] + want[g + 1:], f"'{label}' of {away} v {home}"
                                                           f"{expected}"),
            (want[:g] + want[g + 1:] + [want[g]],
             f"'{moved.stage}' of {moved.result.home} v {moved.result.away}{expected}"),
        ]:
            outcome = TournamentOutcome(Ranking.from_order(self.NAMES), games, len(games))
            with pytest.raises(InvalidInputError, match=f"^ledger game {named}"):
                replay_outcome(self.SPEC, self.NAMES, outcome)


def oracle_entries(names, goals):
    """The entries of an oracle ledger, built one by one from its
    (2, pairs, k) goals array: pair by pair as `_pair_index`, game by
    game, labelled by `_ledger_labels`."""
    k = goals.shape[2]
    labels = iter(_ledger_labels(len(names), k))
    return [LedgerEntry(next(labels), GameResult(names[i], names[j], *goals[:, p, g].tolist()))
            for p, (i, j) in enumerate(_pair_index(len(names)).T.tolist()) for g in range(k)]


class TestLedger:
    """The oracle's ledger is its columns, read as a sequence of entries."""

    def live(self):
        sampler = PoissonSampler(fixtures.load_goal_model(2012))
        out = run_format(oracle(3), sampler, derive_rng(21, 0))
        goals = sampler.sample_many(*_pair_index(8), 3, derive_rng(21, 0))
        return out.games, oracle_entries(sampler.names, goals)

    def test_reads_as_the_entries_built_by_hand(self):
        ledger, want = self.live()
        assert isinstance(ledger, Ledger)
        assert len(ledger) == len(want) == 84
        for g in (0, 1, 41, 83, -1, -84):
            assert ledger[g] == want[g]
        for part in (slice(5, 10), slice(None, None, -7), slice(80, 100), slice(-3, None),
                     slice(10, 5)):
            assert ledger[part] == want[part]
        assert list(ledger) == want
        assert [e.stage for e in ledger[:4]] == ["rr-1v2-g1", "rr-1v2-g2", "rr-1v2-g3",
                                                 "rr-1v3-g1"]
        assert ledger[-1].stage == "rr-7v8-g3"

    def test_its_entry_list_replays_as_the_ledger(self):
        ledger, want = self.live()
        assert Ledger(ledger.names, ledger.goals) == ledger == want
        outcome = TournamentOutcome(Ranking.from_order(ledger.names), ledger, len(ledger))
        ranking = replay_outcome(oracle(3), ledger.names, outcome)
        as_list = TournamentOutcome(outcome.ranking, list(ledger), len(ledger))
        assert replay_outcome(oracle(3), ledger.names, as_list) == ranking

    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_labels_and_teams_are_the_layout_the_oracle_draws(self, n, k):
        # Pair by pair (i < j, row-major), game by game, team i at home.
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        ledger = Ledger(NAMES8[:n] + ["X"] * (n > 8), np.ones((2, len(pairs), k), int))
        assert ledger.labels == tuple(f"rr-{i + 1}v{j + 1}-g{g + 1}"
                                      for i, j in pairs for g in range(k))
        assert ledger.teams.dtype == np.int64
        assert ledger.teams.tolist() == [[i for i, _ in pairs for _ in range(k)],
                                         [j for _, j in pairs for _ in range(k)]]
        assert [e.stage for e in ledger] == list(ledger.labels)

    @pytest.mark.parametrize("g", [84, -85, 1000])
    def test_index_past_the_end_rejected(self, g):
        ledger, _ = self.live()
        with pytest.raises(IndexError):
            ledger[g]

    def test_repr_lists_its_entries(self):
        # pytest prints it when a comparison of ledgers fails.
        ledger = Ledger(["A", "B"], [[[2]], [[1]]])
        assert repr(ledger) == (
            "Ledger([LedgerEntry(stage='rr-1v2-g1', result=GameResult(home='A', away='B', "
            "home_goals=2, away_goals=1), winner=None)])")

    def test_read_only(self):
        ledger, want = self.live()
        with pytest.raises(TypeError):
            ledger[0] = want[1]
        with pytest.raises(ValueError, match="read-only"):
            ledger.goals[0, 0, 0] = 7
        # The teams are derived, not kept: a write to them changes no game.
        ledger.teams[0, 0] = 7
        assert list(ledger) == want

    def test_equals_the_same_entries_only(self):
        ledger, want = self.live()
        assert ledger == want and want == ledger and not ledger != want
        assert ledger == Ledger(ledger.names, ledger.goals)
        r = want[40].result
        changed = list(want)
        changed[40] = LedgerEntry(want[40].stage, r._replace(away_goals=r.away_goals + 1))
        assert ledger != changed and changed != ledger
        goals = ledger.goals.copy()
        goals[1, 13, 1] += 1  # game 40: the second of pair 13
        other = Ledger(ledger.names, goals)
        assert other == changed and ledger != other
        assert ledger != want[:-1]
        # As a list never equals a tuple.
        assert ledger != tuple(want)
        with pytest.raises(TypeError):
            hash(ledger)

    @pytest.mark.parametrize("renamed, reported", [((5, 2), 2), ((7, 3), 3), ((7,), 7)])
    def test_ledger_of_other_names_rejected(self, renamed, reported):
        # The ledger's names must be the replay's; a list of its entries is
        # rejected at its first game of a renamed team.
        ledger, _ = self.live()
        names = list(ledger.names)
        for t in renamed:
            names[t] = f"X{t}"
        tampered = Ledger(names, ledger.goals)
        first = next(e for e in tampered if f"X{reported}" in e.result[:2])
        for games, match in (
            (tampered, re.escape(f"ledger of {tuple(names)}, 3 games a pair, replayed as "
                                 f"one of {ledger.names}, 3 games a pair")),
            (list(tampered), f"^ledger game '{first.stage}' of .*X{reported}.* is not "),
        ):
            outcome = TournamentOutcome(Ranking.from_order(ledger.names), games, len(games))
            with pytest.raises(InvalidInputError, match=match):
                replay_outcome(oracle(3), ledger.names, outcome)

    @pytest.mark.parametrize("names, goals, match", [
        (("A", "B"), [[[1], [2]], [[0], [0]]], r"^goals of shape \(2, 2, 1\) do not fit the 1 "
                                               r"pairs of 2 teams$"),
        (("A", "B"), [[1], [0]], r"shape \(2, 1\)"),
        (("A", "B"), [[[1]]], r"shape \(1, 1, 1\)"),
        (("A", "B", "C"), [[[1]], [[0]]], "the 3 pairs of 3 teams"),
        (("A", "B"), [[[1]], [[0, 1]]], "shape"),
        (("A", "A"), [[[1]], [[0]]], "^duplicate team name in ledger$"),
        (("A", "B"), [[[0.4]], [[0]]], "^goals must be integers, not 0.4$"),
        (("A", "B"), [[[1]], [[-1]]], "^goals must be nonnegative$"),
        (("A", "B"), np.array([[[1]], [[-1]]]), "^goals must be nonnegative$"),
    ])
    def test_goals_that_do_not_fit_rejected(self, names, goals, match):
        with pytest.raises(InvalidInputError, match=match):
            Ledger(names, goals)

    @pytest.mark.parametrize("goals, goal", [
        ([[[10**20]], [[0]]], 10**20),
        (np.array([[[1]], [[2**63]]], np.uint64), 2**63),
        (np.array([[[2**64 - 1]], [[0]]], np.uint64), 2**64 - 1),
    ])
    def test_goal_past_int64_rejected_as_too_large(self, goals, goal):
        # Not an OverflowError, nor a uint64 cast to a negative int64.
        with pytest.raises(InvalidInputError,
                           match=f"^goal {goal} is too large for the ledger, which holds "
                                 f"goals up to {2**63 - 1}$"):
            Ledger(("A", "B"), goals)

    def test_largest_int64_goal_kept(self):
        for goals in ([[[2**63 - 1]], [[0]]], np.array([[[2**63 - 1]], [[0]]], np.uint64)):
            assert Ledger(("A", "B"), goals)[0].result.home_goals == 2**63 - 1

    def test_an_entry_is_read_without_the_team_array(self, monkeypatch):
        # Reading one entry reads one game: `ledger[i]`, `reversed` and
        # `index` do not rebuild the (2, games) team array per entry.
        ledger, want = self.live()

        def teams(self):
            raise AssertionError("the team array was built")

        monkeypatch.setattr(Ledger, "teams", property(teams))
        assert [ledger[g] for g in range(-len(want), len(want))] == want + want
        assert list(reversed(ledger)) == want[::-1]
        assert ledger.index(want[50]) == 50

    def test_team_indices_are_int64(self):
        ledger, _ = self.live()
        assert ledger.teams.dtype == np.int64 and ledger.teams.shape == (2, 84)
        empty = Ledger(("A",), np.zeros((2, 0, 1)))
        assert empty.teams.dtype == np.int64 and empty.teams.shape == (2, 0)
        assert len(empty) == 0 and list(empty) == []

    @settings(max_examples=60)
    @given(k=st.integers(1, 5), scheme=st.sampled_from(["continuous", "discrete"]),
           names=st.permutations(NAMES8), mean=st.sampled_from([0.2, 1.3, 4.0]),
           seed=st.integers(0, 2**32), g=st.integers(0, 10**6),
           other=st.integers(0, 5), renamed=st.integers(0, 7))
    def test_replays_as_its_entry_list(self, k, scheme, names, mean, seed, g, other, renamed):
        spec = FormatSpec("iterated_round_robin", games_per_pair=k, scheme=scheme)
        live = run_format(spec, flat_sampler(mean=mean), derive_rng(seed))
        ledger = live.games

        def replayed(games, names=NAMES8):
            outcome = TournamentOutcome(live.ranking, games, len(games))
            return built(lambda: replay_outcome(spec, names, outcome).places)

        assert replayed(ledger) == replayed(list(ledger)) == live.ranking.places
        # Under names in another order both are rejected.
        if names != NAMES8:
            assert replayed(ledger, names)[0] is InvalidInputError
            assert replayed(list(ledger), names)[0] is InvalidInputError
        # One game moved to another pair, one game dropped, one team renamed
        # to a team outside names.
        g %= len(ledger)
        entries = list(ledger)
        stage, result = entries[g].stage, entries[g].result
        moved = list(entries)
        moved[g] = LedgerEntry(stage, result._replace(
            away=[t for t in NAMES8 if t not in result[:2]][other]))
        outside = list(ledger.names)
        outside[renamed] = "T9"
        for tampered in (moved, entries[:g] + entries[g + 1:], Ledger(outside, ledger.goals),
                         list(Ledger(outside, ledger.goals))):
            assert replayed(tampered)[0] is InvalidInputError


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs, match", [
        ({"max_replays": -1}, "^max_replays must be >= 0, not -1$"),
        ({"final_resolution": "toss"}, "^unknown final_resolution 'toss'$"),
        ({"max_replays": 1.5}, "^max_replays must be an integer, not 1.5$"),
        ({"max_replays": True}, "^max_replays must be an integer, not True$"),
        ({"max_replays": "1"}, "^max_replays must be an integer, not '1'$"),
    ])
    def test_decisive_policy_rejected(self, kwargs, match):
        with pytest.raises(InvalidInputError, match=match):
            DecisivePolicy(**kwargs)

    @pytest.mark.parametrize("kind, kwargs, match", [
        ("swiss", {}, "^unknown format kind 'swiss'$"),
        ("iterated_round_robin", {"games_per_pair": 0}, "^games_per_pair must be >= 1, not 0$"),
        ("proposed", {"scheme": "elo"}, "^unknown scheme 'elo'$"),
        ("proposed", {"seeding": "rnd"}, "^unknown seeding 'rnd'$"),
        ("proposed", {"seeding": {"T0"}}, r"^seeding is not a sequence: \{'T0'\}$"),
        ("proposed", {"seeding": 5}, "^seeding is not a sequence: 5$"),
        ("iterated_round_robin", {"games_per_pair": 2.5},
         "^games_per_pair must be an integer, not 2.5$"),
        ("iterated_round_robin", {"games_per_pair": "3"},
         "^games_per_pair must be an integer, not '3'$"),
        ("iterated_round_robin", {"games_per_pair": True},
         "^games_per_pair must be an integer, not True$"),
        # Unchecked, run_format would end in KeyError: ('proposed', 'yes').
        ("proposed", {"best_of_three": "yes"}, "^best_of_three must be a bool, not 'yes'$"),
        ("proposed", {"best_of_three": 1}, "^best_of_three must be a bool, not 1$"),
        ("proposed", {"best_of_three": None}, "^best_of_three must be a bool, not None$"),
        ("proposed", {"decisive": 3}, "^decisive must be a DecisivePolicy, not 3$"),
        ("format_2013_double_elim", {"decisive": (1, UNIFORM_COIN)},
         r"^decisive must be a DecisivePolicy, not \(1, 'uniform_coin'\)$"),
        ("proposed", {"policy": "points"}, "^policy must be a TieBreakPolicy, not 'points'$"),
        ("proposed", {"policy": ("points", "seed_order")},
         r"^policy must be a TieBreakPolicy, not \('points', 'seed_order'\)$"),
    ])
    def test_format_spec_rejected(self, kind, kwargs, match):
        with pytest.raises(InvalidInputError, match=match):
            FormatSpec(kind, **kwargs)

    @pytest.mark.parametrize("flag", [np.bool_(True), np.bool_(False)])
    def test_numpy_bool_kept_as_a_bool(self, flag):
        spec = FormatSpec("proposed", best_of_three=flag)
        assert type(spec.best_of_three) is bool and spec.best_of_three == flag
        assert spec == FormatSpec("proposed", best_of_three=bool(flag))
        sampler = flat_sampler()
        assert (run_format(spec, sampler, derive_rng(4)).games
                == run_format(spec._replace(best_of_three=bool(flag)), sampler,
                              derive_rng(4)).games)

    def test_integral_fields_kept_as_ints(self):
        # An integral float or numpy int is read as the int it equals.
        spec = FormatSpec("iterated_round_robin", games_per_pair=np.int64(3),
                          decisive=DecisivePolicy(max_replays=2.0))
        assert spec == FormatSpec("iterated_round_robin", games_per_pair=3,
                                  decisive=DecisivePolicy(max_replays=2))
        assert type(spec.games_per_pair) is int and type(spec.decisive.max_replays) is int
        out = run_format(spec, flat_sampler(), derive_rng(23, 0))
        assert out.games_total == 84
        assert out.games == run_format(oracle(3), flat_sampler(), derive_rng(23, 0)).games
