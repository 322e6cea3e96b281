import argparse
import contextlib
import hashlib
import io
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tournsim import (
    DiscrepancyDistribution,
    InvalidInputError,
    PoissonSampler,
    __version__,
    cli,
    fixtures,
    montecarlo,
)
from tournsim.cli import main

from pools import pool_sizes

MODEL_2012 = str(fixtures.fixture_path("robocup2012.csv"))
MODEL_2013 = str(fixtures.fixture_path("robocup2013.csv"))


# Full `tournsim rank` output of the bundled models, recorded before the
# league tables moved onto `scoring.round_robin_totals`.
RANK_TABLES = {
    (2012, "continuous"): (
        "Wright,18.899,44,5.3,38.7,1\n"
        "Helios,18.152,29.5,3.5,26,2\n"
        "Yushan,12.105,22.8,16.3,6.5,3\n"
        "Gliders,10.291,13.06,9.66,3.4,4\n"
        "Marlik,9.999,7.36,7.06,0.3,5\n"
        "GDUT,7.8,12.4,18.4,-6,6\n"
        "RobOTTO,2.973,5.6,35.2,-29.6,7\n"
        "AUT,0.377,1.3,40.6,-39.3,8\n"
    ),
    (2012, "discrete"): (
        "Wright,19,43,4,39,1\n"
        "Helios,19,30,3,27,2\n"
        "Yushan,13,23,16,7,3\n"
        "Gliders,12,13,9,4,4\n"
        "Marlik,10,6,6,0,5\n"
        "GDUT,6,11,18,-7,6\n"
        "RobOTTO,3,5,36,-31,7\n"
        "AUT,0,1,40,-39,8\n"
    ),
    (2013, "continuous"): (
        "Wright,18.308,27.3,4.8,22.5,1\n"
        "Helios,16.937,18.1,3.2,14.9,2\n"
        "Oxsy,9.543,10.6,12.8,-2.2,3\n"
        "Yushan,9.434,9.6,10.9,-1.3,4\n"
        "Cyrus,8.408,8.7,12.1,-3.4,5\n"
        "Gliders,8.371,8.3,10.3,-2,6\n"
        "AUT,4.416,5,19,-14,7\n"
        "Axiom,3.713,5.3,19.8,-14.5,8\n"
    ),
    (2013, "discrete"): (
        "Wright,21,27,5,22,1\n"
        "Helios,18,18,2,16,2\n"
        "Yushan,11,10,11,-1,3\n"
        "Oxsy,11,10,12,-2,4\n"
        "Cyrus,10,9,12,-3,5\n"
        "Gliders,7,8,11,-3,6\n"
        "AUT,1,5,19,-14,7\n"
        "Axiom,1,5,20,-15,8\n"
    ),
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def header_lines(text):
    """The `# key=value` lines above an output's body (and above a
    histogram's statistics lines)."""
    lines = text.splitlines()
    end = next((i for i, ln in enumerate(lines) if ln.startswith("# n_teams=")), len(lines))
    return [ln for ln in lines[:end] if ln.startswith("# ") and "=" in ln]


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestRank:
    def test_discrete_2012(self, capsys):
        code, out, _ = run(capsys, "rank", "--model", MODEL_2012, "--scheme", "discrete")
        assert code == 0
        rows = {r["team"]: r for r in csv_rows(out)}
        assert rows["Wright"]["rank"] == "1"
        assert rows["Wright"]["points"] == "19"
        assert rows["Wright"]["goal_diff"] == "39"
        assert rows["Helios"]["rank"] == "2"

    def test_continuous_2013(self, capsys):
        code, out, _ = run(
            capsys, "rank", "--model", MODEL_2013, "--scheme", "continuous"
        )
        assert code == 0
        rows = {r["team"]: r for r in csv_rows(out)}
        assert rows["Wright"]["rank"] == "1"
        assert abs(float(rows["Wright"]["points"]) - 18.308) < 5e-4

    @pytest.mark.parametrize("year,scheme", RANK_TABLES)
    def test_pinned_output(self, capsys, year, scheme):
        model = MODEL_2012 if year == 2012 else MODEL_2013
        code, out, _ = run(capsys, "rank", "--model", model, "--scheme", scheme)
        assert code == 0
        lines = out.splitlines(keepends=True)
        assert "".join(ln for ln in lines if not ln.startswith("# version=")) == (
            f"# command=rank\n# model={model}\n# scheme={scheme}\n"
            "team,points,goals_for,goals_against,goal_diff,rank\n" + RANK_TABLES[year, scheme]
        )

    def test_header_names_points_file(self, capsys, tmp_path):
        points = str(fixtures.fixture_path("robocup2013.points.csv"))
        dest = tmp_path / "rank.csv"
        code, _, _ = run(
            capsys, "rank", "--model", MODEL_2013, "--scheme", "continuous",
            "--points", points, "--out", str(dest),
        )
        assert code == 0
        assert header_lines(dest.read_text()) == [
            "# command=rank", f"# model={MODEL_2013}", "# scheme=continuous",
            f"# points={points}", f"# version={__version__}",
        ]

    @pytest.mark.parametrize("scheme", [[], ["--scheme", "discrete"]], ids=["default", "discrete"])
    def test_points_under_discrete_scheme_is_usage_error(self, capsys, tmp_path, scheme):
        # The discrete scheme reads no points table: naming one is a usage
        # error even when the file does not exist, and nothing is written.
        missing = str(tmp_path / "missing.points.csv")
        code, out, err = run(capsys, "rank", "--model", MODEL_2012, *scheme, "--points", missing)
        assert (code, out) == (1, "")
        assert "--points" in err and "--scheme discrete" in err

    def test_seed_flag_rejected(self, capsys):
        # rank draws nothing, so it takes no seed
        code, _, _ = run(capsys, "rank", "--model", MODEL_2012, "--seed", "99")
        assert code == 1

    def test_points_of_other_teams_is_data_error(self, capsys):
        points = str(fixtures.fixture_path("robocup2013.points.csv"))
        code, _, err = run(capsys, "rank", "--model", MODEL_2012, "--scheme", "continuous",
                           "--points", points)
        assert code == 2
        assert f"{points}: " in err and "team order" in err

    @pytest.mark.parametrize(
        "cells,error",
        [(("7.0", "5.0"), "mean points 7.0 above 3"),
         (("1.0", "0.5"), "mean points 1.0 and 0.5 of the pair sum outside 2..3")],
        ids=["cell-above-3", "pair-sum-below-2"],
    )
    def test_impossible_points_table_is_data_error(self, capsys, tmp_path, cells, error):
        model, points = tmp_path / "m.csv", tmp_path / "m.points.csv"
        model.write_text(",A,B\nA,,1.2\nB,0.4,\n")
        points.write_text(f",A,B\nA,,{cells[0]}\nB,{cells[1]},\n")
        code, out, err = run(capsys, "rank", "--model", str(model), "--scheme", "continuous")
        assert (code, out) == (2, "")
        assert err == f"tournsim: error: {points}: row 'A', column 'B': {error}\n"

    def test_bad_model_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("")
        code, _, err = run(capsys, "rank", "--model", str(bad))
        assert code == 2
        assert err.strip()

    def test_missing_file_is_data_error(self, capsys):
        code, _, _ = run(capsys, "rank", "--model", "/nonexistent.csv")
        assert code == 2

    @pytest.mark.parametrize("scheme", ["discrete", "continuous"])
    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, scheme):
        # A spreadsheet may save its CSV with a UTF-8 byte-order mark.
        for name in ("robocup2013.csv", "robocup2013.points.csv"):
            text = "\ufeff" + fixtures.fixture_text(name)
            (tmp_path / name).write_text(text, encoding="utf-8")
        model = str(tmp_path / "robocup2013.csv")
        code, out, _ = run(capsys, "rank", "--model", model, "--scheme", scheme)
        assert code == 0
        want = run(capsys, "rank", "--model", MODEL_2013, "--scheme", scheme)[1]
        assert out.replace(model, MODEL_2013) == want


class TestSimulate:
    def test_runs_and_prints_ledger(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--model", MODEL_2012, "--format", "f2013"
        )
        assert code == 0
        assert "games_total=16" in out
        assert out.count("wb1-") == 4
        assert "grand-final," in out

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = run(
            capsys, "simulate", "--model", MODEL_2012, "--format", "proposed",
            "--seed", "5",
        )
        _, out2, _ = run(
            capsys, "simulate", "--model", MODEL_2012, "--format", "proposed",
            "--seed", "5",
        )
        assert out1 == out2

    def test_writes_out_file(self, tmp_path, capsys):
        dest = tmp_path / "ledger.csv"
        code, _, _ = run(
            capsys, "simulate", "--model", MODEL_2012, "--format", "f2012",
            "--out", str(dest),
        )
        assert code == 0
        assert "stage,home,away" in dest.read_text()

    def test_header_records_every_flag(self, tmp_path, capsys):
        # every flag given, in parser order, but not --out
        dest = tmp_path / "ledger.csv"
        code, _, _ = run(
            capsys, "simulate", "--model", MODEL_2012, "--format", "proposed",
            "--games-per-pair", "5", "--best-of-three", "--scheme", "discrete",
            "--max-replays", "3", "--seeding", "random", "--out", str(dest),
        )
        assert code == 0
        header = header_lines(dest.read_text())
        assert header[:-2] == [
            "# command=simulate", f"# model={MODEL_2012}", "# seed=20122013",
            "# format=proposed", "# games_per_pair=5", "# best_of_three=True",
            "# scheme=discrete", "# max_replays=3", "# seeding=random",
            "# sampling=poisson",
        ]
        assert header[-2].startswith("# games_total=")
        assert header[-1] == f"# version={__version__}"

    def test_negative_seed_is_data_error(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--model", MODEL_2012, "--format", "f2012", "--seed", "-5",
        )
        assert code == 2
        assert out == ""
        assert "seed must be >= 0, not -5" in err

    @pytest.mark.parametrize("flags, message", [
        (["f2012", "--max-replays", "-1"], "max_replays must be >= 0, not -1"),
        (["oracle", "--games-per-pair", "0"], "games_per_pair must be >= 1, not 0"),
    ])
    def test_invalid_spec_is_data_error(self, capsys, flags, message):
        code, out, err = run(capsys, "simulate", "--model", MODEL_2012, "--format", *flags)
        assert code == 2
        assert out == ""
        assert err == f"tournsim: error: {message}\n"

    def test_truth_seeding_not_offered(self, capsys):
        # simulate computes no truth ranking to seed by
        code, out, err = run(
            capsys, "simulate", "--model", MODEL_2012, "--format", "f2012",
            "--seeding", "truth",
        )
        assert code == 1
        assert out == ""
        assert "invalid choice: 'truth'" in err


# SHA-256 of the `tournsim simulate` text at seed 7 without its "#" header
# lines (which name the model path and the version): the ledger and the
# ranking. Recorded before the oracle wrote its ledger by columns.
PINNED_LEDGERS = {
    (2012, "oracle"): "b009cb79ace4d8783bad5db38c8cb1a851c7670e086cde29799785e2cae7e32d",
    (2012, "f2012"): "4174d4a7a0f935a899eb27855816135283b1201f3ddaef31c30e09abc92154d1",
    (2012, "f2013"): "2c5aad9f0b2a7fc9fe3c0904bad72c903ec7cea90d7e4a26cb4b4985da1e8eec",
    (2012, "proposed-bo3"): "352d71ec1b4e80fd4c8cfce12b8d5bbd77fbb1c45b25800ba6b959717f6f18db",
    (2013, "oracle"): "91d850a287b72e927233b3c15c19b28dec14ef8a44358a4a9d80b73509320b80",
    (2013, "f2012"): "f34eae6ab448bd2761eb5b23e5e237e25ada1f54909e2ddd71df43a3b8aa5dd8",
    (2013, "f2013"): "c758ebf3f02152f5b098aa789722b37ad9085cd3d2fae81153f24ea21dafe4ec",
    (2013, "proposed-bo3"): "1366eabb8d8f46f2e322ae2d27d9fb75c50838a1b60d296d8fb306d300377521",
}
LEDGER_FLAGS = {
    "oracle": ["oracle", "--games-per-pair", "3"],
    "f2012": ["f2012"],
    "f2013": ["f2013"],
    "proposed-bo3": ["proposed", "--best-of-three"],
}


class TestPinnedLedgers:
    @pytest.mark.parametrize("year, fmt", PINNED_LEDGERS)
    def test_simulate_text_pinned(self, capsys, year, fmt):
        model = MODEL_2012 if year == 2012 else MODEL_2013
        code, out, _ = run(
            capsys, "simulate", "--model", model, "--seed", "7",
            "--format", *LEDGER_FLAGS[fmt],
        )
        assert code == 0
        body = "".join(ln for ln in out.splitlines(True) if not ln.startswith("#"))
        assert hashlib.sha256(body.encode()).hexdigest() == PINNED_LEDGERS[year, fmt]


# Stdout of the paper's campaign, oracle truth and default seed, recorded
# before every ranking moved onto one tie-break kernel.
PAPER_CAMPAIGNS = {
    2012: (
        "proposed: mean=4.2922 median=4.0 n=10000 seed=20122013\n"
        "f2012: mean=6.0946 median=6.0 n=10000 seed=20122013\n"
        "f2013: mean=6.6188 median=6.0 n=10000 seed=20122013\n"
    ),
    2013: (
        "proposed: mean=7.4326 median=8.0 n=10000 seed=20122013\n"
        "f2012: mean=9.2542 median=10.0 n=10000 seed=20122013\n"
        "f2013: mean=10.0980 median=10.0 n=10000 seed=20122013\n"
    ),
}

# The lines below the header of each --out file of the paper's campaign.
# Stdout shows the mean to 4 decimals and no quantile; these pin all six
# decimals of mean= and every quantile.
PAPER_CAMPAIGN_FILES = {
    (2012, "proposed"): (
        "# n_teams=8 n_samples=10000\n"
        "# mean=4.292200 median=4.0 p5=0.0 p25=2.0 p75=6.0 p95=8.0\n"
        "l1,count\n0,814\n2,2296\n4,3084\n6,2538\n8,987\n10,252\n12,28\n14,1\n"
    ),
    (2012, "f2012"): (
        "# n_teams=8 n_samples=10000\n"
        "# mean=6.094600 median=6.0 p5=2.0 p25=4.0 p75=8.0 p95=12.0\n"
        "l1,count\n0,335\n2,1140\n4,2168\n6,2671\n8,2064\n10,1117\n12,407\n14,84\n16,13\n"
        "18,1\n"
    ),
    (2012, "f2013"): (
        "# n_teams=8 n_samples=10000\n"
        "# mean=6.618800 median=6.0 p5=2.0 p25=4.0 p75=8.0 p95=12.0\n"
        "l1,count\n0,243\n2,862\n4,1879\n6,2613\n8,2351\n10,1327\n12,532\n14,151\n16,33\n"
        "18,7\n20,2\n"
    ),
    (2013, "proposed"): (
        "# n_teams=8 n_samples=10000\n"
        "# mean=7.432600 median=8.0 p5=2.0 p25=6.0 p75=10.0 p95=12.0\n"
        "l1,count\n0,155\n2,633\n4,1349\n6,2290\n8,2570\n10,1816\n12,820\n14,273\n16,78\n"
        "18,13\n20,3\n"
    ),
    (2013, "f2012"): (
        "# n_teams=8 n_samples=10000\n"
        "# mean=9.254200 median=10.0 p5=4.0 p25=6.0 p75=12.0 p95=16.0\n"
        "l1,count\n0,55\n2,314\n4,783\n6,1560\n8,2147\n10,2099\n12,1532\n14,902\n16,417\n"
        "18,142\n20,37\n22,7\n24,4\n26,1\n"
    ),
    (2013, "f2013"): (
        "# n_teams=8 n_samples=10000\n"
        "# mean=10.098000 median=10.0 p5=4.0 p25=8.0 p75=12.0 p95=16.0\n"
        "l1,count\n0,46\n2,229\n4,584\n6,1206\n8,1958\n10,2100\n12,1703\n14,1076\n"
        "16,660\n18,320\n20,80\n22,27\n24,7\n26,4\n"
    ),
}


class TestCampaign:
    @pytest.mark.parametrize("year", PAPER_CAMPAIGNS)
    def test_paper_campaign_pinned(self, capsys, year):
        model = MODEL_2012 if year == 2012 else MODEL_2013
        code, out, _ = run(
            capsys, "campaign", "--model", model,
            "--format", "proposed", "f2012", "f2013", "--n", "10000",
        )
        assert code == 0
        assert out == PAPER_CAMPAIGNS[year]

    @pytest.mark.parametrize("year", PAPER_CAMPAIGNS)
    def test_paper_campaign_files_pinned(self, capsys, tmp_path, year):
        model = MODEL_2012 if year == 2012 else MODEL_2013
        code, _, _ = run(
            capsys, "campaign", "--model", model,
            "--format", "proposed", "f2012", "f2013", "--n", "10000",
            "--out", str(tmp_path / "paper.csv"),
        )
        assert code == 0
        for fmt in ("proposed", "f2012", "f2013"):
            text = (tmp_path / f"paper-{fmt}.csv").read_text()
            assert text[text.index("# n_teams="):] == PAPER_CAMPAIGN_FILES[year, fmt], fmt

    def test_single_format_small_n(self, capsys, tmp_path):
        dest = tmp_path / "hist.csv"
        code, out, _ = run(
            capsys, "campaign", "--model", MODEL_2012, "--format", "proposed",
            "--n", "5", "--out", str(dest),
        )
        assert code == 0
        assert "proposed: mean=" in out
        text = dest.read_text()
        assert text.startswith("# tournsim-histogram v1")
        assert "n_samples=5" in text

    def test_workers_come_from_the_flag_alone(self, capsys, monkeypatch):
        # no environment variable sets the worker count
        monkeypatch.setenv("TOURNSIM_WORKERS", "abc")
        code, out, _ = run(
            capsys, "campaign", "--model", MODEL_2012, "--format", "f2012", "--n", "5",
        )
        assert code == 0
        assert "f2012: mean=" in out

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_data_error(self, capsys, workers):
        code, out, err = run(
            capsys, "campaign", "--model", MODEL_2012, "--format", "f2012",
            "--n", "5", "--workers", workers,
        )
        assert code == 2
        assert out == ""
        assert f"workers must be >= 1, not {workers}" in err

    def test_negative_seed_is_data_error(self, capsys):
        code, out, err = run(
            capsys, "campaign", "--model", MODEL_2012, "--format", "f2012",
            "--n", "5", "--seed", "-1",
        )
        assert code == 2
        assert out == ""
        assert "seed must be >= 0, not -1" in err

    def test_truth_file_naming_a_team_twice_is_data_error(self, capsys, tmp_path):
        truth = tmp_path / "truth.txt"
        truth.write_text("Wright\nHelios\nYushan\nGliders\nMarlik\nGDUT\nHelios\nAUT\n")
        code, out, err = run(
            capsys, "campaign", "--model", MODEL_2012, "--format", "f2012",
            "--n", "5", "--truth", str(truth),
        )
        assert code == 2
        assert out == ""
        assert f"{truth}: team 'Helios' is listed more than once" in err

    @pytest.mark.parametrize(
        "teams",
        [
            ["Wright", "Helios", "Yushan", "Gliders", "Marlik", "GDUT", "RobOTTO"],
            ["Wright", "Helios", "Yushan", "Gliders", "Marlik", "GDUT", "RobOTTO", "Oxsy"],
        ],
        ids=["team-left-out", "team-not-in-model"],
    )
    def test_truth_file_not_covering_the_model_names_it(self, capsys, tmp_path, teams):
        truth = tmp_path / "truth.txt"
        truth.write_text("".join(f"{team}\n" for team in teams))
        code, out, err = run(
            capsys, "campaign", "--model", MODEL_2012, "--format", "f2012",
            "--n", "5", "--truth", str(truth),
        )
        assert (code, out) == (2, "")
        assert err == (
            f"tournsim: error: {truth}: truth ranking does not cover the model's teams\n"
        )

    def test_oracle_truth_draws_from_the_campaign_sampler(self, capsys, monkeypatch):
        built = []

        def recorded(model):
            built.append(PoissonSampler(model))
            return built[-1]

        monkeypatch.setattr(cli, "PoissonSampler", recorded)
        code, _, _ = run(capsys, "campaign", "--model", MODEL_2012, "--format", "f2012", "--n", "5")
        assert (code, len(built)) == (0, 1)

    def test_truth_file_with_byte_order_mark(self, capsys, tmp_path):
        order = "".join(f"{name}\n" for name in fixtures.R_C_2012.order())
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text(order, encoding="utf-8")
        bom.write_text("\ufeff" + order, encoding="utf-8")
        outs = [
            run(capsys, "campaign", "--model", MODEL_2012, "--format", "f2012",
                "--n", "20", "--truth", str(path))
            for path in (plain, bom)
        ]
        assert outs[0][0] == 0
        assert outs[1] == outs[0]

    def test_histogram_names_stream_layout(self, capsys, tmp_path):
        dest = tmp_path / "hist.csv"
        run(
            capsys, "campaign", "--model", MODEL_2012, "--format", "proposed",
            "--n", "5", "--games-per-pair", "7", "--best-of-three",
            "--scheme", "discrete", "--max-replays", "2", "--seeding", "truth",
            "--workers", "1", "--out", str(dest),
        )
        lines = dest.read_text().splitlines()
        assert lines[0] == "# tournsim-histogram v1"
        assert "# stream=v2" in lines
        # every flag given, in parser order, but not --out or --workers
        assert header_lines(dest.read_text()) == [
            "# command=campaign", f"# model={MODEL_2012}", "# seed=20122013",
            "# format=proposed", "# games_per_pair=7", "# best_of_three=True",
            "# scheme=discrete", "# max_replays=2", "# seeding=truth", "# n=5",
            "# truth=oracle", "# sampling=poisson", "# stream=v2",
            f"# version={__version__}",
        ]

    @pytest.mark.parametrize(
        "flags", [["--best-of-three"], ["--max-replays", "2"], ["--seeding", "truth"]]
    )
    def test_header_tells_campaigns_apart(self, capsys, tmp_path, flags):
        headers = []
        for extra in ([], flags):
            dest = tmp_path / f"{len(headers)}.csv"
            code, _, _ = run(
                capsys, "campaign", "--model", MODEL_2012, "--format", "proposed",
                "--n", "5", *extra, "--out", str(dest),
            )
            assert code == 0
            headers.append(header_lines(dest.read_text()))
        assert headers[0] != headers[1]

    def test_failure_inside_campaign_names_tournaments(self, capsys, monkeypatch):
        from tournsim import batch

        def broken(*args):
            raise InvalidInputError("broken block")

        monkeypatch.setattr(batch, "play_block", broken)
        code, _, err = run(
            capsys, "campaign", "--model", MODEL_2012, "--format", "f2012",
            "--n", "5",
        )
        assert code == 2
        assert "broken block" in err and "tournaments 0-4" in err

    def test_repeat_invocations_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for dest in (a, b):
            run(
                capsys, "campaign", "--model", MODEL_2012, "--format", "f2013",
                "--n", "20", "--out", str(dest),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_repeated_format_flags_equal_one_list(self, capsys, tmp_path):
        outputs = []
        for flags in (
            ["--format", "proposed", "--format", "f2012", "--format", "f2013"],
            ["--format", "proposed", "f2012", "f2013"],
            ["--format", "proposed", "--format", "f2012", "f2013"],
        ):
            dest = tmp_path / f"{len(outputs)}.csv"
            code, out, _ = run(
                capsys, "campaign", "--model", MODEL_2012, *flags,
                "--n", "20", "--out", str(dest),
            )
            assert code == 0
            files = {
                fmt: (tmp_path / f"{len(outputs)}-{fmt}.csv").read_bytes()
                for fmt in ("proposed", "f2012", "f2013")
            }
            outputs.append((out, files))
        assert [ln.split(":")[0] for ln in outputs[0][0].splitlines()] == [
            "proposed", "f2012", "f2013",
        ]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_multi_format_bytes_do_not_depend_on_workers(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(montecarlo, "_BATCHED_BLOCKS_PER_PROCESS", 1)
        pools = pool_sizes(monkeypatch)
        files = {}
        for workers in ("1", "2"):
            dest = tmp_path / f"w{workers}.csv"
            code, _, _ = run(
                capsys, "campaign", "--model", MODEL_2013,
                "--format", "proposed", "f2012", "f2013", "oracle",
                "--games-per-pair", "3", "--n", "600", "--workers", workers,
                "--out", str(dest),
            )
            assert code == 0
            files[workers] = [
                (tmp_path / f"w{workers}-{fmt}.csv").read_bytes()
                for fmt in ("proposed", "f2012", "f2013", "oracle")
            ]
        assert files["1"] == files["2"]
        assert pools == [2]

    def test_compare_on_written_histograms(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(
            capsys, "campaign", "--model", MODEL_2012, "--format", "proposed",
            "--n", "30", "--out", str(a),
        )
        run(
            capsys, "campaign", "--model", MODEL_2012, "--format", "f2013",
            "--n", "30", "--out", str(b),
        )
        code, out, _ = run(capsys, "compare", str(a), str(b))
        assert code == 0
        assert "mean_delta=" in out
        assert "dominance_holds=" in out


class TestReproduce:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "reproduce")
        assert code == 0
        lines = out.splitlines()
        passes = [ln for ln in lines if ln.startswith("PASS ")]
        assert len(passes) == 13
        assert not any(ln.startswith("FAIL") for ln in lines)
        assert sum(1 for ln in passes if " L1-" in ln) == 6

    def test_checks_are_built_once(self, capsys, monkeypatch):
        real = fixtures.golden_checks
        built = []

        def counted():
            built.append(1)
            return real()

        monkeypatch.setattr(fixtures, "golden_checks", counted)
        code, out, _ = run(capsys, "reproduce")
        assert (code, len(built)) == (0, 1)
        assert out.endswith("0 failed of 13 checks\n")

    def test_perturbed_data_fails_named_check(self, capsys, monkeypatch):
        real = fixtures.fixture_text

        def corrupted(name):
            text = real(name)
            if name == "robocup2012.csv":
                # flip one Helios goal mean hard enough to change the
                # discrete scoreline
                text = text.replace("2.3", "0.1", 1)
            return text

        monkeypatch.setattr(fixtures, "fixture_text", corrupted)
        code, out, _ = run(capsys, "reproduce")
        assert code == 3
        assert any(ln.startswith("FAIL ") for ln in out.splitlines())


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--model", "MISSING"],
            ["rank", "--model", MODEL_2013, "--scheme", "continuous", "--points", "MISSING"],
            ["simulate", "--model", "MISSING", "--format", "f2012"],
            ["campaign", "--model", "MISSING", "--format", "f2012", "--n", "5"],
            ["campaign", "--model", MODEL_2012, "--format", "f2012", "--n", "5",
             "--truth", "MISSING"],
            ["compare", "MISSING", MODEL_2012],
            ["compare", "HIST", "MISSING"],
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv if not a.startswith("/")),
    )
    def test_missing_file_is_data_error(self, capsys, tmp_path, argv):
        hist = tmp_path / "hist.csv"
        run(capsys, "campaign", "--model", MODEL_2012, "--format", "f2012",
            "--n", "5", "--out", str(hist))
        missing = str(tmp_path / "missing.csv")
        argv = [missing if a == "MISSING" else str(hist) if a == "HIST" else a for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"tournsim: error: {missing}: No such file")

    @pytest.mark.parametrize(
        "n_samples,rows,error",
        [
            (2, "2,-1\n4,3\n", "negative count -1 for L1 value 2"),
            # Read as {2: 2, 4: 3} before: the last row overwrote the first,
            # and the counts then summed to n_samples.
            (5, "2,1\n4,3\n2,2\n", "l1 value 2 is listed more than once"),
        ],
        ids=["negative-count", "repeated-value"],
    )
    def test_bad_histogram_counts_are_data_errors(self, capsys, tmp_path, n_samples, rows,
                                                  error):
        hist = tmp_path / "hist.csv"
        hist.write_text(f"# tournsim-histogram v1\n# n_teams=8 n_samples={n_samples}\n"
                        f"l1,count\n{rows}")
        code, out, err = run(capsys, "compare", str(hist), str(hist))
        assert (code, out) == (2, "")
        assert err.startswith("tournsim: error: ") and error in err

    @pytest.mark.parametrize("n_teams, l1, count", [
        # Counts or values no float holds ended `compare` in OverflowError.
        (8, 2, 10**400), (8, 2, 2**63), (10**200, 10**320, 1),
    ])
    def test_histogram_beyond_int64_is_data_error(self, capsys, tmp_path, n_teams, l1, count):
        hist = tmp_path / "hist.csv"
        hist.write_text("# tournsim-histogram v1\n"
                        f"# n_teams={n_teams} n_samples={count}\nl1,count\n{l1},{count}\n")
        code, out, err = run(capsys, "compare", str(hist), str(hist))
        assert (code, out) == (2, "")
        assert err == (f"tournsim: error: {hist}: L1 value {l1} with count {count}: a histogram "
                       f"holds values and counts up to {2**63 - 1}\n")

    def test_malformed_second_histogram_is_named(self, capsys, tmp_path):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        run(capsys, "campaign", "--model", MODEL_2012, "--format", "f2012",
            "--n", "5", "--out", str(good))
        bad.write_text("# tournsim-histogram v1\n# n_teams=8 n_samples=2\nl1,count\n2;2\n")
        code, out, err = run(capsys, "compare", str(good), str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"tournsim: error: {bad}: malformed histogram line: ")

    def test_histogram_over_fewer_than_two_teams_is_data_error(self, capsys, tmp_path):
        hist = tmp_path / "hist.csv"
        hist.write_text("# tournsim-histogram v1\n# n_teams=-3 n_samples=2\n"
                        "l1,count\n2,1\n4,1\n")
        code, out, err = run(capsys, "compare", str(hist), str(hist))
        assert (code, out) == (2, "")
        assert err == f"tournsim: error: {hist}: a ranking needs at least 2 teams, not -3\n"

    def test_bad_model_cell_names_file_row_and_column(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(",A,B\nA,,-1.0\nB,0.5,\n")
        code, out, err = run(capsys, "rank", "--model", str(bad))
        assert (code, out) == (2, "")
        assert err == (
            f"tournsim: error: {bad}: row 'A', column 'B': invalid mean goals -1.0\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--scheme", "discrete"],
            ["simulate", "--format", "oracle"],
            ["campaign", "--format", "proposed", "--n", "5"],
        ],
        ids=["rank", "simulate", "campaign"],
    )
    @pytest.mark.parametrize("cell", ["1e300", "1000000.5"])
    def test_model_mean_above_limit_names_file_row_and_column(self, capsys, tmp_path, argv, cell):
        # numpy cannot draw from a mean of 1e300, and far smaller means
        # wrap the int64 totals of an oracle run, so loading rejects them.
        huge = tmp_path / "huge.csv"
        huge.write_text(f",A,B\nA,,1.0\nB,{cell},\n")
        code, out, err = run(capsys, *argv, "--model", str(huge))
        assert (code, out) == (2, "")
        assert err == (
            f"tournsim: error: {huge}: row 'B', column 'A': invalid mean goals {float(cell)}\n"
        )

    def test_binary_file_is_data_error(self, capsys, tmp_path):
        binary = tmp_path / "hist.bin"
        binary.write_bytes(b"\xff\xfe\x00")
        code, _, err = run(capsys, "compare", str(binary), str(binary))
        assert code == 2
        assert f"{binary}: not UTF-8 text" in err


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--model", MODEL_2012, "--format", "f2013"],
            ["rank", "--model", MODEL_2012],
            ["campaign", "--model", MODEL_2012, "--format", "f2012", "--n", "5"],
            ["campaign", "--model", MODEL_2012, "--format", "f2012", "proposed", "--n", "5"],
        ],
        ids=["simulate", "rank", "campaign", "campaign-two-formats"],
    )
    def test_missing_directory_is_data_error(self, capsys, tmp_path, argv):
        out = tmp_path / "missing" / "out.csv"
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 2
        # Several formats write one file each, suffixed with the format.
        assert err.startswith(f"tournsim: error: {out.parent}{os.sep}out")
        assert "No such file" in err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_required_model(self, capsys):
        assert run(capsys, "rank")[0] == 1

    def test_bad_format_alias(self, capsys):
        assert run(
            capsys, "simulate", "--model", MODEL_2012, "--format", "nope"
        )[0] == 1


# The text of each kind of input file: the bundled 2012 model and points
# tables, its truth ranking and a written histogram.
INPUTS = {
    "model": fixtures.fixture_text("robocup2012.csv"),
    "points": fixtures.fixture_text("robocup2012.points.csv"),
    "truth": "\n".join(fixtures.R_C_2012.order()) + "\n",
    "histogram": DiscrepancyDistribution.from_counts({0: 3, 2: 5, 4: 2}, 8).to_text(
        {"stream": montecarlo.STREAM_LAYOUT}),
}
# Integer flags, each always given and at most its cap, so that no run is
# long or starts more than 2 processes.
CAPS = {"n": 500, "workers": 2, "games_per_pair": 3, "max_replays": 3, "seed": 2**40}
CELLS = st.one_of(
    st.sampled_from(["", "-", "nan", "inf", "-1", "0", "1e6", "1e7", "x", "1:2", "# n_teams=1"]),
    st.integers(-10**400, 10**400).map(str), st.floats().map(str), st.text(max_size=3),
)


@st.composite
def mutated(draw, text: str) -> bytes:
    """`text` with up to three lines dropped, repeated or with a
    comma-separated cell replaced, then perhaps one byte flipped."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["drop", "repeat", "cell"]))
        if how == "drop":
            del lines[i]
        elif how == "repeat":
            lines.insert(i, lines[i])
        else:
            cells = lines[i].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(CELLS)
            lines[i] = ",".join(cells)
    data = bytearray("\n".join(lines).encode())
    if data and draw(st.booleans()):
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return bytes(data)


def subcommands() -> dict:
    """Each subcommand's name and its parser's actions, help left out."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
            for name, parser in sub.choices.items()}


# The kind of input file each file flag or argument reads.
READS = {"model": "model", "points": "points", "truth": "truth", "a": "histogram",
         "b": "histogram"}


@st.composite
def command_lines(draw, tmp_path):
    """argv for a subcommand, built from its parser's actions, and the
    bytes of each input file of INPUTS it may name, under `tmp_path` as is
    every output. At most one input file is mutated, and at most one action
    given a bad value."""
    name, actions = draw(st.sampled_from(sorted(subcommands().items())))
    broken = draw(st.sampled_from([None, *INPUTS]))
    files = {tmp_path / f"{kind}.csv": draw(mutated(text)) if kind == broken else text.encode()
             for kind, text in INPUTS.items()}
    bad = draw(st.sampled_from([None, *actions]))
    argv = [name]
    for action in actions:
        dest = action.dest
        if not (action.required or dest in CAPS or draw(st.booleans())):
            continue
        if dest in CAPS:
            low = 0 if dest in ("max_replays", "seed") else 1
            value = [str(draw(st.integers(-2, low - 1) if action is bad
                              else st.integers(low, CAPS[dest])))]
        elif action.nargs == 0:  # a flag
            value = []
        elif action.choices:
            choices = st.lists(st.sampled_from(list(action.choices)), min_size=1,
                               max_size=3 if action.nargs == "+" else 1)
            value = ["bogus"] if action is bad else draw(choices)
        elif dest == "out":
            value = [str(draw(st.sampled_from([tmp_path, tmp_path / "missing" / "out.csv"]))
                         if action is bad else tmp_path / "out.csv")]
        else:  # an input file: another kind of file if bad
            kinds = (list(INPUTS) if action is bad
                     else ["oracle", "truth"] if dest == "truth" else [READS[dest]])
            kind = draw(st.sampled_from(kinds))
            value = [kind if kind == "oracle" else str(tmp_path / f"{kind}.csv")]
        argv += [*action.option_strings[:1], *value]
    return argv, files


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_command_line_exits_with_a_status(tmp_path, data):
    argv, files = data.draw(command_lines(tmp_path))
    # Every example writes its own input files over the last one's.
    for path, content in files.items():
        path.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("tournsim: error: ")
        assert err.getvalue().count("\n") == 1
