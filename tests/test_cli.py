import numpy as np

from tournsim import InvalidInputError, fixtures
from tournsim.cli import main

MODEL_2012 = str(fixtures.fixture_path("robocup2012.csv"))
MODEL_2013 = str(fixtures.fixture_path("robocup2013.csv"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_seed_echoed_in_header(self, capsys):
        _, out, _ = run(capsys, "rank", "--model", MODEL_2012, "--seed", "99")
        assert "seed=99" in out

    def test_bad_model_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("")
        code, _, err = run(capsys, "rank", "--model", str(bad))
        assert code == 2
        assert err.strip()

    def test_missing_file_is_data_error(self, capsys):
        code, _, _ = run(capsys, "rank", "--model", "/nonexistent.csv")
        assert code == 2


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


class TestCampaign:
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

    def test_histogram_names_stream_layout(self, capsys, tmp_path):
        dest = tmp_path / "hist.csv"
        run(
            capsys, "campaign", "--model", MODEL_2012, "--format", "f2012",
            "--n", "5", "--out", str(dest),
        )
        lines = dest.read_text().splitlines()
        assert lines[0] == "# tournsim-histogram v1"
        assert "# stream=v2" in lines

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


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_required_model(self, capsys):
        assert run(capsys, "rank")[0] == 1

    def test_bad_format_alias(self, capsys):
        assert run(
            capsys, "simulate", "--model", MODEL_2012, "--format", "nope"
        )[0] == 1
