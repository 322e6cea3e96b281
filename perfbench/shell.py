"""The cli-paper workload: the paper's experiment as a user runs it.

Each iteration runs `tournsim reproduce` and then `tournsim campaign` of the
three formats on the 2012 model with the oracle truth and 2 worker
processes, each in a fresh interpreter. Every iteration uses the run's
seed, so every campaign must write the same bytes.

Standard library only, like run.py, which imports it.
"""

from __future__ import annotations

import os
import re
import time

import calibration
import checks

MODEL = os.path.join("src", "tournsim", "data", "robocup2012.csv")
FORMATS = ("proposed", "f2012", "f2013")
N = 2000  # tournaments per format per campaign
WORKERS = 2
MIN_ITERATIONS = 3  # even when the time is up, unless one succeeded


def campaign_argv(seed: int, out: str, workers: int) -> list[str]:
    """Arguments of the paper's campaign command after `tournsim`."""
    return [
        "campaign", "--model", MODEL, "--format", *FORMATS, "--n", str(N),
        "--seed", str(seed), "--workers", str(workers), "--out", out,
    ]


def histogram_paths(out: str) -> dict:
    root, ext = os.path.splitext(out)
    return {fmt: f"{root}-{fmt}{ext}" for fmt in FORMATS}


def histogram_file_problem(fmt: str, text: str):
    try:
        counts, _ = checks.parse_histogram(text)
    except ValueError as exc:
        return f"{fmt} histogram does not parse: {exc}"
    return checks.histogram_problem(fmt, counts, N)


def reproduce_problem(code: int, stdout: str):
    if code != 0:
        return f"tournsim reproduce exited {code}"
    if not re.search(r"^0 failed of \d+ checks$", stdout, re.M):
        return "tournsim reproduce did not print '0 failed'"
    return None


def measure(run, seed: int, seconds: float) -> tuple[list, list, list]:
    """Campaign throughputs in tournaments per wall second and reproduce
    wall times, one per iteration, and calibration rates taken between the
    iterations (see calibration.py)."""
    out = os.path.join(run.tmp, "hist.csv")
    rates, reproduce = [], []
    speeds = [calibration.rate()]
    first = None
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or (not rates and i < MIN_ITERATIONS):
        i += 1
        code, text, wall = run.python("-m", "tournsim.cli", "reproduce")
        run.check(reproduce_problem(code, text))
        reproduce.append(wall)
        code, _, wall = run.python(
            "-m", "tournsim.cli", *campaign_argv(seed, out, WORKERS)
        )
        run.check(None if code == 0 else f"tournsim campaign exited {code}")
        if code != 0:
            continue
        texts = {}
        for fmt, path in histogram_paths(out).items():
            with open(path, encoding="utf-8") as fh:
                texts[fmt] = fh.read()
            run.check(histogram_file_problem(fmt, texts[fmt]))
        if first is None:
            first = texts
        else:
            run.check(None if texts == first else "repeated campaign wrote other bytes")
        rates.append(N * len(FORMATS) / wall)
        speeds.append(calibration.rate())
    if first is None:
        raise RuntimeError("no tournsim campaign succeeded")
    # The oracle truth depends on the seed; the reference means on the truth.
    truth = run.child("truth", "--seed", str(seed), rss=False).strip()
    means = {}
    for fmt, text in first.items():
        try:
            counts, _ = checks.parse_histogram(text)
        except ValueError:
            continue  # already counted as a failed check
        run.check(checks.mean_problem(truth, fmt, counts))
        means[fmt] = checks.mean_sd(counts)[1]
    run.check(checks.order_problem(means))
    return rates, reproduce, speeds
