"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Run from the repository root. For every workload of BENCHMARK.json it makes
one untraced and one traced run of SECONDS with seed SEED and checks that
the result line holds exactly the declared metrics, each with its unit and
a finite value, that every end-to-end value is above 0, and that no
operation failed. It
also checks that the benchmark exits with an error, printing no result, in
a directory without the package sources. Exit status 1 on any problem.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
TIMEOUT_S = 180
SECONDS = "1"
SEED = "1"


def result_problems(text: str, declared: list, end_to_end: bool) -> list[str]:
    lines = text.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["last line is not a JSON object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{result['failed']} of {result['attempted']} operations failed")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted is {result['attempted']!r}")
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        problems.append(f"metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, declared {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
        elif end_to_end and value <= 0:
            problems.append(f"{m['name']}: value {value!r} is not above 0")
    return problems


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)

    failures = 0
    for w in bench["workloads"]:
        for trace in ("0", "1"):
            argv = [sys.executable, RUN, "--workload", w["name"], "--seed", SEED,
                    "--seconds", SECONDS, "--trace", trace]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=TIMEOUT_S)
            declared = bench["per_layer" if trace == "1" else "end_to_end"]
            problems = (
                [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
                if proc.returncode
                else result_problems(proc.stdout, declared, trace == "0")
            )
            print(f"{'FAIL' if problems else 'ok  '} {w['name']} --trace {trace}")
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)

    # A directory that holds only BENCHMARK.json and the benchmark.
    bare = os.path.join(".perfbench_tmp", f"smoke-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
             "--workload", bench["workloads"][0]["name"], "--seed", SEED,
             "--seconds", SECONDS, "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass  # a benchmark run is using it
    refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the package sources")
    failures += not refused
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
