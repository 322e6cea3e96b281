"""tournsim benchmark: Monte Carlo campaign throughput per format, the
paper's command-line run, and per-layer timings measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the repository root; it runs the package from `src/`. Workloads
(see README.md for why each exists):

    rr-playoff     run_campaign of proposed and proposed best-of-three, 2013 model
    knockout       run_campaign of f2012 and f2013, 2012 model
    ledger-replay  run_format(keep_games=True) then replay_outcome, four formats
    cli-paper      `tournsim reproduce`, then `tournsim campaign` of three
                   formats with the oracle truth and 2 worker processes

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics of BENCHMARK.json; with --trace 1 it holds the per-layer metrics,
taken from a run whose rounds alternate between untraced and traced. The
lines before it are a readable report and a record of the machine and code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import calibration
import checks
import shell

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 16  # set-up and reference pairs per run, after a warm-up
STEP_TIMEOUT_S = 150  # one child process; the whole run must end within 180 s
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

WORKERS = {"rr-playoff": 1, "knockout": 1, "ledger-replay": 1, "cli-paper": shell.WORKERS}


class Run(checks.Tally):
    """Child processes, their peak memory, and the operation counts."""

    def __init__(self, root: str, tmp: str):
        super().__init__()
        self.root = root
        self.tmp = tmp
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.peak_rss_kb = 0

    def python(self, *argv: str, rss: bool = True) -> tuple[int, str, float]:
        """Run `python3 argv` to completion: exit code, stdout, wall seconds.
        With `rss`, the process's peak memory counts as the workload's."""
        with open(os.path.join(self.tmp, "stdout"), "w+b") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.root, env=self.env, stdout=out
            )
            watchdog = threading.Timer(STEP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                # wait4 reports the peak resident set of the process and of
                # the children it waited for, such as pool workers.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            text = out.read().decode()
        if rss:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, text, wall

    def child(self, *argv: str, rss: bool = True) -> str:
        code, text, _ = self.python(os.path.join(HERE, "child.py"), *argv, rss=rss)
        if code != 0:
            raise RuntimeError(f"child.py {argv[0]} exited {code}")
        return text

    def setup_pairs(self, workload: str, seed: int, count: int) -> list:
        """`count` pairs of (set-up seconds, reference seconds), each taken
        in a fresh interpreter, the reference just before its set-up (see
        calibration.setup_seconds)."""
        def wall(code: str) -> float:
            status, _, seconds = self.python("-c", code, rss=False)
            if status != 0:
                raise RuntimeError(f"python -c {code!r} exited {status}")
            return seconds

        pairs = []
        for _ in range(count):
            if workload == "cli-paper":
                ref = wall("import numpy")
                setup = wall("import tournsim.cli")
            else:
                ref = float(self.child("reference", rss=False))
                setup = float(self.child(
                    "setup", "--workload", workload, "--seed", str(seed),
                    "--out-dir", self.tmp, rss=False,
                ))
            pairs.append((setup, ref))
        return pairs


def tail(rates: list[float]) -> tuple[float, float]:
    """The highest slowness percentile with at least TAIL_BEYOND samples
    beyond it, as (rate, percentile)."""
    ordered = sorted(rates)
    i = min(TAIL_BEYOND, len(ordered) - 1)
    return ordered[i], 100.0 * (len(ordered) - i) / len(ordered)


def source_digest(root: str) -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for d, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            if f.endswith((".py", ".csv", ".toml")):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_sha(root: str):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def record(args, root: str, workers: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    sha = git_sha(root)
    code = {"git_sha": sha} if sha else {"source_sha256": source_digest(root)}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **code,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_pinning": "none",
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workers": workers,
    }


def measure_in_process(run: Run, args) -> dict:
    text = run.child(
        "measure", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", run.tmp,
    )
    result = json.loads(text.strip().splitlines()[-1])
    run.attempted += result["attempted"]
    run.failed += result["failed"]
    return result


def end_to_end(run: Run, args) -> tuple[dict, dict]:
    """End-to-end metric values, calibrated as calibration.py describes,
    and report-only figures. Half of the set-up pairs are taken before the
    timed window and half after it, so that they see the machine at both
    ends of the run."""
    run.setup_pairs(args.workload, args.seed, 1)  # may write bytecode caches
    setup = run.setup_pairs(args.workload, args.seed, SETUP_REPEATS // 2)
    notes = {}
    if args.workload == "cli-paper":
        rates, repro, speeds = shell.measure(run, args.seed, args.seconds)
        notes["reproduce_s"] = statistics.median(repro)
        notes["reproduce_samples"] = len(repro)
        # A round is a command of over a second on both cores, which one
        # calibration slice on either side of it gauges poorly; the run's
        # median slice does better (see calibration.py).
        scaled = [rate / calibration.factor(speeds) for rate in rates]
    else:
        result = measure_in_process(run, args)
        rates = [done / wall for done, wall in result["rounds"]["untraced"]]
        speeds = result["calibration"]
        scaled = calibration.scaled_rates(rates, speeds)
    setup += run.setup_pairs(args.workload, args.seed, SETUP_REPEATS - len(setup))
    tail_rate, tail_pct = tail(scaled)
    values = {
        "tournaments_per_s": statistics.median(scaled),
        "setup_s": calibration.setup_seconds(setup, args.workload == "cli-paper"),
        "peak_rss_mb": run.peak_rss_kb / 1024,
    }
    notes.update({
        "tournaments_per_s_tail": tail_rate,
        "tail_percentile": tail_pct,
        "rounds": len(rates),
        "wall_tournaments_per_s": statistics.median(rates),
        "wall_setup_s": statistics.median(t for t, _ in setup),
        "speed_factor": calibration.factor(speeds),
        "setup_samples": len(setup),
    })
    return values, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tournsim", "__init__.py")):
        print("perfbench: src/tournsim not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    tmp = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    try:
        run = Run(root, tmp)
        if args.trace:
            values, notes = measure_in_process(run, args)["layers"], {}
        else:
            values, notes = end_to_end(run, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run is using it

    metrics = {}
    for m in declared:
        if m["name"] not in values:
            print(f"perfbench: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print("record " + json.dumps(record(args, root, WORKERS[args.workload])))
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    for name, v in notes.items():
        print(f"{name:32s} {v:14.6g}")
    print(f"{'error_rate':32s} {run.failed / max(run.attempted, 1):14.6g} "
          f"({run.failed} failed of {run.attempted} operations)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
