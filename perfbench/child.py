"""Fresh-interpreter steps of the benchmark, started by run.py.

    child.py setup   --workload W --seed S
    child.py reference
    child.py measure --workload W --seed S --seconds T --trace 0|1 --out-dir D
    child.py truth   --seed S

`setup` prints the seconds from `import tournsim` to the workload's inputs
being built, and `reference` the seconds `import numpy` alone takes,
timed the same way. `measure` runs rounds of the workload for T seconds and prints
one JSON object with each round's size and duration, the calibration rates
taken between rounds (see calibration.py), the operation counts
and, with --trace 1, the per-layer metrics. `truth` prints the oracle
truth ranking `tournsim campaign` scores against for seed S.

Nothing but the standard library is imported before the set-up clock
starts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

PROBE_REPEATS = 5
# The pool costs about 20 ms a campaign on a 2-core machine. The machine's
# noise grows with the campaign's length, so the probe runs many short
# campaigns: 3 pairs of 2000 tournaments read from 0.03 to 0.6 s in four
# runs of one commit, 10 pairs of 500 from 0.015 to 0.033 s in six.
POOL_PROBE_N = 500  # tournaments per pool-overhead campaign
POOL_PROBE_REPEATS = 10


def setup(args) -> None:
    start = time.perf_counter()
    import workloads

    workloads.build(args.workload, args.seed, args.out_dir)
    print(repr(time.perf_counter() - start))


def reference(args) -> None:
    start = time.perf_counter()
    import numpy  # noqa: F401

    print(repr(time.perf_counter() - start))


def truth(args) -> None:
    from tournsim import cli, fixtures
    from tournsim.formats import FormatSpec, run_format
    from tournsim.model import PoissonSampler, derive_rng

    # The same run `tournsim campaign --truth oracle` makes.
    spec = FormatSpec(kind="iterated_round_robin", games_per_pair=1000)
    sampler = PoissonSampler(fixtures.load_goal_model(2012))
    rng = derive_rng(args.seed, cli.TRUTH_STREAM_KEY)
    print(",".join(run_format(spec, sampler, rng, keep_games=False).ranking.order()))


def measure(args) -> None:
    import calibration
    import tracing
    import workloads

    w = workloads.build(args.workload, args.seed, args.out_dir)
    plain = tracing.Calls()
    tracer = tracing.Tracer() if args.trace else None
    traced_calls = tracing.Calls(tracer) if tracer else None
    w.round(0, plain)  # warm-up, outside the timed window
    rounds = {"untraced": [], "traced": []}  # [tournaments, wall seconds]
    speeds = [calibration.rate()]
    k = 1
    start = time.perf_counter()
    while (
        time.perf_counter() - start < args.seconds
        or not rounds["untraced"]
        or (tracer and not rounds["traced"])
    ):
        # The traced run alternates untraced and traced rounds, so that both
        # see the same machine load.
        traced = tracer is not None and k % 2 == 0
        t0 = time.perf_counter()
        if traced:
            with tracer.installed():
                done = w.round(k, traced_calls)
        else:
            done = w.round(k, plain)
        rounds["traced" if traced else "untraced"].append([done, time.perf_counter() - t0])
        speeds.append(calibration.rate())
        k += 1
    w.finish()
    result = {"rounds": rounds, "calibration": speeds}
    if tracer:
        layers = probes(w, args.seed, speeds)
        layers.update(layer_metrics(tracer, rounds))
        f = calibration.factor(speeds)
        # Times are scaled by the run's speed factor; counts and ratios are not.
        result["layers"] = {
            name: value * f if name.endswith(("_us_per_t", "_ms", "_s")) else value
            for name, value in layers.items()
        }
    result["attempted"] = w.attempted
    result["failed"] = w.failed
    print(json.dumps(result))


def probes(w, seed: int, speeds: list) -> dict:
    """One-off costs that are properties of the code, not of a workload's
    rounds: the CLI's oracle truth run, the golden checks behind
    `tournsim reproduce`, and the process pool of `run_campaign`."""
    import calibration
    import checks
    from tournsim import cli, fixtures
    from tournsim.formats import FormatSpec, run_format
    from tournsim.model import PoissonSampler, derive_rng
    from tournsim.montecarlo import CampaignSpec, run_campaign
    from workloads import campaign_format

    clock = time.perf_counter
    sampler = PoissonSampler(fixtures.load_goal_model(2012))
    oracle = FormatSpec(kind="iterated_round_robin", games_per_pair=1000)
    truth_s = []
    for _ in range(PROBE_REPEATS):
        t0 = clock()
        run_format(oracle, sampler, derive_rng(seed, cli.TRUTH_STREAM_KEY), keep_games=False)
        truth_s.append(clock() - t0)

    golden_s = []
    for _ in range(PROBE_REPEATS):
        t0 = clock()
        passed = [check.run() for check in fixtures.golden_checks()]
        golden_s.append(clock() - t0)
        w.check(None if all(passed) else f"{passed.count(False)} golden checks failed")

    spec = CampaignSpec(
        campaign_format("proposed"), sampler, fixtures.published_truth(2012),
        POOL_PROBE_N, seed,
    )
    wall = {1: [], 2: []}
    dists = {}
    for _ in range(POOL_PROBE_REPEATS):
        for workers in (1, 2):
            t0 = clock()
            dists[workers] = run_campaign(spec, workers=workers)
            wall[workers].append(clock() - t0)
        speeds.append(calibration.rate())
    w.check(
        None if dists[1].counts == dists[2].counts
        else "2-worker campaign differs from the 1-worker one"
    )
    w.check(checks.histogram_problem("pool probe", dists[2].counts, POOL_PROBE_N))
    return {
        "formats.oracle_truth_ms": statistics.median(truth_s) * 1e3,
        "fixtures.golden_checks_ms": statistics.median(golden_s) * 1e3,
        "montecarlo.pool_overhead_s": (
            statistics.median(wall[2]) - statistics.median(wall[1]) / 2
        ),
    }


def layer_metrics(tr, rounds: dict) -> dict:
    """Unscaled per-layer metrics over the traced rounds, per tournament."""
    t = sum(done for done, _ in rounds["traced"])
    us = 1e6 / t

    def tps(kind):
        return statistics.median(done / wall for done, wall in rounds[kind])

    from_counts = tr.calls("montecarlo.from_counts")
    return {
        "model.sample_calls_per_t": tr.calls("model.sample") / t,
        "model.sample_us_per_t": tr.seconds("model.sample") * us,
        "model.sample_many_draws_per_t": tr.units("model.sample_many") / t,
        "model.sample_many_us_per_t": tr.seconds("model.sample_many") * us,
        "model.derive_rng_us_per_t": tr.seconds("model.derive_rng") * us,
        "formats.run_format_us_per_t": tr.seconds("formats.run_format") * us,
        "formats.self_us_per_t": tr.self_seconds("formats.run_format") * us,
        "formats.games_per_t": tr.units("formats.run_format") / t,
        "formats.replay_us_per_t": tr.seconds("formats.replay") * us,
        "scoring.standings_us_per_t": tr.seconds("scoring.standings") * us,
        "scoring.rank_us_per_t": tr.seconds("scoring.rank") * us,
        "scoring.rank_calls_per_t": tr.calls("scoring.rank") / t,
        "scoring.l1_us_per_t": tr.seconds("scoring.l1") * us,
        "montecarlo.self_us_per_t": tr.self_seconds("montecarlo.run_campaign") * us,
        "montecarlo.from_counts_ms": (
            tr.seconds("montecarlo.from_counts") / from_counts * 1e3 if from_counts else 0.0
        ),
        "trace.overhead_pct": (1 - tps("traced") / tps("untraced")) * 100,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description="fresh-interpreter benchmark step")
    ap.add_argument("step", choices=("setup", "reference", "measure", "truth"))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args()
    steps = {"setup": setup, "reference": reference, "measure": measure, "truth": truth}
    steps[args.step](args)


if __name__ == "__main__":
    main()
