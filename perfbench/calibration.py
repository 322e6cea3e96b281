"""Machine-speed calibration for the timed metrics.

On a shared virtual machine the speed of a core drifts while the benchmark
runs: on a 2-core VM, back-to-back 0.3 s rounds of the same work ran up to
1.7 times apart, and the medians of whole 20 s runs of one workload had an
interquartile range of 20 to 35% of their median. So the benchmark times a
short fixed calibration loop before its first timed round and after each
one, and reports rates and times as they would read on a machine on which
that loop runs NOMINAL_RATE iterations per second:

    speed          = (calibration rate / NOMINAL_RATE) ** SENSITIVITY
    scaled rate    = wall rate / speed
    scaled seconds = wall seconds * speed

A round's rate is scaled by the speed around it, from the geometric mean
of the calibration rates taken just before and just after it: within a
run, the log rates of rounds and of their calibration correlated at 0.65
to 0.9. The workloads speed up less than the loop when the machine gets
faster. Over 10 runs each of rr-playoff and knockout, the run-to-run IQR of
the median scaled round rate was smallest for exponents of 0.85 to 0.9
(2 to 6%, against 35 and 20% unscaled, and 5 and 8% when the whole run's
rate was scaled by the run's median calibration rate), hence SENSITIVITY.
The rate of a cli-paper round, a command of over a second on both cores,
and per-layer times, which are totals over a run, are scaled by the speed
of the run's median calibration rate instead. For cli-paper neither way
was steadier than the other in run-to-run IQR (7 to 20% each over four
sets of 10 runs), but the medians of consecutive sets moved less this way.

Set-up time is not scaled by the speed. It is mostly a fresh
interpreter's start and imports, which follow the loop too loosely: over
8 runs each of two workloads, the median set-up time times the run's
speed had a run-to-run IQR of 15 to 37% of its median, and the fastest
of 16 samples 21 to 24%. So each set-up sample is paired with a reference
sample taken just before it, in the same way, of a program that imports
numpy alone (which the package imports too), and set-up time is reported
as the median ratio of the pairs times the reference's time on the
nominal machine. Over the same runs that IQR was 0.8 to 2.4%. Work added
to or taken out of the set-up moves the ratio by the same share as the
set-up time.

The loop is a small round-robin written here: it draws scalar Poisson goals
from a numpy Generator seeded like `derive_rng`, builds small frozen
objects and ranks a table, as the package does, but runs none of the
package's code, so no change to the package moves it.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

NOMINAL_RATE = 5000.0  # loop iterations per second on the nominal machine
SENSITIVITY = 0.85  # see the module docstring
# Reference set-up times on the nominal machine (see the module docstring).
NOMINAL_IMPORT_NUMPY_S = 0.07  # `import numpy` timed inside a fresh interpreter
NOMINAL_PYTHON_NUMPY_S = 0.14  # wall time of `python3 -c "import numpy"`
ITERATIONS = 60  # one calibration slice, about 15 ms
TEAMS = 8
MEANS = np.abs(np.sin(np.arange(TEAMS * TEAMS, dtype=float))).reshape(TEAMS, TEAMS) * 3


@dataclass(frozen=True)
class _Team:
    index: int
    name: str


@dataclass(frozen=True)
class _Game:
    home: _Team
    away: _Team
    home_goals: int
    away_goals: int


def _round_robin(k: int, teams: list) -> int:
    rng = np.random.default_rng(np.random.SeedSequence([7, k]))
    seeds = [int(x) for x in rng.permutation(TEAMS)]
    table = {t.name: [0, 0] for t in teams}
    for a in range(TEAMS):
        for b in range(a + 1, TEAMS):
            i, j = seeds[a], seeds[b]
            g = _Game(teams[i], teams[j], int(rng.poisson(MEANS[i, j])),
                      int(rng.poisson(MEANS[j, i])))
            home, away = table[g.home.name], table[g.away.name]
            if g.home_goals > g.away_goals:
                home[0] += 3
            elif g.home_goals < g.away_goals:
                away[0] += 3
            else:
                home[0] += 1
                away[0] += 1
            home[1] += g.home_goals - g.away_goals
            away[1] += g.away_goals - g.home_goals
    order = sorted(table, key=lambda n: (-table[n][0], -table[n][1], n))
    return sum(abs(p - order.index(t.name)) for p, t in enumerate(teams))


def rate() -> float:
    """Calibration loop iterations per second, measured now."""
    teams = [_Team(i, f"team{i}") for i in range(TEAMS)]
    start = time.perf_counter()
    for k in range(ITERATIONS):
        _round_robin(k, teams)
    return ITERATIONS / (time.perf_counter() - start)


def factor(rates) -> float:
    """Speed of a run from the calibration rates taken in it."""
    return (statistics.median(rates) / NOMINAL_RATE) ** SENSITIVITY


def scaled_rates(rates, speeds) -> list:
    """Round rates scaled by the speed around each round; speeds[i] and
    speeds[i + 1] are the calibration rates taken before and after round i."""
    return [
        rate / (math.sqrt(speeds[i] * speeds[i + 1]) / NOMINAL_RATE) ** SENSITIVITY
        for i, rate in enumerate(rates)
    ]


def setup_seconds(pairs, whole_process: bool) -> float:
    """Set-up time on the nominal machine from (set-up, reference) second
    pairs; `whole_process` when both are wall times of whole interpreters."""
    nominal = NOMINAL_PYTHON_NUMPY_S if whole_process else NOMINAL_IMPORT_NUMPY_S
    return statistics.median(t / ref for t, ref in pairs) * nominal
