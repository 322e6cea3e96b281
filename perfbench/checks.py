"""Output checks shared by every workload.

Standard library only: `run.py` checks the `tournsim campaign` histogram
files with it without importing the package under test.

The campaign checks are statistical, not byte-exact, so that a change of
the random-stream layout stays measurable: a campaign's mean L1 distance
must lie within Z standard errors of a reference mean recorded here.
"""

from __future__ import annotations

import math
import sys

N_TEAMS = 8
MAX_L1 = N_TEAMS * N_TEAMS // 2  # largest footrule distance for 8 teams
Z = 5.0  # standard errors a campaign mean may sit from its reference

# Reference L1 distributions for the campaign default format variants
# (random seeding, drawn knockout games settled by a coin), keyed by the
# truth ranking (best first) and the variant label, as (mean, standard
# deviation). Written by `python3 perfbench/reference.py`, which simulated
# REFERENCE_N tournaments per entry with master seed REFERENCE_SEED.
REFERENCE_N = 200_000
REFERENCE_SEED = 1403_4023
TRUTH_2012 = "Wright,Helios,Yushan,Gliders,Marlik,GDUT,RobOTTO,AUT"
# The 1000-games-per-pair oracle returns this order for a few percent of
# master seeds; `tournsim campaign` then scores against it.
TRUTH_2012_SWAP = "Wright,Helios,Yushan,Marlik,Gliders,GDUT,RobOTTO,AUT"
TRUTH_2013 = "Wright,Helios,Oxsy,Yushan,Cyrus,Gliders,AUT,Axiom"
REFERENCE = {}
REFERENCE[(TRUTH_2013, "proposed")] = (7.46784, 3.12961)
REFERENCE[(TRUTH_2013, "proposed-bo3")] = (7.11842, 3.10403)
REFERENCE[(TRUTH_2012, "proposed")] = (4.33436, 2.40116)
REFERENCE[(TRUTH_2012, "f2012")] = (6.09706, 2.93761)
REFERENCE[(TRUTH_2012, "f2013")] = (6.59003, 2.99282)
REFERENCE[(TRUTH_2012_SWAP, "proposed")] = (4.49079, 2.29195)
REFERENCE[(TRUTH_2012_SWAP, "f2012")] = (6.15072, 2.87083)
REFERENCE[(TRUTH_2012_SWAP, "f2013")] = (6.57544, 2.98758)

# The paper's finding: mean L1 distance grows in this order.
PAPER_ORDER = ("proposed", "f2012", "f2013")


class Tally:
    """Operations attempted and failed. The first failures are printed to
    standard error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, problem) -> None:
        """Count one output check; `problem` is None when it passed."""
        self.attempted += 1
        if problem is not None:
            self.fail(problem)

    def fail(self, problem: str, count: int = 1) -> None:
        """Count `count` failures of operations already counted as attempted."""
        self.failed += count
        if self.failed <= 20:
            print(f"perfbench: FAILED {problem}", file=sys.stderr)


def mean_sd(counts) -> tuple[int, float, float]:
    """Sample count, mean and standard deviation of an L1 histogram."""
    n = sum(counts.values())
    mean = sum(v * c for v, c in counts.items()) / n
    var = sum(c * (v - mean) ** 2 for v, c in counts.items()) / n
    return n, mean, math.sqrt(var)


def histogram_problem(label: str, counts, n_expected: int):
    """Why the campaign histogram of `label` is impossible, or None if it
    is not."""
    n = sum(counts.values())
    if n != n_expected:
        return f"{label}: n_samples {n} != {n_expected} requested"
    bad = [v for v in counts if v % 2 or not 0 <= v <= MAX_L1]
    if bad:
        return f"{label}: impossible L1 values {sorted(bad)}"
    return None


def mean_problem(truth: str, label: str, counts):
    """Why a histogram's mean is not that of the reference, or None."""
    if (truth, label) not in REFERENCE:
        return f"no reference mean for {label} against truth {truth}"
    ref_mean, ref_sd = REFERENCE[(truth, label)]
    n, mean, _ = mean_sd(counts)
    se = ref_sd * math.sqrt(1 / n + 1 / REFERENCE_N)
    if abs(mean - ref_mean) > Z * se:
        return (
            f"{label}: mean {mean:.4f} over {n} tournaments is more than "
            f"{Z} SE ({se:.4f}) from the reference {ref_mean:.4f}"
        )
    return None


def order_problem(means: dict):
    """Why the means break the paper's ordering, or None. Only the labels
    present are compared."""
    labels = [lb for lb in PAPER_ORDER if lb in means]
    for better, worse in zip(labels, labels[1:]):
        if not means[better] < means[worse]:
            return (
                f"ordering broken: {better} {means[better]:.4f} "
                f"is not below {worse} {means[worse]:.4f}"
            )
    return None


def parse_histogram(text: str) -> tuple[dict, int]:
    """Counts and header n_samples of a `tournsim-histogram` file of any
    version. Raises ValueError on any malformed line."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# tournsim-histogram v"):
        raise ValueError("missing '# tournsim-histogram v<N>' line")
    n_samples = None
    counts = {}
    for line in lines[1:]:
        if line.startswith("#"):
            for tok in line[1:].split():
                if tok.startswith("n_samples="):
                    n_samples = int(tok.split("=", 1)[1])
        elif line != "l1,count":
            v, c = line.split(",")
            counts[int(v)] = int(c)
    if n_samples is None:
        raise ValueError("missing n_samples header")
    if n_samples != sum(counts.values()):
        raise ValueError("n_samples header does not match the counts")
    return counts, n_samples
