"""Monte Carlo campaign driver.

Simulates many tournaments under one format, measures each outcome's L1
discrepancy from a ground-truth ranking, and aggregates the empirical
distribution.

Stream layout v2: tournaments come in blocks of BLOCK_SIZE, and block b
draws from the one generator derive_rng(master_seed, b); global tournament
t is row t % BLOCK_SIZE of block t // BLOCK_SIZE. A campaign over
[start_index, start_index + n) simulates the blocks covering that range and
keeps the rows inside it, and workers receive runs of whole blocks, so the
result is bit-identical for a given spec regardless of worker count, and a
campaign may be split into sub-campaigns and merged.

Specs the batched engine supports (`batch.supports`) play a whole block
as arrays; the rest run the scalar engine row after row on the block's
generator, up to the campaign's last tournament.
"""

from __future__ import annotations

import contextlib
import io
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import batch
from .errors import InvalidComparisonError, InvalidInputError, TournsimError
from .formats import FormatSpec, run_format
from .model import derive_rng
from .scoring import Ranking, l1_distance

WORKERS_ENV = "TOURNSIM_WORKERS"

BLOCK_SIZE = 250  # tournaments per block of the stream layout
STREAM_LAYOUT = "v2"  # written as `stream=` in campaign histogram headers
HISTOGRAM_MAGIC = "# tournsim-histogram v1"


@dataclass(frozen=True)
class CampaignSpec:
    format: FormatSpec
    sampler: object  # PoissonSampler or EmpiricalPoolSampler
    truth: Ranking
    n_tournaments: int
    master_seed: int
    start_index: int = 0

    def __post_init__(self):
        if self.n_tournaments < 1:
            raise InvalidInputError("n_tournaments must be >= 1")
        if set(self.truth.places) != set(self.sampler.names):
            raise InvalidInputError("truth ranking does not cover the model's teams")


@dataclass(frozen=True)
class DiscrepancyDistribution:
    """Empirical distribution of L1 distances from one campaign."""

    counts: Mapping[int, int]
    n_teams: int
    n_samples: int
    mean: float
    median: float
    quantiles: tuple[float, float, float, float]  # p5, p25, p75, p95

    @classmethod
    def from_counts(cls, counts: Mapping[int, int], n_teams: int) -> "DiscrepancyDistribution":
        bound = (n_teams * n_teams) // 2
        for v in counts:
            if v % 2 or not (0 <= v <= bound):
                raise InvalidInputError(f"impossible L1 value {v} for n={n_teams}")
        n = sum(counts.values())
        if n < 1:
            raise InvalidInputError("empty distribution")
        values = np.repeat(
            np.array(sorted(counts)), [counts[v] for v in sorted(counts)]
        )
        p5, p25, med, p75, p95 = np.percentile(values, [5, 25, 50, 75, 95])
        return cls(
            dict(sorted(counts.items())),
            n_teams,
            n,
            float(np.mean(values)),
            float(med),
            (float(p5), float(p25), float(p75), float(p95)),
        )

    @property
    def std_error(self) -> float:
        """Standard error of the mean."""
        var = (
            sum(c * (v - self.mean) ** 2 for v, c in self.counts.items())
            / self.n_samples
        )
        return (var / self.n_samples) ** 0.5

    def cdf(self, value: int) -> float:
        return sum(c for v, c in self.counts.items() if v <= value) / self.n_samples

    def to_text(self, header: Optional[Mapping[str, str]] = None) -> str:
        """Self-describing two-column histogram, byte-deterministic."""
        out = io.StringIO()
        out.write(HISTOGRAM_MAGIC + "\n")
        for k, v in (header or {}).items():
            out.write(f"# {k}={v}\n")
        out.write(f"# n_teams={self.n_teams} n_samples={self.n_samples}\n")
        q = self.quantiles
        out.write(
            f"# mean={self.mean:.6f} median={self.median:.1f} "
            f"p5={q[0]:.1f} p25={q[1]:.1f} p75={q[2]:.1f} p95={q[3]:.1f}\n"
        )
        out.write("l1,count\n")
        for v in sorted(self.counts):
            out.write(f"{v},{self.counts[v]}\n")
        return out.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "DiscrepancyDistribution":
        """Parse `to_text` output. A file without a `stream=` line predates
        stream layout v2 and is accepted."""
        lines = text.splitlines()
        if not lines or lines[0].strip() != HISTOGRAM_MAGIC:
            raise InvalidInputError(f"first line is not {HISTOGRAM_MAGIC!r}")
        counts: dict[int, int] = {}
        header: dict[str, str] = {}
        try:
            for line in lines[1:]:
                line = line.strip()
                if line.startswith("#"):
                    for tok in line[1:].split():
                        key, sep, value = tok.partition("=")
                        if sep:
                            header[key] = value
                    continue
                if not line or line.startswith("l1,"):
                    continue
                v, c = line.split(",")
                counts[int(v)] = int(c)
            n_teams = int(header["n_teams"])
            n_samples = int(header["n_samples"])
        except KeyError as exc:
            raise InvalidInputError(f"histogram file missing {exc.args[0]} header") from None
        except ValueError as exc:
            raise InvalidInputError(f"malformed histogram line: {exc}") from None
        stream = header.get("stream")
        if stream is not None and stream != STREAM_LAYOUT:
            raise InvalidInputError(f"unknown stream layout {stream!r}")
        dist = cls.from_counts(counts, n_teams)
        if dist.n_samples != n_samples:
            raise InvalidInputError(
                f"n_samples={n_samples} but the counts sum to {dist.n_samples}"
            )
        return dist


def merge_distributions(*dists: DiscrepancyDistribution) -> DiscrepancyDistribution:
    """Associative, commutative merge of count maps."""
    if not dists:
        raise InvalidInputError("nothing to merge")
    n_teams = dists[0].n_teams
    if any(d.n_teams != n_teams for d in dists):
        raise InvalidComparisonError("distributions over different team counts")
    total: Counter = Counter()
    for d in dists:
        total.update(d.counts)
    return DiscrepancyDistribution.from_counts(total, n_teams)


@contextlib.contextmanager
def _located(where: str):
    """Name the tournaments a failure happened in. The exception is not
    rebuilt, since its constructor may take other arguments."""
    try:
        yield
    except Exception as exc:
        if hasattr(exc, "add_note"):  # Python 3.11+
            exc.add_note(f"in {where} of the campaign")
            raise
        raise TournsimError(f"{where}: {exc}") from exc


def _block_range(spec: CampaignSpec) -> tuple[int, int]:
    """First and one-past-last block covering the campaign's tournaments."""
    lo = spec.start_index
    return lo // BLOCK_SIZE, (lo + spec.n_tournaments - 1) // BLOCK_SIZE + 1


def _simulate_block(spec: CampaignSpec, first: int, last: int) -> Counter:
    """L1 counts of the campaign's tournaments in blocks [first, last)."""
    names = spec.sampler.names
    lo, hi = spec.start_index, spec.start_index + spec.n_tournaments
    batched = batch.supports(spec.format, spec.sampler)
    truth_place = np.array([spec.truth[name] for name in names])
    places = np.arange(1, len(names) + 1)
    totals = np.zeros(len(names) ** 2 // 2 + 1, dtype=np.int64)
    for b in range(first, last):
        base = b * BLOCK_SIZE
        r0, r1 = max(lo - base, 0), min(hi - base, BLOCK_SIZE)
        rng = derive_rng(spec.master_seed, b)
        if batched:
            with _located(f"tournaments {base + r0}-{base + r1 - 1}"):
                final = batch.play_block(spec.format, spec.sampler, rng, BLOCK_SIZE)
            l1 = np.abs(places - truth_place[final[r0:r1]]).sum(1)
        else:
            l1 = []
            for r in range(r1):
                with _located(f"tournament {base + r}"):
                    outcome = run_format(spec.format, spec.sampler, rng, keep_games=False)
                if r >= r0:
                    l1.append(l1_distance(outcome.ranking, spec.truth))
        totals += np.bincount(l1, minlength=totals.size)
    return Counter({int(v): int(c) for v, c in enumerate(totals) if c})


def run_campaign(spec: CampaignSpec, workers: Optional[int] = None) -> DiscrepancyDistribution:
    """Simulate spec.n_tournaments independent format runs and aggregate
    their L1 discrepancies. Output is a pure function of the spec; worker
    count only affects wall-clock time."""
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    first, last = _block_range(spec)
    parts = min(workers, last - first)
    if parts <= 1:
        counts = _simulate_block(spec, first, last)
    else:
        bounds = np.linspace(first, last, parts + 1, dtype=int)
        counts = Counter()
        with ProcessPoolExecutor(max_workers=parts) as pool:
            futures = [
                pool.submit(_simulate_block, spec, int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
            for f in futures:
                counts.update(f.result())
    return DiscrepancyDistribution.from_counts(counts, len(spec.sampler.names))


@dataclass(frozen=True)
class ComparisonSummary:
    """Formalized side-by-side of two discrepancy distributions; `a` is
    expected to be the better (smaller-L1) one."""

    mean_delta: float  # mean(b) - mean(a)
    median_delta: float
    dominance_holds: bool  # CDF_a(v) >= CDF_b(v) at every L1 value
    cdf_deltas: dict  # L1 value -> CDF_a(v) - CDF_b(v)


def compare_campaigns(
    a: DiscrepancyDistribution, b: DiscrepancyDistribution
) -> ComparisonSummary:
    if a.n_teams != b.n_teams:
        raise InvalidComparisonError("distributions over different team counts")
    support = sorted(set(a.counts) | set(b.counts))
    deltas = {v: a.cdf(v) - b.cdf(v) for v in support}
    return ComparisonSummary(
        mean_delta=b.mean - a.mean,
        median_delta=b.median - a.median,
        dominance_holds=all(d >= 0 for d in deltas.values()),
        cdf_deltas=deltas,
    )
