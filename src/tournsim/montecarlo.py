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

A process pool costs ~60-75 ms to start on a 2-core machine, against ~2
ms a batched block, so `run_campaigns` takes its `workers` as an upper
bound (`_process_count`).

Specs the batched engine supports (`batch.supports`) play a block as
arrays, seeded by `formats._seed_rows` and played by `batch.play_block`;
the rest run `formats.run_format`, which seeds by the same rule, row
after row on the block's generator, up to the campaign's last tournament.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import itertools
from collections import Counter, namedtuple
from typing import Mapping, Optional, Sequence

import numpy as np

from . import batch
from .errors import InvalidComparisonError, InvalidInputError, TournsimError
from .formats import FormatSpec, _seed_rows, run_format
from .model import _INT64_MAX, _at_least, _instance, _integer, _record, _sampler, derive_rng
from .scoring import Ranking, l1_distance

BLOCK_SIZE = 250  # tournaments per block of the stream layout
# A pool pays for itself from 2 * _BATCHED_BLOCKS_PER_PROCESS batched
# blocks. On a 2-core machine the three paper formats took as long at 96
# blocks on a 2-process pool as in one process (medians 204 and 193 ms),
# 256 against 371 ms at 192 blocks, and 134 against 61 ms at 24. Only this
# crossover to a second process was measured, so past it a campaign starts
# up to one process a block, as many as `workers`.
_BATCHED_BLOCKS_PER_PROCESS = 48
STREAM_LAYOUT = "v2"  # written as `stream=` in campaign histogram headers
HISTOGRAM_MAGIC = "# tournsim-histogram v1"


class CampaignSpec(_record("CampaignSpec", dict(
        format=_instance(FormatSpec), sampler=_sampler, truth=_instance(Ranking),
        n_tournaments=_at_least(1), master_seed=_at_least(0), start_index=_at_least(0)), (0,))):
    """One campaign: `n_tournaments` runs of `format` from tournament
    `start_index` of `master_seed`'s streams, each scored against `truth`
    of the sampler's teams. A sampler not a PoissonSampler runs scalar."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        if set(spec.truth.places) != set(spec.sampler.names):
            raise InvalidInputError("truth ranking does not cover the model's teams")
        return spec


def _counts(counts, name: str) -> dict:
    """Each L1 value's count, both ints (`_integer`), as a histogram holds."""
    if not isinstance(counts, Mapping):
        raise InvalidInputError(f"{name} must be a mapping of L1 value to count, not {counts!r}")
    return {_integer(v, "L1 values must be integers"): _integer(c, "counts must be integers")
            for v, c in counts.items()}


class DiscrepancyDistribution(_record("DiscrepancyDistribution", dict(
        counts=_counts, n_teams=_at_least(float("-inf"))))):
    """Empirical distribution of L1 distances from one campaign, in memory
    that does not grow with it: `counts`, each L1 value's positive count in
    value order, and `n_teams`, at least 2. Its statistics are properties."""

    __slots__ = ()

    def __new__(cls, counts: Mapping[int, int], n_teams: int):
        counts, n_teams = super().__new__(cls, counts, n_teams)
        if n_teams < 2:
            raise InvalidInputError(f"a ranking needs at least 2 teams, not {n_teams}")
        for v, c in counts.items():
            if v % 2 or not (0 <= v <= (n_teams * n_teams) // 2):
                raise InvalidInputError(f"impossible L1 value {v} for n={n_teams}")
            if c < 0:
                raise InvalidInputError(f"negative count {c} for L1 value {v}")
            if max(v, c) > _INT64_MAX:
                raise InvalidInputError(f"L1 value {v} with count {c}: a histogram holds values "
                                        f"and counts up to {_INT64_MAX}")
        if not any(counts.values()):
            raise InvalidInputError("empty distribution")
        return tuple.__new__(cls, ({v: counts[v] for v in sorted(counts) if counts[v]}, n_teams))

    @classmethod
    def from_counts(cls, counts: Mapping[int, int], n_teams: int) -> "DiscrepancyDistribution":
        """The distribution of a count map."""
        return cls(counts, n_teams)

    @property
    def n_samples(self) -> int:
        return sum(self.counts.values())

    @property
    def mean(self) -> float:
        return float(sum(v * c for v, c in self.counts.items()) / self.n_samples)

    @property
    def median(self) -> float:
        return self._percentile(50)

    @property
    def quantiles(self) -> tuple[float, float, float, float]:
        """p5, p25, p75 and p95."""
        return tuple(map(self._percentile, (5, 25, 75, 95)))

    def _percentile(self, p: float) -> float:
        """numpy's 'linear' percentile of the sample, from its cumulative
        counts: index h = (n - 1) * p / 100 of the sorted sample, between its
        neighbours a and b at fraction t. It equals `np.percentile` exactly."""
        values = list(self.counts)
        ends = list(itertools.accumulate(self.counts.values()))  # one past each run
        h = (ends[-1] - 1) * (p / 100)
        i = int(h)  # h >= 0: its floor
        t = h - i
        a = values[bisect.bisect_right(ends, i)]
        b = values[bisect.bisect_right(ends, min(i + 1, ends[-1] - 1))]
        return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)

    @property
    def std_error(self) -> float:
        """Standard error of the mean."""
        n, mean = self.n_samples, self.mean
        return (sum(c * (v - mean) ** 2 for v, c in self.counts.items()) / n / n) ** 0.5

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
        for v, c in self.counts.items():
            out.write(f"{v},{c}\n")
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
                v, c = (int(x) for x in line.split(","))
                if v in counts:
                    raise ValueError(f"l1 value {v} is listed more than once")
                counts[v] = c
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


_distribution = _instance(DiscrepancyDistribution)


def merge_distributions(*dists: DiscrepancyDistribution) -> DiscrepancyDistribution:
    """Associative, commutative merge of count maps."""
    if not dists:
        raise InvalidInputError("nothing to merge")
    dists = [_distribution(d, "dists") for d in dists]
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
                seeds = _seed_rows(spec.format.seeding, names, rng, BLOCK_SIZE)
                final = batch.play_block(spec.format, spec.sampler, rng, seeds)
            l1 = np.einsum("ij->i", np.abs(places - truth_place[final[r0:r1]]))
        else:
            l1 = []
            for r in range(r1):
                with _located(f"tournament {base + r}"):
                    outcome = run_format(spec.format, spec.sampler, rng, keep_games=False)
                if r >= r0:
                    l1.append(l1_distance(outcome.ranking, spec.truth))
        totals += np.bincount(l1, minlength=totals.size)
    return Counter({int(v): int(c) for v, c in enumerate(totals) if c})


def run_campaign(spec: CampaignSpec, workers: int = 1) -> DiscrepancyDistribution:
    """Simulate spec.n_tournaments independent format runs and aggregate
    their L1 discrepancies. Output is a pure function of the spec; worker
    count only affects wall-clock time."""
    return run_campaigns([spec], workers)[0]


def _process_count(
    specs: Sequence[CampaignSpec], ranges: Sequence[tuple[int, int]], workers: int
) -> int:
    """The processes that play the campaigns' blocks, given each spec's
    (first, last) block range: one a block, at most `workers`. But when
    every block is batched (~2 ms each, against 40 ms to 1 s on the scalar
    path) and there are fewer than 2 * _BATCHED_BLOCKS_PER_PROCESS of them,
    one: the calling process."""
    blocks = sum(last - first for first, last in ranges)
    if blocks < 2 * _BATCHED_BLOCKS_PER_PROCESS and all(
        batch.supports(spec.format, spec.sampler) for spec in specs
    ):
        return 1
    return min(workers, blocks)


def run_campaigns(
    specs: Sequence[CampaignSpec], workers: int = 1
) -> list[DiscrepancyDistribution]:
    """run_campaign of every spec. `workers` bounds the processes: each
    spec's blocks are split into up to `_process_count` runs, and the runs
    of all specs share one pool. A campaign that pays for no pool plays in
    the calling process, and the pool machinery is not imported."""
    workers = _at_least(1)(workers, "workers")
    ranges = [_block_range(spec) for spec in specs]
    processes = _process_count(specs, ranges, workers)
    runs = []  # (spec number, first block, last block)
    for s, (first, last) in enumerate(ranges):
        bounds = np.linspace(first, last, min(processes, last - first) + 1, dtype=int)
        runs += [(s, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
    counts = [Counter() for _ in specs]
    if processes == 1:
        for s, lo, hi in runs:
            counts[s].update(_simulate_block(specs[s], lo, hi))
    else:
        # Imported here, so that `import tournsim` and campaigns on one
        # process leave the pool machinery (concurrent.futures,
        # multiprocessing, socket, subprocess) unloaded.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            futures = [(s, pool.submit(_simulate_block, specs[s], lo, hi)) for s, lo, hi in runs]
            for s, future in futures:
                counts[s].update(future.result())
    return [
        DiscrepancyDistribution.from_counts(c, len(spec.sampler.names))
        for c, spec in zip(counts, specs)
    ]


class ComparisonSummary(namedtuple(
    "ComparisonSummary", "mean_delta median_delta dominance_holds cdf_deltas"
)):
    """Formalized side-by-side of two discrepancy distributions; `a` is
    expected to be the better (smaller-L1) one: mean(b) - mean(a), the same
    of the medians, whether CDF_a(v) >= CDF_b(v) at every L1 value, and
    each L1 value's CDF_a(v) - CDF_b(v)."""

    __slots__ = ()


def compare_campaigns(
    a: DiscrepancyDistribution, b: DiscrepancyDistribution
) -> ComparisonSummary:
    a, b = _distribution(a, "a"), _distribution(b, "b")
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
