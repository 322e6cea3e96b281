"""Per-layer timing from outside the package.

The traced run times each layer at its public entry points. It wraps the
calls a workload makes directly (`Calls`), the sampler it passes in
(`TimedSampler`), and the names `tournsim.formats`, `tournsim.montecarlo`
and `tournsim.cli` look up at call time. Nothing inside the package
changes, and untraced rounds run with no wrapper installed.

Spans are not stored one by one: each span name keeps its total time, the
part of that time its child spans cover, its call count and a work count,
which is all the per-layer metrics need. A span's parent is the innermost
span open when it starts.
"""

from __future__ import annotations

import contextlib
import time

from tournsim import cli, formats, model, montecarlo, scoring
from tournsim.montecarlo import DiscrepancyDistribution


def _games(args, outcome) -> int:
    return outcome.games_total


# (module, attribute looked up at call time, span name, work count)
PATCHES = (
    (formats, "rank", "scoring.rank", None),
    (formats, "standings_from_games", "scoring.standings", None),
    (montecarlo, "run_format", "formats.run_format", _games),
    (montecarlo, "derive_rng", "model.derive_rng", None),
    (montecarlo, "l1_distance", "scoring.l1", None),
    # The CLI's own calls: the oracle truth run and the campaign loop.
    (cli, "run_format", "formats.oracle_truth", None),
    (cli, "run_campaign", "montecarlo.run_campaign", None),
)


class Calls:
    """The package entry points a workload round calls directly. The
    untraced instance hands out the package's own functions."""

    def __init__(self, tracer=None):
        t = tracer.wrap if tracer else (lambda name, fn, count=None: fn)
        self.run_campaign = t("montecarlo.run_campaign", montecarlo.run_campaign)
        self.run_format = t("formats.run_format", formats.run_format, _games)
        self.replay_outcome = t("formats.replay", formats.replay_outcome)
        self.derive_rng = t("model.derive_rng", model.derive_rng)
        self.l1_distance = t("scoring.l1", scoring.l1_distance)
        self.sampler = (lambda s: TimedSampler(s, tracer)) if tracer else (lambda s: s)


class Tracer:
    def __init__(self):
        # span name -> [seconds, seconds covered by child spans, calls, work units]
        self.spans: dict[str, list] = {}
        self._open: list[float] = []  # child seconds of each open span

    def wrap(self, name: str, fn, count=None):
        """`fn` timed as span `name`; `count(args, result)` adds work units."""
        slot = self.spans.setdefault(name, [0.0, 0.0, 0, 0])
        stack = self._open
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                slot[1] += stack.pop()
                slot[0] += elapsed
                slot[2] += 1
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                slot[3] += count(args, result)
            return result

        return timed

    def seconds(self, name: str) -> float:
        return self.spans.get(name, (0.0,))[0]

    def self_seconds(self, name: str) -> float:
        s = self.spans.get(name, (0.0, 0.0))
        return s[0] - s[1]

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0, 0))[2]

    def units(self, name: str) -> int:
        return self.spans.get(name, (0, 0, 0, 0))[3]

    @contextlib.contextmanager
    def installed(self):
        """Route the package's internal lookups through the wrappers."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in PATCHES]
        saved.append((cli, "PoissonSampler", cli.PoissonSampler))
        from_counts = DiscrepancyDistribution.__dict__["from_counts"]
        try:
            for (mod, attr, fn), (_, _, name, count) in zip(saved, PATCHES):
                setattr(mod, attr, self.wrap(name, fn, count))
            plain = cli.PoissonSampler
            cli.PoissonSampler = lambda m: TimedSampler(plain(m), self)
            DiscrepancyDistribution.from_counts = classmethod(
                self.wrap("montecarlo.from_counts", from_counts.__func__)
            )
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            DiscrepancyDistribution.from_counts = from_counts


class TimedSampler:
    """Duck-typed stand-in for a sampler that times its draws."""

    def __init__(self, inner, tracer: Tracer):
        self.names = inner.names
        self.backend = inner.backend
        self.sample = tracer.wrap("model.sample", inner.sample)
        self.sample_many = tracer.wrap(
            "model.sample_many", inner.sample_many, lambda args, _: args[2]
        )
