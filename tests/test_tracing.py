"""The benchmark's traced run (`perfbench/tracing.py`) patches names the
package looks up at call time and wraps a sampler's methods; a rename of
any of them must fail here, on every interpreter the tests run on."""

import sys
from pathlib import Path

from tournsim import FormatSpec, PoissonSampler, derive_rng, fixtures, run_format

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.tracing import TimedSampler, Tracer  # noqa: E402


def test_tracer_installs_and_times_a_run():
    tracer = Tracer()
    with tracer.installed():
        sampler = TimedSampler(PoissonSampler(fixtures.load_goal_model(2012)), tracer)
        outcome = run_format(FormatSpec("proposed"), sampler, derive_rng(1))
    assert tracer.calls("scoring.standings") == tracer.calls("scoring.rank") == 1
    assert tracer.calls("model.sample") >= outcome.games_total == 32
