"""Recompute the reference L1 means that checks.REFERENCE records.

    PYTHONPATH=src python3 perfbench/reference.py

Prints one `REFERENCE[...] = (mean, sd)` line per entry; paste them into
checks.py when a deliberate change of the simulated distributions makes
the recorded means wrong.
"""

from __future__ import annotations

import os

from tournsim import fixtures
from tournsim.model import PoissonSampler
from tournsim.montecarlo import CampaignSpec, run_campaign
from tournsim.scoring import Ranking

import checks
from workloads import campaign_format

# (model year, name of the truth order in checks, variant labels)
ENTRIES = (
    (2013, "TRUTH_2013", ("proposed", "proposed-bo3")),
    (2012, "TRUTH_2012", ("proposed", "f2012", "f2013")),
    (2012, "TRUTH_2012_SWAP", ("proposed", "f2012", "f2013")),
)


def main() -> None:
    for year, truth, labels in ENTRIES:
        sampler = PoissonSampler(fixtures.load_goal_model(year))
        ranking = Ranking.from_order(getattr(checks, truth).split(","))
        for label in labels:
            spec = CampaignSpec(
                campaign_format(label), sampler, ranking,
                checks.REFERENCE_N, checks.REFERENCE_SEED,
            )
            dist = run_campaign(spec, workers=os.cpu_count() or 1)
            _, mean, sd = checks.mean_sd(dist.counts)
            print(f'REFERENCE[({truth}, "{label}")] = ({mean:.5f}, {sd:.5f})', flush=True)


if __name__ == "__main__":
    main()
