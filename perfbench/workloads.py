"""The in-process workloads: inputs built from a seed, one measured round,
and the checks on each round's outputs.

A round calls the package only through a `tracing.Calls` object, so the
traced run can time each call without the workload knowing.
"""

from __future__ import annotations

import contextlib
import io
import os
from collections import Counter

from tournsim import fixtures
from tournsim.formats import RANDOM_SEEDING, DecisivePolicy, FormatSpec
from tournsim.model import PoissonSampler
from tournsim.montecarlo import CampaignSpec

import checks
import shell

# Defaults of `tournsim campaign`: a fresh random seeding per tournament and
# drawn knockout games decided by a coin, with no replays.
CAMPAIGN_DECISIVE = DecisivePolicy(max_replays=0)

# Campaign variants by label: (format kind, best of three).
VARIANTS = {
    "proposed": ("proposed", False),
    "proposed-bo3": ("proposed", True),
    "f2012": ("format_2012", False),
    "f2013": ("format_2013_double_elim", False),
}

# Model year and variant labels of each campaign workload.
CAMPAIGNS = {
    "rr-playoff": (2013, ("proposed", "proposed-bo3")),
    "knockout": (2012, ("f2012", "f2013")),
}
CAMPAIGN_N = {"rr-playoff": 500, "knockout": 1000}  # tournaments per variant per round

ORACLE_GAMES_PER_PAIR = 10
LEDGER_ROUND = 50  # tournaments per case per ledger-replay round


def campaign_format(label: str) -> FormatSpec:
    kind, best_of_three = VARIANTS[label]
    return FormatSpec(
        kind,
        best_of_three=best_of_three,
        decisive=CAMPAIGN_DECISIVE,
        seeding=RANDOM_SEEDING,
    )


def truth_key(ranking) -> str:
    return ",".join(ranking.order())


class Workload(checks.Tally):
    """Counts operations and failures; subclasses define `round`."""

    def finish(self) -> None:
        """Checks on the outputs of the whole run."""


class Campaigns(Workload):
    """`run_campaign` with one worker over each variant in turn; round k
    covers tournaments [k*n, (k+1)*n) of each variant's stream."""

    def __init__(self, name: str, seed: int):
        super().__init__()
        year, labels = CAMPAIGNS[name]
        self.sampler = PoissonSampler(fixtures.load_goal_model(year))
        self.truth = fixtures.published_truth(year)
        self.formats = {label: campaign_format(label) for label in labels}
        self.seed = seed
        self.n = CAMPAIGN_N[name]
        self.counts = {label: Counter() for label in labels}

    def round(self, k: int, calls) -> int:
        sampler = calls.sampler(self.sampler)
        done = 0
        for label, fmt in self.formats.items():
            spec = CampaignSpec(
                fmt, sampler, self.truth, self.n, self.seed, start_index=k * self.n
            )
            self.attempted += self.n
            try:
                dist = calls.run_campaign(spec, workers=1)
            except Exception as exc:  # a failed campaign is counted, not fatal
                self.fail(f"{label} round {k}: {exc!r}", self.n)
                continue
            done += self.n
            self.check(checks.histogram_problem(label, dist.counts, self.n))
            self.counts[label].update(dist.counts)
        return done

    def finish(self) -> None:
        truth = truth_key(self.truth)
        means = {}
        for label, counts in self.counts.items():
            self.check(checks.mean_problem(truth, label, counts))
            means[label] = checks.mean_sd(counts)[1]
        self.check(checks.order_problem(means))


class LedgerReplay(Workload):
    """`run_format(..., keep_games=True)` and then `replay_outcome` for each
    case, with the truth order as explicit seeding and the default decisive
    policy (one replay of a drawn knockout game, then a coin)."""

    def __init__(self, seed: int):
        super().__init__()
        model = fixtures.load_goal_model(2012)
        self.names = list(model.names)
        self.sampler = PoissonSampler(model)
        self.truth = fixtures.published_truth(2012)
        seeding = tuple(self.truth.order())
        g = ORACLE_GAMES_PER_PAIR
        # label -> (spec, fewest and most games the ledger may hold)
        self.cases = {
            "oracle": (FormatSpec("iterated_round_robin", games_per_pair=g), 28 * g, 28 * g),
            "f2012": (FormatSpec("format_2012", seeding=seeding), 20, 20),
            "f2013": (FormatSpec("format_2013_double_elim", seeding=seeding), 16, 16),
            # 28 league games, then four series of two or three games.
            "proposed-bo3": (
                FormatSpec("proposed", best_of_three=True, seeding=seeding), 36, 40
            ),
        }
        self.seed = seed

    def round(self, k: int, calls) -> int:
        sampler = calls.sampler(self.sampler)
        done = 0
        for j in range(LEDGER_ROUND):
            for c, (label, (spec, lo, hi)) in enumerate(self.cases.items()):
                self.attempted += 1
                try:
                    rng = calls.derive_rng(self.seed, k, j, c)
                    live = calls.run_format(spec, sampler, rng, keep_games=True)
                    replayed = calls.replay_outcome(spec, self.names, live)
                    distance = calls.l1_distance(replayed, live.ranking)
                except Exception as exc:  # a failed tournament is counted, not fatal
                    self.fail(f"{label} round {k}.{j}: {exc!r}")
                    continue
                done += 1
                if replayed.places != live.ranking.places or distance != 0:
                    self.fail(f"{label} round {k}.{j}: replay differs from the live run")
                elif not (lo <= live.games_total == len(live.games) <= hi):
                    self.fail(
                        f"{label} round {k}.{j}: {live.games_total} games, "
                        f"{len(live.games)} ledger entries, expected {lo}..{hi}"
                    )
        return done


class CliPaperInProcess(Workload):
    """The `tournsim campaign` command of the cli-paper workload, called
    in this interpreter through `tournsim.cli.main` with one worker, so
    that the traced run sees every call. run.py runs the shell workload."""

    def __init__(self, seed: int, out_dir: str):
        super().__init__()
        from tournsim import cli  # not part of the other workloads' set-up

        self.cli = cli
        self.seed = seed
        self.out = os.path.join(out_dir, "hist.csv")

    def round(self, k: int, calls) -> int:
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(shell.campaign_argv(self.seed, self.out, workers=1))
        if code != 0:
            self.fail(f"campaign round {k} exited {code}")
            return 0
        for fmt, path in shell.histogram_paths(self.out).items():
            with open(path, encoding="utf-8") as fh:
                self.check(shell.histogram_file_problem(fmt, fh.read()))
        return shell.N * len(shell.FORMATS)


def build(name: str, seed: int, out_dir: str = ".") -> Workload:
    if name in CAMPAIGNS:
        return Campaigns(name, seed)
    if name == "ledger-replay":
        return LedgerReplay(seed)
    if name == "cli-paper":
        return CliPaperInProcess(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")
