"""Command-line front end.

Commands: rank, simulate, campaign, compare, reproduce. Every command is
deterministic given its flags and --seed; the seed is echoed in all
outputs. Exit status: 0 success, 1 usage error, 2 data error, 3
golden-check failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, fixtures
from .errors import TournsimError
from .formats import RANDOM_SEEDING, DecisivePolicy, FormatSpec, run_format
from .model import PoissonSampler, derive_rng, load_model
from .montecarlo import (
    STREAM_LAYOUT,
    CampaignSpec,
    DiscrepancyDistribution,
    compare_campaigns,
    run_campaign,
)
from .scoring import (
    CONTINUOUS,
    DISCRETE,
    Ranking,
    continuous_standings,
    discrete_standings,
    rank,
    standings_to_csv,
)

DEFAULT_SEED = 20122013
TRUTH_STREAM_KEY = 0x74727574  # substream tag for the oracle truth run

FORMAT_ALIASES = {
    "oracle": "iterated_round_robin",
    "f2012": "format_2012",
    "f2013": "format_2013_double_elim",
    "proposed": "proposed",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _header(command: str, **fields) -> str:
    parts = [f"# command={command}"]
    parts += [f"# {k}={v}" for k, v in fields.items()]
    parts.append(f"# version={__version__}")
    return "\n".join(parts) + "\n"


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str):
    try:
        return load_model(path)
    except OSError as exc:
        raise TournsimError(f"{path}: {exc.strerror}") from exc
    except TournsimError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _points_path(model_path: str) -> str:
    root, ext = os.path.splitext(model_path)
    return f"{root}.points{ext}"


def cmd_rank(args) -> int:
    model = _load(args.model)
    avgs = fixtures.pair_averages(model)
    if args.scheme == DISCRETE:
        table = discrete_standings(avgs, model.names)
    else:
        points_path = args.points or _points_path(args.model)
        points = _load(points_path)
        if points.names != model.names:
            raise TournsimError(
                f"{points_path}: team order differs from {args.model}"
            )
        table = continuous_standings(
            avgs, fixtures.point_mean_map(points), model.names
        )
    ranking = rank(table, seed_order=list(model.names))
    text = _header(
        "rank", model=args.model, scheme=args.scheme, seed=args.seed
    ) + standings_to_csv(table, ranking)
    _emit(text, args.out)
    return 0


def _seeding(args, truth=None):
    if args.seeding == "random":
        return RANDOM_SEEDING
    if args.seeding == "truth":
        if truth is None:
            raise TournsimError("--seeding truth requires a truth ranking")
        return tuple(truth.order())
    return None  # model order


def _format_spec(args, fmt=None, truth=None) -> FormatSpec:
    return FormatSpec(
        kind=FORMAT_ALIASES[fmt or args.format],
        games_per_pair=args.games_per_pair,
        scheme=args.scheme,
        best_of_three=args.best_of_three,
        decisive=DecisivePolicy(max_replays=args.max_replays),
        seeding=_seeding(args, truth),
    )


def cmd_simulate(args) -> int:
    model = _load(args.model)
    spec = _format_spec(args)
    sampler = PoissonSampler(model)
    outcome = run_format(spec, sampler, derive_rng(args.seed, 0))
    lines = [
        _header(
            "simulate",
            model=args.model,
            format=args.format,
            seed=args.seed,
            sampling=sampler.backend,
            games_total=outcome.games_total,
        ),
        "stage,home,away,home_goals,away_goals,winner\n",
    ]
    for e in outcome.games:
        r = e.result
        lines.append(
            f"{e.stage},{r.home.name},{r.away.name},"
            f"{r.home_goals},{r.away_goals},{e.winner or ''}\n"
        )
    lines.append("team,rank\n")
    for name in outcome.ranking.order():
        lines.append(f"{name},{outcome.ranking[name]}\n")
    _emit("".join(lines), args.out)
    return 0


def _truth_ranking(args, model) -> Ranking:
    if args.truth == "oracle":
        spec = FormatSpec(kind="iterated_round_robin", games_per_pair=1000)
        outcome = run_format(
            spec,
            PoissonSampler(model),
            derive_rng(args.seed, TRUTH_STREAM_KEY),
            keep_games=False,
        )
        return outcome.ranking
    with open(args.truth, "r", encoding="utf-8") as fh:
        names = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    return Ranking.from_order(names)


def cmd_campaign(args) -> int:
    model = _load(args.model)
    sampler = PoissonSampler(model)
    truth = _truth_ranking(args, model)
    for fmt in args.format:
        spec = CampaignSpec(
            format=_format_spec(args, fmt, truth),
            sampler=sampler,
            truth=truth,
            n_tournaments=args.n,
            master_seed=args.seed,
        )
        dist = run_campaign(spec, workers=args.workers)
        header = {
            "command": "campaign",
            "model": args.model,
            "format": fmt,
            "seed": str(args.seed),
            "n": str(args.n),
            "sampling": sampler.backend,
            "truth": args.truth,
            "stream": STREAM_LAYOUT,
            "version": __version__,
        }
        print(
            f"{fmt}: mean={dist.mean:.4f} median={dist.median:.1f} "
            f"n={dist.n_samples} seed={args.seed}"
        )
        if args.out:
            path = (
                args.out
                if len(args.format) == 1
                else _suffixed(args.out, fmt)
            )
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dist.to_text(header))
    return 0


def _suffixed(path: str, fmt: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}-{fmt}{ext}"


def cmd_compare(args) -> int:
    dists = []
    for path in (args.a, args.b):
        with open(path, "r", encoding="utf-8") as fh:
            dists.append(DiscrepancyDistribution.from_text(fh.read()))
    summary = compare_campaigns(dists[0], dists[1])
    print(f"mean_delta={summary.mean_delta:.4f}")
    print(f"median_delta={summary.median_delta:.1f}")
    print(f"dominance_holds={summary.dominance_holds}")
    for v in sorted(summary.cdf_deltas):
        print(f"cdf_delta[{v}]={summary.cdf_deltas[v]:+.4f}")
    return 0


def cmd_reproduce(args) -> int:
    failures = 0
    for check in fixtures.golden_checks():
        ok = check.run()
        print(f"{'PASS' if ok else 'FAIL'} {check.name}")
        failures += 0 if ok else 1
    print(f"{failures} failed of {len(fixtures.golden_checks())} checks")
    return 3 if failures else 0


def build_parser() -> _Parser:
    p = _Parser(prog="tournsim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, model=True):
        if model:
            sp.add_argument("--model", required=True, help="pairwise goal-means CSV")
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--out", default=None, help="write output to this path")

    sp = sub.add_parser("rank", help="standings + ranking from a model table")
    common(sp)
    sp.add_argument("--scheme", choices=[CONTINUOUS, DISCRETE], default=DISCRETE)
    sp.add_argument(
        "--points",
        default=None,
        help="per-pair mean-points CSV (continuous scheme; "
        "defaults to <model>.points.csv)",
    )
    sp.set_defaults(func=cmd_rank)

    def format_flags(sp, default_replays, default_seeding):
        sp.add_argument("--games-per-pair", type=int, default=1000)
        sp.add_argument("--best-of-three", action="store_true")
        sp.add_argument("--scheme", choices=[CONTINUOUS, DISCRETE], default=CONTINUOUS)
        sp.add_argument(
            "--max-replays",
            type=int,
            default=default_replays,
            help="resampled replays before a drawn knockout game goes to a coin",
        )
        sp.add_argument(
            "--seeding",
            choices=["model", "truth", "random"],
            default=default_seeding,
            help="bracket/group seeding: model order, truth-ranking order, "
            "or a fresh random permutation per tournament",
        )

    sp = sub.add_parser("simulate", help="run one tournament, print its ledger")
    common(sp)
    sp.add_argument("--format", choices=list(FORMAT_ALIASES), required=True)
    format_flags(sp, default_replays=1, default_seeding="model")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("campaign", help="Monte Carlo discrepancy campaign")
    common(sp)
    sp.add_argument(
        "--format",
        choices=list(FORMAT_ALIASES),
        nargs="+",
        required=True,
    )
    # Defaults reproduce the published across-format ordering: random
    # per-tournament seeding, drawn knockout games decided by a coin.
    format_flags(sp, default_replays=0, default_seeding="random")
    sp.add_argument("--n", type=int, default=10000, help="tournaments per format")
    sp.add_argument(
        "--truth",
        default="oracle",
        help="'oracle' (1000 games/pair round-robin) or a ranking file "
        "(one team per line, best first)",
    )
    sp.add_argument(
        "--workers",
        type=int,
        default=None,
        help=f"worker processes (default ${'{'}TOURNSIM_WORKERS{'}'} or 1)",
    )
    sp.set_defaults(func=cmd_campaign)

    sp = sub.add_parser("compare", help="compare two campaign histogram files")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser(
        "reproduce", help="pass/fail report over the bundled golden checks"
    )
    sp.set_defaults(func=cmd_reproduce)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TournsimError as exc:
        notes = "".join(f" ({note})" for note in getattr(exc, "__notes__", ()))
        print(f"tournsim: error: {exc}{notes}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
