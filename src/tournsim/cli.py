"""Command-line front end.

Commands: rank, simulate, campaign, compare, reproduce. Every command is
deterministic given its flags; simulate and campaign, the commands that
draw games, take --seed. The files rank, simulate and campaign write open
with `# key=value` header lines, built in one place from the parsed flags:
the command, every flag that has a value (--seed too, but not --out or
--workers, which change no byte written), the fields the command computed
and the version. Exit status: 0 success, 1 usage error, 2 data error, 3
golden-check failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

# `fixtures`, the bundled data and its golden checks, is imported by the
# two commands that use it, rank and reproduce, so that the other
# commands' interpreters do not load it.
from . import __version__
from .errors import InvalidInputError, TournsimError
from .formats import RANDOM_SEEDING, DecisivePolicy, FormatSpec, run_format
from .model import PoissonSampler, derive_rng, load_model
from .montecarlo import (
    STREAM_LAYOUT,
    CampaignSpec,
    DiscrepancyDistribution,
    compare_campaigns,
    run_campaign,  # noqa: F401  (perfbench's traced rounds wrap cli.run_campaign)
    run_campaigns,
)
from .scoring import CONTINUOUS, DISCRETE, Ranking, standings_to_csv

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


# Namespace entries no header records: the command's handler, and the
# flags that change no byte a command writes.
_UNRECORDED = ("func", "out", "workers")


def _header(args, **computed) -> dict:
    """The header fields of a command's output: the command, every parsed
    flag that has a value, in parser order (the order of `vars(args)`),
    the fields the command computed, and the version. A computed field
    named like a flag replaces that flag's value in place."""
    fields = {k: v for k, v in vars(args).items() if v is not None and k not in _UNRECORDED}
    fields.update(computed, version=__version__)
    return fields


def _comments(fields: dict) -> str:
    return "".join(f"# {k}={v}\n" for k, v in fields.items())


def _emit(text: str, out_path):
    if out_path:
        _write(out_path, text)
    else:
        sys.stdout.write(text)


@contextlib.contextmanager
def _naming(path: str):
    """Name `path` in any data error raised inside the block: a file that
    cannot be opened, read or written, text that is not UTF-8, or a
    `TournsimError` about what the file holds."""
    try:
        yield
    except OSError as exc:
        raise TournsimError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise TournsimError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except TournsimError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _read(path: str, parse):
    """`parse` of the text of an input file, without the byte-order mark a
    spreadsheet may write; a data error in either names the file."""
    with _naming(path), open(path, "r", encoding="utf-8-sig") as fh:
        return parse(fh.read())


def _write(path: str, text: str) -> None:
    with _naming(path), open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _suffixed(path: str, suffix: str) -> str:
    """`path` with `suffix` before its extension."""
    root, ext = os.path.splitext(path)
    return f"{root}{suffix}{ext}"


def cmd_rank(args) -> int:
    from . import fixtures

    model = _read(args.model, load_model)
    if args.scheme == DISCRETE:
        table, ranking = fixtures.discrete_fixture_standings(model)
    else:
        def standings(text):
            return fixtures.continuous_fixture_standings(model, load_model(text))

        table, ranking = _read(args.points or _suffixed(args.model, ".points"), standings)
    _emit(_comments(_header(args)) + standings_to_csv(table, ranking), args.out)
    return 0


def _seeding(args, truth=None):
    if args.seeding == "random":
        return RANDOM_SEEDING
    if args.seeding == "truth":
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
    model = _read(args.model, load_model)
    spec = _format_spec(args)
    sampler = PoissonSampler(model)
    outcome = run_format(spec, sampler, derive_rng(args.seed, 0))
    lines = [
        _comments(_header(args, sampling=sampler.backend, games_total=outcome.games_total)),
        "stage,home,away,home_goals,away_goals,winner\n",
    ]
    for e in outcome.games:
        r = e.result
        lines.append(
            f"{e.stage},{r.home},{r.away},"
            f"{r.home_goals},{r.away_goals},{e.winner or ''}\n"
        )
    lines.append("team,rank\n")
    for name in outcome.ranking.order():
        lines.append(f"{name},{outcome.ranking[name]}\n")
    _emit("".join(lines), args.out)
    return 0


def _truth_ranking(args, sampler) -> Ranking:
    if args.truth == "oracle":
        spec = FormatSpec(kind="iterated_round_robin", games_per_pair=1000)
        rng = derive_rng(args.seed, TRUTH_STREAM_KEY)
        return run_format(spec, sampler, rng, keep_games=False).ranking

    def ranking(text):
        names = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        truth = Ranking.from_order(names)
        if set(names) != set(sampler.names):
            raise InvalidInputError("truth ranking does not cover the model's teams")
        return truth

    return _read(args.truth, ranking)


def cmd_campaign(args) -> int:
    model = _read(args.model, load_model)
    sampler = PoissonSampler(model)
    truth = _truth_ranking(args, sampler)
    specs = [
        CampaignSpec(
            format=_format_spec(args, fmt, truth),
            sampler=sampler,
            truth=truth,
            n_tournaments=args.n,
            master_seed=args.seed,
        )
        for fmt in args.format
    ]
    dists = run_campaigns(specs, workers=args.workers)
    for fmt, dist in zip(args.format, dists):
        print(
            f"{fmt}: mean={dist.mean:.4f} median={dist.median:.1f} "
            f"n={dist.n_samples} seed={args.seed}"
        )
        if args.out:
            path = args.out if len(args.format) == 1 else _suffixed(args.out, f"-{fmt}")
            header = _header(args, format=fmt, sampling=sampler.backend, stream=STREAM_LAYOUT)
            _write(path, dist.to_text(header))
    return 0


def cmd_compare(args) -> int:
    dists = [_read(path, DiscrepancyDistribution.from_text) for path in (args.a, args.b)]
    summary = compare_campaigns(dists[0], dists[1])
    print(f"mean_delta={summary.mean_delta:.4f}")
    print(f"median_delta={summary.median_delta:.1f}")
    print(f"dominance_holds={summary.dominance_holds}")
    for v in sorted(summary.cdf_deltas):
        print(f"cdf_delta[{v}]={summary.cdf_deltas[v]:+.4f}")
    return 0


def cmd_reproduce(args) -> int:
    from . import fixtures

    checks = fixtures.golden_checks()
    failures = 0
    for check in checks:
        ok = check.run()
        print(f"{'PASS' if ok else 'FAIL'} {check.name}")
        failures += 0 if ok else 1
    print(f"{failures} failed of {len(checks)} checks")
    return 3 if failures else 0


def build_parser() -> _Parser:
    p = _Parser(prog="tournsim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        sp.add_argument("--model", required=True, help="pairwise goal-means CSV")
        if seed:
            sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--out", default=None, help="write output to this path")

    sp = sub.add_parser("rank", help="standings + ranking from a model table")
    common(sp, seed=False)
    sp.add_argument("--scheme", choices=[CONTINUOUS, DISCRETE], default=DISCRETE)
    sp.add_argument(
        "--points",
        default=None,
        help="per-pair mean-points CSV (continuous scheme; "
        "defaults to <model>.points.csv)",
    )
    sp.set_defaults(func=cmd_rank)

    def format_flags(sp, default_replays, seedings, default_seeding):
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
            choices=seedings,
            default=default_seeding,
            help="bracket/group seeding: model order, truth-ranking order "
            "(campaign only), or a fresh random permutation per tournament",
        )

    sp = sub.add_parser("simulate", help="run one tournament, print its ledger")
    common(sp)
    sp.add_argument("--format", choices=list(FORMAT_ALIASES), required=True)
    format_flags(sp, default_replays=1, seedings=["model", "random"], default_seeding="model")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("campaign", help="Monte Carlo discrepancy campaign")
    common(sp)
    sp.add_argument(
        "--format",
        choices=list(FORMAT_ALIASES),
        nargs="+",
        action="extend",
        required=True,
        help="formats to campaign; repeat the flag or list several after it",
    )
    # Defaults reproduce the published across-format ordering: random
    # per-tournament seeding, drawn knockout games decided by a coin.
    format_flags(sp, default_replays=0, seedings=["model", "truth", "random"],
                 default_seeding="random")
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
        default=1,
        help="at most this many worker processes (default 1); a small campaign "
        "runs in one process",
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
        if args.command == "rank" and args.scheme == DISCRETE and args.points:
            parser.error("argument --points: not allowed with --scheme discrete")
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
