"""Command-line interface: ``frw-rr`` / ``python -m repro``.

Subcommands
-----------
``extract``
    Extract a test case (or nothing fancier — library use covers custom
    geometry) and print/save the capacitance matrix.
``experiment``
    Run one of the paper-reproduction experiment harnesses.
``info``
    Show the case registry and version.
``serve``
    Start the long-lived memoized extraction service (HTTP/JSON).
``lint``
    Run det-lint v2 (determinism & cache-soundness static analysis);
    forwards to ``python -m repro.lint``.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .analysis.tables import format_table
from .config import FRWConfig, VARIANTS
from .frw import extract
from .reliability import check_properties
from .structures import CASES, build_case, case_masters


def _add_extract_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("extract", help="extract a built-in test case")
    p.add_argument("--case", type=int, default=1, choices=sorted(CASES))
    p.add_argument("--profile", default="fast", choices=["fast", "paper"])
    p.add_argument("--variant", default="frw-rr", choices=list(VARIANTS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=10_000)
    p.add_argument("--max-masters", type=int, default=None)
    p.add_argument("--output", default=None, help="write the matrix as JSON")


def _add_experiment_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("experiment", help="run a paper-reproduction experiment")
    p.add_argument(
        "name",
        choices=["table1", "table2", "fig5", "table3", "fig2", "all"],
    )
    p.add_argument("--case", type=int, default=1, choices=sorted(CASES))
    p.add_argument("--profile", default="fast", choices=["fast", "paper"])


def _positive(kind: str):
    def parse(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"{kind} must be >= 1, got {value}")
        return value

    return parse


def _add_serve_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve", help="start the memoized extraction service (HTTP/JSON)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8231,
        help="TCP port (0 binds an ephemeral port; see --port-file)",
    )
    p.add_argument(
        "--port-file",
        default=None,
        help="write the bound port here once listening (for --port 0)",
    )
    p.add_argument(
        "--slots",
        type=_positive("--slots"),
        default=1,
        help="concurrent extraction slots (each owns one executor)",
    )
    p.add_argument(
        "--workers",
        type=_positive("--workers"),
        default=1,
        help="workers per slot executor: 1 runs in-process, more start "
        "that many worker threads",
    )
    p.add_argument(
        "--result-cache",
        type=_positive("--result-cache"),
        default=1024,
        help="max memoized result rows",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="frw-rr",
        description="FRW-RR: reproducible and reliable FRW capacitance extraction",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_extract_parser(sub)
    _add_experiment_parser(sub)
    sub.add_parser("info", help="list the built-in test cases")
    _add_serve_parser(sub)
    lint = sub.add_parser(
        "lint",
        help="run det-lint v2 static analysis (same as python -m repro.lint)",
    )
    lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to the det-lint CLI (see "
        "python -m repro.lint --help)",
    )
    return parser


def cmd_extract(args: argparse.Namespace) -> int:
    structure = build_case(args.case, args.profile)
    masters = case_masters(structure)
    if args.max_masters is not None:
        masters = masters[: args.max_masters]
    tolerance = (
        args.tolerance if args.tolerance is not None else CASES[args.case].tolerance
    )
    config = FRWConfig.for_variant(
        args.variant,
        seed=args.seed,
        n_threads=args.threads,
        tolerance=tolerance,
        batch_size=args.batch_size,
    )
    print(structure.summary())
    print(f"extracting {len(masters)} master(s) with {args.variant} ...")
    result = extract(structure, config, masters)
    print(result.matrix.pretty())
    print(
        f"walks={result.total_walks} wall={result.wall_time:.2f}s "
        f"t_post={result.regularization_time * 1e3:.1f}ms "
        f"converged={result.converged}"
    )
    print(f"properties: {check_properties(result.matrix)}")
    if args.output:
        result.matrix.save(args.output)
        print(f"matrix written to {args.output}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import EXPERIMENTS

    names = list(EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        module = EXPERIMENTS[name]
        if name in ("table2", "fig5"):
            module.main(case=args.case, profile=args.profile)
        elif name == "fig2":
            module.main(case=args.case)
        else:
            module.main(profile=args.profile)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .errors import ConfigError
    from .service import ServiceSettings, run_server

    settings = ServiceSettings(
        host=args.host,
        port=args.port,
        slots=args.slots,
        n_workers=args.workers,
        result_cache_entries=args.result_cache,
        port_file=args.port_file,
    )
    try:
        settings.validate()
    except ConfigError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2

    def ready(port: int) -> None:
        print(f"repro.service listening on http://{settings.host}:{port}")
        print("POST /extract | GET /stats | GET /health | POST /shutdown")

    run_server(settings, ready=ready)
    print("repro.service stopped")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import main as lint_main

    return lint_main(args.lint_args)


def cmd_info(_args: argparse.Namespace) -> int:
    rows = [
        [n, s.paper_nm, s.paper_n, s.paper_nc, s.tolerance, s.description]
        for n, s in sorted(CASES.items())
    ]
    print(
        format_table(
            ["Case", "Nm", "N", "Nc", "tol", "Description"],
            rows,
            title=f"FRW-RR {__version__} — built-in test cases (paper profile)",
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    # argparse.REMAINDER refuses leading option flags ("lint --format=json ..."),
    # so forward everything after the subcommand token ourselves.
    if argv and argv[0] == "lint":
        from .lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    handlers = {
        "extract": cmd_extract,
        "experiment": cmd_experiment,
        "info": cmd_info,
        "serve": cmd_serve,
        "lint": cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
