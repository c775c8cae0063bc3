"""Command line front end.

Four subcommands: analyze one system file, verify a dimension grid by
Monte Carlo sweep, run the structured fixture suite, or print the
qualitative zero-structure table for one dimension tuple. Exit code 0
means every comparison agreed, 1 means the run finished with recorded
disagreements, 2 means the invocation or its inputs were unusable.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from ._version import __version__
from .errors import MultirateError
from .harness import analyze, emit_report, grid_spec_from_dict, run_fixture_suite, run_grid
from .model import Dimensions, TolerancePolicy, load_system, policy_from_dict
from .oracle import summary_table


def _load_policy(path: str | None) -> TolerancePolicy:
    if path is None:
        return TolerancePolicy()
    try:
        return policy_from_dict(json.loads(Path(path).read_text()))
    except ValueError as exc:
        raise ValueError(f"policy file {path}: {exc}") from exc


def _tau_arg(text: str):
    if text == "all":
        return "all"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tau must be an integer or 'all', got {text!r}")


def _dims_arg(text: str) -> Dimensions:
    parts = text.split(",")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(
            f"dims must be five comma-separated ints n,m,p1,p2,N, got {text!r}")
    try:
        n, m, p1, p2, N = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must be integers, got {text!r}")
    try:
        return Dimensions(n=n, m=m, p1=p1, p2=p2, N=N)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _cmd_analyze(args: argparse.Namespace) -> int:
    payload = analyze(load_system(args.system), args.tau, _load_policy(args.policy))
    _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if payload["all_agree"] else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    data = json.loads(Path(args.grid).read_text())
    spec = grid_spec_from_dict(data)
    if args.seeds is not None:
        if args.seeds < 1:
            raise ValueError("--seeds must be >= 1")
        spec = replace(spec, trials_per_cell=args.seeds)
    report = run_grid(spec)
    fmt = "csv" if args.out.endswith(".csv") else "json"
    emit_report(report, fmt, args.out)
    return 0 if report.all_agree else 1


def _cmd_fixtures(args: argparse.Namespace) -> int:
    report = run_fixture_suite(TolerancePolicy())
    emit_report(report, "json", args.out)
    return 0 if report.all_agree else 1


def _cmd_table(args: argparse.Namespace) -> int:
    dims = args.dims
    rows = [summary_table(dims, tau) for tau in range(1, dims.N + 1)]
    header = (f"zero structure for n={dims.n} m={dims.m} p1={dims.p1} "
              f"p2={dims.p2} N={dims.N} ({rows[0].system_class.value})\n"
              f"normal rank {rows[0].normal_rank} "
              f"(full column rank would be {dims.n + dims.N * dims.m})\n\n")
    cols = ("tau", "rank_D", "finite_nonzero", "at_origin", "at_infinity")
    widths = [5, 8, 16, 12, 13]
    lines = ["".join(c.rjust(w) for c, w in zip(cols, widths))]
    for row in rows:
        cells = (str(row.tau), str(row.rank_D), row.finite_nonzero,
                 row.at_zero, row.at_infinity)
        lines.append("".join(c.rjust(w) for c, w in zip(cells, widths)))
    _write(args.out, header + "\n".join(lines) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multirate-zeros",
        description="Blocked multirate systems: numeric zero structure vs "
                    "closed-form generic predictions.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one system file at one or all delays")
    p.add_argument("--system", required=True, help="system JSON file")
    p.add_argument("--tau", type=_tau_arg, default="all",
                   help="blocking delay, an integer or 'all' (default)")
    p.add_argument("--policy", help="tolerance policy JSON file")
    p.add_argument("--out", required=True, help="output report path (.json)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="Monte Carlo sweep over a dimension grid")
    p.add_argument("--grid", required=True, help="grid spec JSON file")
    p.add_argument("--seeds", type=int, help="override trials per cell")
    p.add_argument("--out", required=True, help="output report path (.json or .csv)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fixtures", help="exact-rank checks on structured fixtures")
    p.add_argument("--out", required=True, help="output report path (.json)")
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("table", help="qualitative zero-structure table for all delays")
    p.add_argument("--dims", type=_dims_arg, required=True,
                   help="five comma-separated ints n,m,p1,p2,N")
    p.add_argument("--out", required=True, help="output table path (.txt)")
    p.set_defaults(func=_cmd_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MultirateError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
