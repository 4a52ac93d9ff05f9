"""Command-line front door.

    invarsets run <config.json> [--report PATH] [--csv PATH]
    invarsets run-all <dir> [--report-dir PATH]

Every setting lives in the scenario file, which the report echoes as "config".

Exit codes: 0 = pass, 1 = fail / borderline / hypothesis-error,
2 = configuration error.  ``run-all`` exits 0 only when every scenario's
verdict matches its (optional) ``expected_verdict`` field, which defaults
to "pass"; this lets shipped negative controls count as expected.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import InvarsetsError, UsageError
from .invariance import PASS
from .report import (
    export_trajectory,
    load_scenario,
    require_trajectory,
    run_directory,
    run_scenario,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def _cmd_run(args: argparse.Namespace) -> int:
    report = run_scenario(load_scenario(args.config))
    if args.csv:  # a check that integrates none is a configuration error, before any output
        require_trajectory(report.check)
    text = report.to_json()
    print(text)
    if args.report:
        Path(args.report).write_text(text + "\n")
    if args.csv and report.flow:
        traj, quantity, system = report.flow
        export_trajectory(traj, quantity, args.csv, system.component_names)
    elif args.csv:  # a failed premise left no flow; integrating again would repeat the failure
        print(f"no CSV written: the check integrated no trajectory ({report.verdict})", file=sys.stderr)
    return EXIT_PASS if report.verdict == PASS else EXIT_FAIL


def _cmd_run_all(args: argparse.Namespace) -> int:
    rows = []
    for path, report in run_directory(args.directory):
        expected = report.config.get("expected_verdict", PASS)
        rows.append((path.name, report.check, report.verdict, expected, report.verdict == expected))
        if args.report_dir:
            out = Path(args.report_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{path.stem}.report.json").write_text(report.to_json() + "\n")
    name_w = max(len(r[0]) for r in rows)
    check_w = max(len(r[1]) for r in rows)
    print(f"{'scenario':<{name_w}}  {'check':<{check_w}}  verdict           expected  ok")
    for name, check, verdict, expected, ok in rows:
        print(f"{name:<{name_w}}  {check:<{check_w}}  {verdict:<16}  {expected:<8}  {'yes' if ok else 'NO'}")
    print(f"{sum(1 for r in rows if r[4])}/{len(rows)} scenarios matched their expected verdict")
    return EXIT_PASS if all(r[4] for r in rows) else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invarsets",
        description="Certify invariant sets built from conserved quantities of ODE flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("config", help="path to a scenario JSON file")
    p_run.add_argument("--report", help="also write the JSON report to this path")
    p_run.add_argument("--csv", help="also export the scenario trajectory as CSV")
    p_run.set_defaults(fn=_cmd_run)

    p_all = sub.add_parser("run-all", help="run every scenario in a directory")
    p_all.add_argument("directory", help="directory of scenario JSON files")
    p_all.add_argument("--report-dir", help="write one JSON report per scenario here")
    p_all.set_defaults(fn=_cmd_run_all)

    return parser


# built on first use and shared by every later call: parsing leaves no state
# in the parser (each call fills a new namespace)
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvarsetsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
