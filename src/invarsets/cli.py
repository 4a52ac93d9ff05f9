"""Command-line front door.

    invarsets run <config.json> [--report PATH] [--csv PATH] [overrides]
    invarsets run-all <dir> [--report-dir PATH]
    invarsets export <config.json> --csv PATH

Exit codes: 0 = pass, 1 = fail / borderline / hypothesis-error,
2 = configuration error.  ``run-all`` exits 0 only when every scenario's
verdict matches its (optional) ``expected_verdict`` field, which defaults
to "pass"; this lets shipped negative controls count as expected.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import InvarsetsError, UsageError
from .invariance import PASS
from .report import (
    export_trajectory,
    load_scenario,
    run_directory,
    run_scenario,
    scenario_trajectory,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


# Each override flag: the scenario section it writes ("" for the top level),
# its key and its type.  --tolerance KEY=VALUE writes "tolerances".
_OVERRIDES = {
    "--t-end": ("", "t_end", float),
    "--rank-tol": ("", "rank_tol", float),
    "--abs-tol": ("integ", "abs_tol", float),
    "--rel-tol": ("integ", "rel_tol", float),
    "--sample-count": ("integ", "sample_count", int),
    "--seed": ("", "seed", int),
}


def _set(config: dict, section: str, key: str, value) -> None:
    target = config.setdefault(section, {}) if section else config
    if not isinstance(target, dict):
        raise UsageError(f'"{section}" must be an object, got {type(target).__name__}')
    target[key] = value


def _apply_overrides(config: dict, args: argparse.Namespace) -> dict:
    for section, key, _ in _OVERRIDES.values():
        if getattr(args, key) is not None:
            _set(config, section, key, getattr(args, key))
    for item in args.tolerance or []:
        key, _, value = item.partition("=")
        if not _:
            raise UsageError(f"--tolerance expects KEY=VALUE, got '{item}'")
        try:
            number = float(value)
        except ValueError:
            raise UsageError(f"--tolerance {key} must be a number, got '{value}'") from None
        _set(config, "tolerances", key, number)
    return config


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    for flag, (section, key, kind) in _OVERRIDES.items():
        name = f"{section}.{key}" if section else key
        parser.add_argument(flag, type=kind, dest=key, help=f"override {name}")
    parser.add_argument(
        "--tolerance",
        action="append",
        metavar="KEY=VALUE",
        help="override a named tolerance (repeatable), e.g. --tolerance deviation=1e-7",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_scenario(args.config), args)
    report = run_scenario(config)
    # the check's own trajectory; a start that failed a premise integrated
    # none, and a check that integrates none is a configuration error here,
    # before any output
    flow = args.csv and (report.flow or scenario_trajectory(config))
    text = report.to_json()
    print(text)
    if args.report:
        Path(args.report).write_text(text + "\n")
    if flow:
        traj, quantity, system = flow
        export_trajectory(traj, quantity, args.csv, system.component_names)
    return EXIT_PASS if report.verdict == PASS else EXIT_FAIL


def _cmd_run_all(args: argparse.Namespace) -> int:
    rows = []
    for path, report in run_directory(args.directory):
        expected = str(report.config.get("expected_verdict", PASS))
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


def _cmd_export(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_scenario(args.config), args)
    traj, quantity, system = scenario_trajectory(config)
    export_trajectory(traj, quantity, args.csv, system.component_names)
    print(f"wrote {len(traj)} samples to {args.csv}")
    return EXIT_PASS


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
    _add_override_flags(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_all = sub.add_parser("run-all", help="run every scenario in a directory")
    p_all.add_argument("directory", help="directory of scenario JSON files")
    p_all.add_argument("--report-dir", help="write one JSON report per scenario here")
    p_all.set_defaults(fn=_cmd_run_all)

    p_export = sub.add_parser("export", help="export a scenario trajectory as CSV")
    p_export.add_argument("config", help="path to a scenario JSON file")
    p_export.add_argument("--csv", required=True, help="output CSV path")
    _add_override_flags(p_export)
    p_export.set_defaults(fn=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
