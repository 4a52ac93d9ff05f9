"""Certification benchmark for invarsets.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

One process, one client, closed loop: each certification is an in-process
``invarsets run <config> --report <path>`` call through ``cli.main`` and
starts when the previous one has returned.  Every report is checked against
the verdict and evidence its case has by construction (see workloads.py).

Raw wall time on a shared machine drifts by tens of percent between runs, so
the gated timings are ratios: each certification is bracketed by runs of a
fixed reference kernel (interpreter work and small numpy calls, no
invarsets code) and divided by their mean time.  The seconds are printed
beside them as their base.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
public functions of the library (tracing.py), reports the per-layer split
and writes per-span totals to ``.bench_out/``.  ``--workload all`` runs
every workload both ways, each in a fresh process.  The last line of a
completed run is one JSON object; without the library's sources the script
exits with code 2 and prints no result.  bench/baseline.json holds the
reference numbers and says which end-to-end metric each layer should move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

# Gated metrics: (name, unit).  Bounds live in BENCHMARK.json.
END_TO_END = (
    ("cert_p50_ref", "ref"),
    ("cert_p90_ref", "ref"),
    ("certs_per_kref", "1/kref"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# Printed with every untraced run as the base of the ratios; not gated.
BASE = (
    ("ref_kernel_ms", "ms"),
    ("cert_p50_ms", "ms"),
    ("cert_p90_ms", "ms"),
    ("certs_per_s", "1/s"),
    ("fail_frac", "1"),
    ("certs", "count"),
)

# Per-layer metrics: (name, unit).  The end-to-end metric and workload each
# one should move are listed in bench/baseline.json.
PER_LAYER = (
    ("core.field_calls", "count/cert"),
    ("core.field_us", "us"),
    ("core.conservation_residual_calls", "count/cert"),
    ("core.conservation_residual_s", "s/cert"),
    ("integrate.nfev", "count/cert"),
    ("integrate.steps_accepted", "count/cert"),
    ("integrate.steps_rejected", "count/cert"),
    ("integrate.stepper_self_s", "s/cert"),
    ("integrate.us_per_nfev", "us"),
    ("integrate.drift_s", "s/cert"),
    ("integrate.drift_us_per_sample", "us"),
    ("differentiate.jacobian_calls", "count/cert"),
    ("differentiate.jacobian_s", "s/cert"),
    ("differentiate.partial_tensor_calls", "count/cert"),
    ("differentiate.partial_tensor_self_s", "s/cert"),
    ("rank_sets.rank_level_calls", "count/cert"),
    ("rank_sets.rank_level_us", "us"),
    ("rank_sets.numerical_rank_s", "s/cert"),
    ("rank_sets.vanishing_calls", "count/cert"),
    ("rank_sets.vanishing_s", "s/cert"),
    ("invariance.hypothesis_s", "s/cert"),
    ("invariance.classify_s", "s/cert"),
    ("coincidence.derivative_stack_calls", "count/cert"),
    ("coincidence.derivative_stack_self_s", "s/cert"),
    ("coincidence.driven_field_us", "us"),
    ("toda.oracle_s", "s/cert"),
    ("toda.explicit_set_residual_s", "s/cert"),
    ("report.run_scenario_self_s", "s/cert"),
    ("report.serialize_s", "s/cert"),
    ("cli.main_self_s", "s/cert"),
    ("trace_overhead", "x"),
)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


# -- reference kernel -----------------------------------------------------------

_REF_RNG = np.random.default_rng(20111105)  # fixed: the kernel never depends on --seed
_REF_M = _REF_RNG.standard_normal((3, 8))
_REF_V = _REF_RNG.standard_normal(8)
_REF_W = _REF_RNG.standard_normal(64)
REF_ROUNDS = 150  # 3 to 5 ms on a 2-core x86 VM (Python 3.11, numpy 2.4), by host load


def reference_kernel() -> float:
    """A fixed mix of dict and list work and small numpy calls."""
    acc = 0.0
    table: dict[tuple[int, int], float] = {}
    v = _REF_V
    for i in range(REF_ROUNDS):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0.0) + 0.5 * i
        acc += sum([x * 0.25 for x in range(12)])
        w = _REF_M @ v
        sv = np.linalg.svd(_REF_M, compute_uv=False)
        v = np.concatenate([v[1:], v[:1]]) * (1.0 / (1.0 + float(np.abs(w).max())))
        acc += float(sv[0]) + float(np.dot(v, v)) + float(np.linalg.norm(_REF_W[i % 50 : i % 50 + 8]))
    return acc + len(table)


def timed_reference() -> float:
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


# -- one certification ----------------------------------------------------------


class Runner:
    """Runs cases through ``cli.main`` and checks their reports."""

    def __init__(self, workdir: Path) -> None:
        from invarsets import cli

        self.cli = cli
        self.config_path = workdir / "case.json"
        self.report_path = workdir / "report.json"
        self.attempted = 0
        self.failures: list[str] = []

    def certify(self, case: workloads.Case, tracer: tracing.Tracer | None = None) -> float:
        """Run one case; return its wall time.  Failures are recorded."""
        path = case.path
        if path is None:
            path = self.config_path
            path.write_text(json.dumps(case.config))
        self.report_path.unlink(missing_ok=True)
        argv = ["run", str(path), "--report", str(self.report_path)]
        self.attempted += 1
        error = None
        guard = tracer.installed() if tracer else contextlib.nullcontext()
        with guard, contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed certification, not a stop
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
        if tracer:
            tracer.end_case()
        if error is None:
            try:
                report = json.loads(self.report_path.read_text())
            except (OSError, ValueError) as exc:
                error = f"no readable report: {exc}"
            else:
                try:
                    error = workloads.check_report(case, code, report)
                except (KeyError, TypeError) as exc:
                    error = f"report lacks evidence field {exc}"
        if error is not None:
            self.failures.append(f"{case.config.get('label', case.kind)}: {error}")
        return elapsed


# -- measurements ---------------------------------------------------------------


def measure_setup() -> float:
    """Median seconds for a fresh interpreter to import invarsets.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-c", "import invarsets.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=60)
        elapsed = perf_counter() - t0
        if done.returncode != 0:
            fail("a fresh interpreter could not import invarsets.cli")
        if i:  # the first start fills the bytecode cache
            times.append(elapsed)
    return statistics.median(times)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def cycles_until(deadline_s: float, started: float, done: int) -> bool:
    """True while another whole cycle fits, judged by the mean cycle so far."""
    elapsed = perf_counter() - started
    return done == 0 or elapsed * (done + 1) / done <= deadline_s


def warmed_cases(name: str, seed: int, runner: Runner):
    """The workload's case stream and cycle length, after one warm-up cycle
    (lazy imports and caches) that is checked but not timed."""
    cases = workloads.WORKLOADS[name](seed, ROOT)
    cycle = workloads.CYCLE[name]
    for _ in range(cycle):
        runner.certify(next(cases))
    return cases, cycle


def run_untraced(name: str, seed: int, seconds: float, runner: Runner) -> dict[str, float]:
    setup_s = measure_setup()
    cases, cycle = warmed_cases(name, seed, runner)

    # Each certification is divided by the mean of the reference kernels run
    # just before and just after it, which follows the machine through the
    # speed changes a shared host goes through every few hundred ms.
    cert_s: list[float] = []
    ref_s = [timed_reference()]
    started = perf_counter()
    done = 0
    while cycles_until(seconds, started, done):
        for _ in range(cycle):
            cert_s.append(runner.certify(next(cases)))
            ref_s.append(timed_reference())
        done += 1
    ratios = [c / (0.5 * (ref_s[i] + ref_s[i + 1])) for i, c in enumerate(cert_s)]
    return {
        "cert_p50_ref": statistics.median(ratios),
        "cert_p90_ref": p90(ratios),
        "certs_per_kref": 1000.0 * len(ratios) / sum(ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "ref_kernel_ms": 1e3 * statistics.median(ref_s),
        "cert_p50_ms": 1e3 * statistics.median(cert_s),
        "cert_p90_ms": 1e3 * p90(cert_s),
        "certs_per_s": len(cert_s) / sum(cert_s),
        "fail_frac": len(runner.failures) / runner.attempted,
        "certs": len(cert_s),
    }


def run_traced(name: str, seed: int, seconds: float, runner: Runner) -> tuple[dict[str, float], str | None]:
    """Per-layer metrics from two traced passes over one cycle of cases.

    The two passes must repeat every exact count.  The time left after them
    alternates untraced and traced certifications to measure the overhead.
    """
    started = perf_counter()
    cases, cycle = warmed_cases(name, seed, runner)
    fixed = [next(cases) for _ in range(cycle)]

    tracer = tracing.Tracer()
    counts = []
    for _ in range(2):
        before = tracer.exact_counts()
        for case in fixed:
            runner.certify(case, tracer)
        after = tracer.exact_counts()
        counts.append({k: after[k] - before[k] for k in after})
    mismatch = None
    if counts[0] != counts[1]:
        mismatch = f"exact counts differ between two traced passes: {counts[0]} vs {counts[1]}"

    overhead_tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    loop_start = perf_counter()
    budget = seconds - (loop_start - started)
    done = 0
    while cycles_until(budget, loop_start, done):
        for _ in range(cycle):
            case = next(cases)
            plain.append(runner.certify(case))
            traced.append(runner.certify(case, overhead_tracer))
        done += 1

    metrics = tracer.per_case()
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(plain)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{name}-seed{seed}.json"
    trace_file.write_text(
        json.dumps({"cases": tracer.cases, "exact_counts": counts[0], "spans": tracer.table()}, indent=1)
    )
    return metrics, mismatch


# -- output ---------------------------------------------------------------------


def describe(metrics: dict[str, float], units: dict[str, str]) -> None:
    width = max(len(k) for k in units)
    for key, unit in units.items():
        print(f"  {key:<{width}}  {metrics[key]:>14.6g}  {unit}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {}
    ok = True
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stderr.write(done.stderr)
            if done.returncode != 0 or not lines:
                fail(f"workload {name} (trace {trace}) exited with code {done.returncode}")
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for key, value in result["metrics"].items():
                summary[f"{name}/{key}"] = value
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "invarsets" / "__init__.py").is_file():
        fail(f"no invarsets sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    workdir = TMP / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir)
        mismatch = None
        if args.trace:
            metrics, mismatch = run_traced(args.workload, args.seed, args.seconds, runner)
            units = {name: unit for name, unit in PER_LAYER}
            reported = units
        else:
            metrics = run_untraced(args.workload, args.seed, args.seconds, runner)
            reported = dict(END_TO_END)
            units = {**reported, **dict(BASE)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()

    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}, "
          f"{runner.attempted} certifications, {len(runner.failures)} failed")
    describe(metrics, units)
    for line in runner.failures[:10]:
        print(f"  FAILED {line}", file=sys.stderr)
    if mismatch:
        print(f"  {mismatch}", file=sys.stderr)
    result = {
        "correct": not runner.failures and mismatch is None,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
