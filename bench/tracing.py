"""Per-layer spans for invarsets, recorded from outside the package.

``Tracer.installed()`` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent), at every
place the function is bound: its own module and each module that imported
it by name, so ``invariance.rank_level`` and ``report.flow_adaptive`` are
wrapped as well as ``rank_sets.rank_level`` and ``integrate.flow_adaptive``.
Model fields, the coincidence driven field, the enumeration oracle and
report serialization are not module functions; they are wrapped where they
are built.  Everything is restored on exit.

Spans are kept in memory.  ``end_case`` folds the spans of one certification
into per-name totals (calls, total time, self time), so memory stays bounded
however long the run; the totals are written out when the benchmark ends.
A function that does not exist simply records no span, and every metric
derived from it reads 0.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

TRACED_MODULES = (
    "core",
    "integrate",
    "differentiate",
    "rank_sets",
    "invariance",
    "coincidence",
    "toda",
    "kepler",
    "report",
    "cli",
)

FIELD_FACTORIES = (
    "toda.periodic_field",
    "toda.nonperiodic_field",
    "kepler.kepler_field",
    "kepler.linear_pair_field",
)
ORACLE_SPANS = ("toda.oracle_value", "toda.trace_invariant_value", "toda.lax_commutator_residual")
VERIFIER_PREFIX = "invariance.verify_"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.cases = 0

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, post=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            return out if post is None else post(out, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _flow_stats(self, traj, args, kwargs):
        stats = traj.stats
        self.counters["integrate.nfev"] += int(stats.field_evaluations)
        self.counters["integrate.steps_accepted"] += int(stats.steps_accepted)
        self.counters["integrate.steps_rejected"] += int(stats.steps_rejected)
        return traj

    def _drift_samples(self, report, args, kwargs):
        self.counters["integrate.drift_samples"] += len(args[0] if args else kwargs["traj"])
        return report

    def _traced_field(self, system, args, kwargs):
        return dataclasses.replace(system, field=self.span("core.field", system.field))

    def _traced_driven(self, driven, args, kwargs):
        system = driven.system
        traced = dataclasses.replace(system, field=self.span("coincidence.driven_field", system.field))
        return dataclasses.replace(driven, system=traced)

    def _traced_oracle(self, quantity, args, kwargs):
        return dataclasses.replace(quantity, value=self.span("toda.oracle_value", quantity.value))

    @contextmanager
    def installed(self):
        """Patch the traced modules for the duration of the block."""
        post = {
            "integrate.flow_adaptive": self._flow_stats,
            "integrate.monitor_drift": self._drift_samples,
            "coincidence.assemble_system": self._traced_driven,
            "toda.henon_invariant_oracle": self._traced_oracle,
        }
        post.update({name: self._traced_field for name in FIELD_FACTORIES})
        sites = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "invarsets" and m]
        undo = []
        try:
            for short in TRACED_MODULES:
                try:
                    module = importlib.import_module(f"invarsets.{short}")
                except ImportError:
                    continue
                for fname, fn in list(vars(module).items()):
                    if fname.startswith("_") or not inspect.isfunction(fn):
                        continue
                    if fn.__module__ != module.__name__:
                        continue
                    name = f"{short}.{fname}"
                    wrapper = self.span(name, fn, post.get(name))
                    for site in sites:
                        for attr, value in list(vars(site).items()):
                            if value is fn:
                                undo.append((site, attr, fn))
                                setattr(site, attr, wrapper)
            run_report = getattr(sys.modules.get("invarsets.report"), "RunReport", None)
            if run_report is not None and hasattr(run_report, "to_json"):
                original = run_report.__dict__["to_json"]
                undo.append((run_report, "to_json", original))
                run_report.to_json = self.span("report.serialize", original)
            yield self
        finally:
            for obj, attr, value in reversed(undo):
                setattr(obj, attr, value)

    # -- folding -----------------------------------------------------------

    def end_case(self) -> None:
        """Fold the spans of one finished certification into the totals."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        n = len(names)
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        verifier_children: dict[int, list[int]] = {}
        for i in range(n):
            dur = ends[i] - starts[i]
            name = names[i]
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - child[i]
            if name.startswith(VERIFIER_PREFIX):
                verifier_children[i] = []
            p = parents[i]
            if p in verifier_children:
                verifier_children[p].append(i)
        for v, kids in verifier_children.items():
            self._split_verifier(v, kids)
        self.cases += 1
        del names[:], starts[:], ends[:], parents[:]

    def _split_verifier(self, v: int, kids: list[int]) -> None:
        """Verifier time before the first flow and after the last, minus drift."""
        names, starts, ends = self.names, self.starts, self.ends
        flows = [i for i in kids if names[i] == "integrate.flow_adaptive"]
        if not flows:
            self.total["invariance.hypothesis"] += ends[v] - starts[v]
            return
        flow_start = min(starts[i] for i in flows)
        flow_end = max(ends[i] for i in flows)
        drift = sum(
            ends[i] - starts[i]
            for i in kids
            if names[i] == "integrate.monitor_drift" and starts[i] >= flow_end
        )
        self.total["invariance.hypothesis"] += flow_start - starts[v]
        self.total["invariance.classify"] += ends[v] - flow_end - drift

    # -- results -----------------------------------------------------------

    def per_case(self) -> dict[str, float]:
        """Per-layer metrics, per certification unless the name says otherwise."""
        c = max(self.cases, 1)
        calls, total, self_t, counters = self.calls, self.total, self.self_time, self.counters

        def per_call_us(name: str, count: float | None = None) -> float:
            count = calls.get(name, 0) if count is None else count
            return total.get(name, 0.0) / count * 1e6 if count else 0.0

        nfev = counters.get("integrate.nfev", 0)
        return {
            "core.field_calls": calls.get("core.field", 0) / c,
            "core.field_us": per_call_us("core.field"),
            "core.conservation_residual_calls": calls.get("core.conservation_residual", 0) / c,
            "core.conservation_residual_s": total.get("core.conservation_residual", 0.0) / c,
            "integrate.nfev": nfev / c,
            "integrate.steps_accepted": counters.get("integrate.steps_accepted", 0) / c,
            "integrate.steps_rejected": counters.get("integrate.steps_rejected", 0) / c,
            "integrate.stepper_self_s": self_t.get("integrate.flow_adaptive", 0.0) / c,
            "integrate.us_per_nfev": per_call_us("integrate.flow_adaptive", nfev),
            "integrate.drift_s": total.get("integrate.monitor_drift", 0.0) / c,
            "integrate.drift_us_per_sample": per_call_us(
                "integrate.monitor_drift", counters.get("integrate.drift_samples", 0)
            ),
            "differentiate.jacobian_calls": calls.get("differentiate.jacobian", 0) / c,
            "differentiate.jacobian_s": total.get("differentiate.jacobian", 0.0) / c,
            "differentiate.partial_tensor_calls": calls.get("differentiate.partial_tensor", 0) / c,
            "differentiate.partial_tensor_self_s": self_t.get("differentiate.partial_tensor", 0.0) / c,
            "rank_sets.rank_level_calls": calls.get("rank_sets.rank_level", 0) / c,
            "rank_sets.rank_level_us": per_call_us("rank_sets.rank_level"),
            "rank_sets.numerical_rank_s": total.get("rank_sets.numerical_rank", 0.0) / c,
            "rank_sets.vanishing_calls": calls.get("rank_sets.in_vanishing_set", 0) / c,
            "rank_sets.vanishing_s": total.get("rank_sets.in_vanishing_set", 0.0) / c,
            "invariance.hypothesis_s": total.get("invariance.hypothesis", 0.0) / c,
            "invariance.classify_s": total.get("invariance.classify", 0.0) / c,
            "coincidence.derivative_stack_calls": calls.get("coincidence.derivative_stack", 0) / c,
            "coincidence.derivative_stack_self_s": self_t.get("coincidence.derivative_stack", 0.0) / c,
            "coincidence.driven_field_us": per_call_us("coincidence.driven_field"),
            "toda.oracle_s": sum(total.get(name, 0.0) for name in ORACLE_SPANS) / c,
            "toda.explicit_set_residual_s": total.get("toda.explicit_set_residual", 0.0) / c,
            "report.run_scenario_self_s": self_t.get("report.run_scenario", 0.0) / c,
            "report.serialize_s": total.get("report.serialize", 0.0) / c,
            "cli.main_self_s": self_t.get("cli.main", 0.0) / c,
        }

    def exact_counts(self) -> dict[str, int]:
        """Counts that depend only on the inputs, as totals over the traced
        cases: two traced passes over the same cases must repeat them."""
        return {
            "integrate.nfev": self.counters.get("integrate.nfev", 0),
            "core.field_calls": self.calls.get("core.field", 0),
            "rank_sets.rank_level_calls": self.calls.get("rank_sets.rank_level", 0),
            "differentiate.jacobian_calls": self.calls.get("differentiate.jacobian", 0),
            "coincidence.derivative_stack_calls": self.calls.get("coincidence.derivative_stack", 0),
        }

    def table(self) -> dict[str, dict[str, float]]:
        """Per-span-name totals, for the trace file."""
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total[name],
                "self_s": self.self_time.get(name, 0.0),
            }
            for name in sorted(self.total)
        }
