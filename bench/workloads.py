"""Seeded certification workloads and the checks on their reports.

Every case is one ``invarsets run <config> --report <path>`` call.  The
generators below draw only the continuous parameters (start states, radii,
phases) from the seed; the structure of each workload -- which kinds of case
it holds and in what rotation -- is fixed, so runs with different seeds put
the same mix of work through the program.  Each case carries the verdict and
evidence that hold for it by construction; a report that disagrees is a
failed certification, whatever the cause.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

# Verdict margin below which the library calls a decision borderline.
BORDERLINE_MARGIN = 10.0

SHIPPED = (
    "kepler-circular-coincidence-a15.json",
    "kepler-circular-coincidence.json",
    "kepler-offset-control.json",
    "kepler-rank-circular.json",
    "toda-nonperiodic-flaschka-oracle.json",
    "toda-nonperiodic-persist-M2F123.json",
    "toda-periodic-drift.json",
    "toda-periodic-henon-oracle.json",
    "toda-periodic-persist-M1I13.json",
    "toda-periodic-rank-generic.json",
    "toda-periodic-rank-pattern.json",
    "toda-periodic-vanishing-M0I3.json",
)

# Ranks the shipped rank scenarios claim in their "claim" text.
SHIPPED_RANKS = {
    "kepler-rank-circular": [0],
    "toda-periodic-rank-generic": [3],
    "toda-periodic-rank-pattern": [2],
}

DENSE_SAMPLES = 501
DENSE_T_END = 1.0
LONG_T_END = 15.0
LONG_SAMPLES = 101
KEPLER_PERIODS = 8
COINCIDENCE_ROTATION = 5  # every fifth coincidence start is pushed off the set


@dataclass(frozen=True)
class Case:
    """One certification: the scenario config and what must come back."""

    kind: str
    config: dict
    verdict: str
    ranks_seen: list[int] | None = None
    path: Path | None = None  # shipped cases run the repository file itself


def physical_start(rng: np.random.Generator, n: int) -> list[float]:
    """A periodic Toda state in the physical regime (every X_i > 0).

    Same map as ``toda.physical_to_lattice(y, u, 1.0, spacing)``, written
    out here so that the inputs do not depend on the code under test.
    """
    y = rng.uniform(-0.4, 0.4, n)
    u = rng.uniform(-0.8, 0.8, n)
    spacing = rng.uniform(0.0, 0.5)
    X = math.exp(-spacing) * np.exp(-(np.roll(y, -1) - y))
    return [float(v) for v in np.concatenate([X, u])]


def drift_tolerance(n: int, t_end: float) -> float:
    """Drift bound for I123 on a physical periodic lattice.

    The integrator's drift grows linearly with the horizon and about as
    n^1.5 with the lattice size (I3 sums n cubic terms).  At t_end = 20 the
    worst of 40 seeded starts drifts 3e-9 (n=4), 2.4e-8 (n=16) and 1.1e-7
    (n=64); this bound sits 13x to 24x above those.
    """
    return 2.5e-10 * n**1.5 * t_end


def circular_start(a: float, theta: float) -> list[float]:
    """Clockwise circular Kepler orbit of radius a^2 (``kepler.circular_sample``)."""
    s, c = math.sin(theta), math.cos(theta)
    return [a * a * s, a * a * c, c / a, -s / a]


def shipped(seed: int, root: Path) -> Iterator[Case]:
    rng = np.random.default_rng(seed)
    cases = []
    for name in SHIPPED:
        path = root / "scenarios" / name
        config = json.loads(path.read_text())
        label = config.get("label", path.stem)
        cases.append(
            Case(
                kind=path.stem,
                config=config,
                verdict=str(config.get("expected_verdict", "pass")),
                ranks_seen=SHIPPED_RANKS.get(label),
                path=path,
            )
        )
    while True:
        for i in rng.permutation(len(cases)):
            yield cases[i]


def dense_classify(seed: int, root: Path) -> Iterator[Case]:
    rng = np.random.default_rng(seed)
    kinds = [(n, start) for n in (4, 6, 8) for start in ("physical", "pattern")]
    index = 0
    while True:
        for n, start in kinds:
            if start == "physical":
                state, rank = physical_start(rng, n), 3
            else:
                X1, X2 = rng.uniform(0.3, 1.2, 2)
                u1, u2 = rng.uniform(0.1, 0.6), rng.uniform(-0.6, -0.1)
                state = {
                    "set_id": "M2_I123",
                    "params": {"X1": float(X1), "X2": float(X2), "u1": float(u1), "u2": float(u2)},
                }
                rank = 2
            config = {
                "label": f"dense-{index:05d}-n{n}-{start}",
                "model": {"kind": "toda-periodic", "n": n},
                "check": "rank-invariance",
                "quantity": "I123",
                "initial_state": state,
                "t_end": DENSE_T_END,
                "integ": {"sample_count": DENSE_SAMPLES},
            }
            yield Case(kind=f"n{n}-{start}", config=config, verdict="pass", ranks_seen=[rank])
            index += 1


def long_flow(seed: int, root: Path) -> Iterator[Case]:
    rng = np.random.default_rng(seed)
    index = 0
    while True:
        for n in (4, 16, 64):
            tol = drift_tolerance(n, LONG_T_END)
            config = {
                "label": f"long-{index:05d}-toda-n{n}",
                "model": {"kind": "toda-periodic", "n": n},
                "check": "drift",
                "quantity": "I123",
                "initial_state": physical_start(rng, n),
                "t_end": LONG_T_END,
                "integ": {"sample_count": LONG_SAMPLES},
                "tolerances": {"drift": tol},
            }
            yield Case(kind=f"toda-n{n}", config=config, verdict="pass")
            index += 1
        # eccentric Kepler orbit started at periapsis, semi-major axis a
        a = rng.uniform(0.8, 1.25)
        e = rng.uniform(0.4, 0.7)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        r = a * (1.0 - e)
        v = math.sqrt((1.0 + e) / r)
        state = [r * math.cos(phi), r * math.sin(phi), -v * math.sin(phi), v * math.cos(phi)]
        config = {
            "label": f"long-{index:05d}-kepler-e{e:.2f}",
            "model": {"kind": "kepler"},
            "check": "drift",
            "quantity": "HA",
            "initial_state": state,
            "t_end": KEPLER_PERIODS * 2.0 * math.pi * a**1.5,
            "integ": {"sample_count": LONG_SAMPLES},
            # over 10 periods, 8 seeded orbits drifted at most 2.6e-9
            "tolerances": {"drift": 5e-8},
        }
        yield Case(kind="kepler-eccentric", config=config, verdict="pass")
        index += 1


def coincidence(seed: int, root: Path) -> Iterator[Case]:
    rng = np.random.default_rng(seed)
    index = 0
    while True:
        a = float(rng.uniform(0.7, 1.4))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        off_set = index % COINCIDENCE_ROTATION == COINCIDENCE_ROTATION - 1
        if off_set:
            # scaling the velocity moves the start off the agreement set
            push = float(rng.uniform(0.05, 0.2)) * (1.0 if rng.random() < 0.5 else -1.0)
            x = circular_start(a, theta)
            state = x[:2] + [v * (1.0 + push) for v in x[2:]]
        else:
            state = {"circular": {"a": a, "theta": theta}}
        config = {
            "label": f"coincidence-{index:05d}-a{a:.3f}",
            "model": {"kind": "kepler", "a": a},
            "check": "coincidence",
            "quantity": "H",
            "initial_state": state,
            "t_end": 2.0 * math.pi * a**3,
        }
        yield Case(
            kind="off-set" if off_set else "on-set",
            config=config,
            verdict="hypothesis-error" if off_set else "pass",
        )
        index += 1


WORKLOADS = {
    "shipped": shipped,
    "dense-classify": dense_classify,
    "long-flow": long_flow,
    "coincidence": coincidence,
}

# Number of cases in one full rotation of each workload's kinds.
CYCLE = {"shipped": len(SHIPPED), "dense-classify": 6, "long-flow": 4, "coincidence": 5}


def _tol(config: dict, key: str, default: float) -> float:
    return float(config.get("tolerances", {}).get(key, default))


def _state_scale(config: dict) -> float:
    state = config.get("initial_state")
    if isinstance(state, list):
        return max(1.0, math.sqrt(sum(v * v for v in state)))
    circ = state["circular"]
    return max(1.0, math.sqrt(sum(v * v for v in circular_start(circ["a"], circ["theta"]))))


def check_report(case: Case, exit_code: int, report: dict) -> str | None:
    """Return why the report disagrees with the case, or None if it agrees."""
    verdict = report.get("verdict")
    if verdict != case.verdict:
        return f"verdict {verdict!r}, expected {case.verdict!r}"
    if exit_code != (0 if case.verdict == "pass" else 1):
        return f"exit code {exit_code} for verdict {verdict!r}"
    ev = report.get("evidence", {})
    config = case.config
    check = config["check"]
    if case.ranks_seen is not None:
        if ev.get("ranks_seen") != case.ranks_seen or ev.get("initial_rank") != case.ranks_seen[0]:
            return f"ranks_seen {ev.get('ranks_seen')}, expected {case.ranks_seen}"
    if verdict != "pass":
        if check == "coincidence" and not ev["agreement_residual"] > _tol(config, "hypothesis", 1e-8) * _state_scale(config):
            return f"agreement residual {ev['agreement_residual']:.3e} is within tolerance"
        return None
    if check == "rank-invariance" and not ev["min_margin"] >= BORDERLINE_MARGIN:
        return f"min_margin {ev['min_margin']:.3g} below {BORDERLINE_MARGIN}"
    if check == "drift" and not ev["worst_drift"] <= _tol(config, "drift", 1e-8):
        return f"drift {ev['worst_drift']:.3e} above tolerance"
    if check == "coincidence":
        if not ev["max_deviation"] <= _tol(config, "deviation", 1e-6):
            return f"flows deviate by {ev['max_deviation']:.3e}"
        if not ev["agreement_residual"] <= _tol(config, "hypothesis", 1e-8) * _state_scale(config):
            return f"agreement residual {ev['agreement_residual']:.3e} above tolerance"
    if check == "set-persistence" and not ev["max_residual"] <= ev["tol"]:
        return f"set residual {ev['max_residual']:.3e} above {ev['tol']:.1e}"
    if check == "n-invariance" and not ev["worst_residual"] <= 0.0:
        return f"vanishing residual {ev['worst_residual']:.3e} above threshold"
    if check == "oracle-equality":
        worst = max(ev["max_value_mismatch"], ev["max_lax_residual"])
        if not (worst <= ev["value_tol"] and ev["max_gradient_mismatch"] <= ev["gradient_tol"]):
            return "oracle mismatch above tolerance"
    return None
