"""Flow-invariance certification.

Each verifier first tests the hypotheses the underlying statement assumes
(the quantity really is conserved at the start, the start really lies in
the claimed set) and reports a hypothesis error instead of a verdict when
they fail.  Verdicts:

    pass        every sample matches the initial classification, robustly
    borderline  some sample sits within a factor 10 of a threshold
    fail        classification changed with a robust margin

Invariance is checked at the trajectory samples, not continuously (the
rank and critical checks classify all samples in one stacked call); a
start whose field norm is numerically zero is flagged as an equilibrium
(trivially invariant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ConservedQuantitySet, SystemDefinition, as_state, conservation_residual, evaluate_field
from .errors import UsageError
from .integrate import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DEFAULT_SAMPLE_COUNT,
    DriftReport,
    Trajectory,
    flow_adaptive,
    monitor_drift,
)
from .rank_sets import (
    BORDERLINE_MARGIN,
    DEFAULT_RANK_TOL,
    DEFAULT_VANISH_TOL,
    in_vanishing_set,
    rank_level,
    rank_levels,
)

PASS = "pass"
FAIL = "fail"
BORDERLINE = "borderline"
HYPOTHESIS_ERROR = "hypothesis-error"

DEFAULT_CONSERVATION_TOL = 1e-8
EQUILIBRIUM_TOL = 1e-12


@dataclass(frozen=True)
class InvarianceReport:
    """Evidence record for one invariance check.

    For rank-style checks ``sample_values`` holds the per-sample rank; for
    residual-style checks it holds the per-sample residual.  ``worst_time``
    and ``worst_value`` locate the sample closest to (or beyond) failure,
    and ``min_margin`` is the weakest decision margin encountered.
    """

    kind: str
    verdict: str
    message: str
    trajectory: Trajectory | None = None
    drift: DriftReport | None = None
    initial_rank: int | None = None
    sample_values: np.ndarray | None = None
    worst_time: float = float("nan")
    worst_value: float = float("nan")
    min_margin: float = float("inf")
    threshold: float | None = None
    equilibrium: bool = False


def _is_equilibrium(system: SystemDefinition, x0: np.ndarray) -> bool:
    scale = max(1.0, float(np.linalg.norm(x0)))
    return float(np.linalg.norm(evaluate_field(system, x0))) <= EQUILIBRIUM_TOL * scale


def _conservation_hypothesis(
    system: SystemDefinition,
    quantity: ConservedQuantitySet,
    x0: np.ndarray,
    tol: float,
) -> tuple[bool, float]:
    residual = float(np.max(np.abs(conservation_residual(quantity, system, x0))))
    scale = max(1.0, float(np.linalg.norm(x0)))
    return residual <= tol * scale, residual


def verify_rank_invariance(
    system: SystemDefinition,
    quantity: ConservedQuantitySet,
    x0,
    t_end: float,
    rank_tol: float = DEFAULT_RANK_TOL,
    conservation_tol: float = DEFAULT_CONSERVATION_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
) -> InvarianceReport:
    """Certify that the Jacobian rank of a conserved quantity is constant
    along the flow from ``x0``."""
    x0v = as_state(x0, system.dim)
    ok, residual = _conservation_hypothesis(system, quantity, x0v, conservation_tol)
    initial = rank_level(quantity, x0v, rank_tol)
    if not ok:
        return InvarianceReport(
            kind="rank-level",
            verdict=HYPOTHESIS_ERROR,
            message=(
                f"quantity '{'/'.join(quantity.labels)}' is not conserved at the start: "
                f"max |grad F_i . f| = {residual:.3e} exceeds {conservation_tol:.1e} * scale"
            ),
            initial_rank=initial.rank,
        )
    traj = flow_adaptive(system, x0v, t_end, abs_tol, rel_tol, sample_count)
    decisions = rank_levels(quantity, traj.states, rank_tol)
    ranks = decisions.ranks
    margins = decisions.margins
    min_margin = float(np.min(margins))
    worst_idx = int(np.argmin(margins))
    matches = bool(np.all(ranks == initial.rank))
    if matches and min_margin >= BORDERLINE_MARGIN:
        verdict = PASS
    elif min_margin < BORDERLINE_MARGIN:
        verdict = BORDERLINE
    else:
        verdict = FAIL
    counts = {int(r): int(c) for r, c in zip(*np.unique(ranks, return_counts=True))}
    return InvarianceReport(
        kind="rank-level",
        verdict=verdict,
        message=f"rank counts along flow: {counts}; initial rank {initial.rank}",
        trajectory=traj,
        drift=monitor_drift(traj, quantity),
        initial_rank=initial.rank,
        sample_values=ranks,
        worst_time=float(traj.times[worst_idx]),
        worst_value=float(ranks[worst_idx]),
        min_margin=min_margin,
        equilibrium=_is_equilibrium(system, x0v),
    )


def verify_vanishing_invariance(
    system: SystemDefinition,
    quantity: ConservedQuantitySet,
    x0,
    order: int,
    t_end: float,
    abs_tol: float = DEFAULT_VANISH_TOL,
    conservation_tol: float = DEFAULT_CONSERVATION_TOL,
    integ_abs_tol: float = DEFAULT_ABS_TOL,
    integ_rel_tol: float = DEFAULT_REL_TOL,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
) -> InvarianceReport:
    """Certify that membership in the order-``order`` derivative-vanishing
    set persists along the flow from ``x0``."""
    x0v = as_state(x0, system.dim)
    ok, residual = _conservation_hypothesis(system, quantity, x0v, conservation_tol)
    if not ok:
        return InvarianceReport(
            kind="vanishing",
            verdict=HYPOTHESIS_ERROR,
            message=(
                f"quantity '{'/'.join(quantity.labels)}' is not conserved at the start "
                f"(residual {residual:.3e})"
            ),
        )
    start = in_vanishing_set(quantity, x0v, order, abs_tol)
    if not start.verdict:
        return InvarianceReport(
            kind="vanishing",
            verdict=HYPOTHESIS_ERROR,
            message=(
                f"start is not in the order-{order} vanishing set: largest partial "
                f"{start.residual + start.threshold:.3e} exceeds threshold {start.threshold:.3e}"
            ),
            threshold=start.threshold,
        )
    traj = flow_adaptive(system, x0v, t_end, integ_abs_tol, integ_rel_tol, sample_count)
    members = [in_vanishing_set(quantity, s, order, abs_tol) for s in traj.states]
    residuals = np.array([m.residual for m in members])
    margins = np.array([m.margin for m in members])
    worst_idx = int(np.argmax(residuals))
    min_margin = float(np.min(margins))
    all_inside = all(m.verdict for m in members)
    if all_inside and min_margin >= BORDERLINE_MARGIN:
        verdict = PASS
    elif min_margin < BORDERLINE_MARGIN:
        verdict = BORDERLINE
    else:
        verdict = FAIL
    return InvarianceReport(
        kind="vanishing",
        verdict=verdict,
        message=f"order-{order} vanishing membership held at {sum(m.verdict for m in members)}"
        f"/{len(members)} samples",
        trajectory=traj,
        drift=monitor_drift(traj, quantity),
        sample_values=residuals,
        worst_time=float(traj.times[worst_idx]),
        worst_value=float(residuals[worst_idx]),
        min_margin=min_margin,
        threshold=members[0].threshold,
        equilibrium=_is_equilibrium(system, x0v),
    )


def verify_set_persistence(
    system: SystemDefinition,
    residual_fn: Callable[[np.ndarray], float],
    x0,
    t_end: float,
    tol: float,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    quantity: ConservedQuantitySet | None = None,
) -> InvarianceReport:
    """Certify that a nonnegative set-membership residual stays below
    ``tol`` along the flow from ``x0``.

    ``residual_fn`` measures distance from the set (zero means exact
    membership).  When ``quantity`` is supplied its drift is monitored as
    corroborating evidence.
    """
    if tol <= 0:
        raise UsageError(f"tol must be positive, got {tol}")
    x0v = as_state(x0, system.dim)
    r0 = float(residual_fn(x0v))
    if r0 > tol:
        return InvarianceReport(
            kind="explicit-set",
            verdict=HYPOTHESIS_ERROR,
            message=f"start violates the set residual: {r0:.3e} > tol {tol:.1e}",
            worst_value=r0,
            threshold=tol,
        )
    traj = flow_adaptive(system, x0v, t_end, abs_tol, rel_tol, sample_count)
    residuals = np.array([float(residual_fn(s)) for s in traj.states])
    worst_idx = int(np.argmax(residuals))
    worst = float(residuals[worst_idx])
    margin = tol / worst if worst > 0.0 else float("inf")
    inside = bool(np.all(residuals <= tol))
    if inside and margin >= BORDERLINE_MARGIN:
        verdict = PASS
    elif margin < BORDERLINE_MARGIN:
        verdict = BORDERLINE
    else:
        verdict = FAIL
    return InvarianceReport(
        kind="explicit-set",
        verdict=verdict,
        message=f"max set residual {worst:.3e} at t={traj.times[worst_idx]:.4g} (tol {tol:.1e})",
        trajectory=traj,
        drift=None if quantity is None else monitor_drift(traj, quantity),
        sample_values=residuals,
        worst_time=float(traj.times[worst_idx]),
        worst_value=worst,
        min_margin=float(margin),
        threshold=tol,
        equilibrium=_is_equilibrium(system, x0v),
    )


def verify_critical_invariance(
    system: SystemDefinition,
    quantity: ConservedQuantitySet,
    x0,
    t_end: float,
    rank_tol: float = DEFAULT_RANK_TOL,
    conservation_tol: float = DEFAULT_CONSERVATION_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
) -> InvarianceReport:
    """Certify that criticality (rank below k) persists along the flow."""
    x0v = as_state(x0, system.dim)
    ok, residual = _conservation_hypothesis(system, quantity, x0v, conservation_tol)
    initial = rank_level(quantity, x0v, rank_tol)
    if not ok:
        return InvarianceReport(
            kind="critical",
            verdict=HYPOTHESIS_ERROR,
            message=f"quantity is not conserved at the start (residual {residual:.3e})",
            initial_rank=initial.rank,
        )
    if initial.rank >= quantity.k:
        return InvarianceReport(
            kind="critical",
            verdict=HYPOTHESIS_ERROR,
            message=(
                f"start is not a critical point: rank {initial.rank} equals the "
                f"maximum rank k={quantity.k}"
            ),
            initial_rank=initial.rank,
        )
    traj = flow_adaptive(system, x0v, t_end, abs_tol, rel_tol, sample_count)
    decisions = rank_levels(quantity, traj.states, rank_tol)
    ranks = decisions.ranks
    margins = decisions.margins
    min_margin = float(np.min(margins))
    worst_idx = int(np.argmin(margins))
    critical = bool(np.all(ranks < quantity.k))
    if critical and min_margin >= BORDERLINE_MARGIN:
        verdict = PASS
    elif min_margin < BORDERLINE_MARGIN:
        verdict = BORDERLINE
    else:
        verdict = FAIL
    return InvarianceReport(
        kind="critical",
        verdict=verdict,
        message=f"rank stayed below k={quantity.k} at {int(np.sum(ranks < quantity.k))}"
        f"/{len(ranks)} samples",
        trajectory=traj,
        drift=monitor_drift(traj, quantity),
        initial_rank=initial.rank,
        sample_values=ranks,
        worst_time=float(traj.times[worst_idx]),
        worst_value=float(ranks[worst_idx]),
        min_margin=min_margin,
        equilibrium=_is_equilibrium(system, x0v),
    )
