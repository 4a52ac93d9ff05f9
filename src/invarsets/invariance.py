"""Flow-invariance certification.

Each verifier first tests the hypotheses the underlying statement assumes
(the quantity really is conserved at the start, the start really lies in
the claimed set) and reports a hypothesis error instead of a verdict when
they fail.  Verdicts, the first that applies:

    hypothesis-error  a premise failed
    fail              some sample is outside its set with margin >= 10
    borderline        some sample's margin is below 10
    pass              every sample is inside its set, robustly

Every verifier, :func:`coincidence.verify_coincidence` included, is its
premise checks plus a classifier of the samples; one skeleton classifies
the flow from the accepted start and applies the verdict rule.  The flow
is the system's declared ``flow`` where that covers the start, its velocity
checked against the field on every sample at the premise tolerance
``core.PREMISE_TOL`` (a mismatch is a hypothesis error), else the field
integrated (``integrate._flow``).  Invariance
is checked at the trajectory samples, not continuously, and every check
classifies all samples of the ``(m, dim)`` stack in one stacked call: one
stacked SVD for the rank and critical checks, one stacked partial builder
for the vanishing check, and one call of the set residual on the stack for
set persistence.  A start whose field norm is numerically zero is flagged
as an equilibrium (trivially invariant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .core import PREMISE_TOL, ConservedQuantitySet, SystemDefinition, _conservation_rates, _state_scales, _tolerances
from .core import as_state, evaluate_field
from .errors import UsageError
from .integrate import DriftReport, IntegratorSettings, Trajectory, _flow, monitor_drift
from .rank_sets import BORDERLINE_MARGIN, _margins, rank_levels, vanishing_memberships

PASS = "pass"
FAIL = "fail"
BORDERLINE = "borderline"
HYPOTHESIS_ERROR = "hypothesis-error"

EQUILIBRIUM_TOL = 1e-12


@dataclass(frozen=True)
class InvarianceReport:
    """Evidence record for one check, whichever of the five verifiers made it.

    ``sample_values`` holds the per-sample rank for the rank-style checks,
    the per-sample residual for the residual-style ones, and the distance
    between the two flows for coincidence.  ``worst_time`` and
    ``worst_value`` locate the sample closest to (or beyond) failure, and
    ``min_margin`` is the weakest decision margin encountered.  Beside them
    sits the premises' evidence: ``initial_rank``, ``threshold``, and for
    coincidence ``agreement_residual`` and ``difference_drift``.
    """

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
    agreement_residual: float = float("nan")
    difference_drift: float = float("nan")


def _conservation_premise(system: SystemDefinition, quantity: ConservedQuantitySet, x0):
    """The validated start, the field there, and why ``quantity`` is not
    conserved there within :data:`core.PREMISE_TOL` (None when it is)."""
    x0v = as_state(x0, system.dim)
    if quantity.dim != system.dim:
        raise UsageError(f"quantity dimension {quantity.dim} != system dimension {system.dim}")
    f0 = evaluate_field(system, x0v)
    name, bound = "/".join(quantity.labels), PREMISE_TOL * float(_state_scales(x0v))
    if bound == np.inf:
        return x0v, f0, f"quantity '{name}' has no finite tolerance at the start: {PREMISE_TOL:.1e} * |x| overflows"
    residual = float(np.max(np.abs(_conservation_rates(quantity, x0v[None, :], f0[None, :]))))
    if residual <= bound:
        return x0v, f0, None
    return x0v, f0, (
        f"quantity '{name}' is not conserved at the start: "
        f"max |grad F_i . f| = {residual:.3e} exceeds {PREMISE_TOL:.1e} * scale"
        if np.isfinite(residual) else f"quantity '{name}' has no finite conservation rate at the start"
    )


def _certify(system, traj, classify, quantity, f0=None, broken=None, **fields) -> InvarianceReport:
    """Classify every sample of the flow ``traj`` from an accepted start (its
    sample 0) and apply the verdict rule of the module docstring.

    ``classify(traj)`` returns the per-sample values, inside flags and
    margins, the index of the worst sample and the message.  ``quantity``,
    when given, has its drift monitored.  ``f0`` is the field at the start
    when the caller evaluated it.  ``broken`` is why a premise read on the
    flow failed: the verdict is then a hypothesis error with that message,
    the worst-sample evidence kept.  A NaN margin is never robustly inside.
    """
    x0 = traj.states[0]
    with np.errstate(over="ignore"):
        speed = float(np.linalg.norm(evaluate_field(system, x0) if f0 is None else f0))
    values, inside, margins, worst, message = classify(traj)
    min_margin = float(margins.min())
    if broken is not None:
        verdict, message = HYPOTHESIS_ERROR, broken
    elif (~inside & ~(margins < BORDERLINE_MARGIN)).any():
        verdict = FAIL
    else:
        verdict = PASS if min_margin >= BORDERLINE_MARGIN else BORDERLINE
    return InvarianceReport(
        verdict=verdict,
        message=message,
        trajectory=traj,
        drift=None if quantity is None else monitor_drift(traj, quantity),
        sample_values=values,
        worst_time=float(traj.times[worst]),
        worst_value=float(values[worst]),
        min_margin=min_margin,
        equilibrium=speed <= EQUILIBRIUM_TOL * float(_state_scales(x0)) < np.inf,
        **fields,
    )


def _verify_rank(critical: bool, system, quantity, x0, t_end, integ, tolerances):
    """Rank-level and critical checks: one rank classifier, whose predicate
    is ``rank == initial`` for the rank level and, when ``critical``,
    ``rank < k`` for the critical set."""
    tol = _tolerances(tolerances, ("rank",))
    x0v, f0, broken = _conservation_premise(system, quantity, x0)
    initial = int(rank_levels(quantity, x0v[None, :], tol["rank"]).ranks[0])
    if broken is None and critical and initial >= quantity.k:
        broken = (
            f"start is not a critical point: rank {initial} equals the maximum rank k={quantity.k}"
        )
    if broken is not None:
        return InvarianceReport(HYPOTHESIS_ERROR, broken, initial_rank=initial)

    def classify(traj):
        decisions = rank_levels(quantity, traj.states, tol["rank"])
        ranks = decisions.ranks
        if critical:
            inside = ranks < quantity.k
            held = f"{int(np.sum(inside))}/{len(ranks)}"
            message = f"rank stayed below k={quantity.k} at {held} samples"
        else:
            inside = ranks == initial
            counts = {int(r): int(c) for r, c in zip(*np.unique(ranks, return_counts=True))}
            message = f"rank counts along flow: {counts}; initial rank {initial}"
        return ranks, inside, decisions.margins, int(np.argmin(decisions.margins)), message

    traj, broken = _flow(system, x0v, t_end, integ, PREMISE_TOL)
    return _certify(system, traj, classify, quantity, f0, broken, initial_rank=initial)


def verify_rank_invariance(
    system: SystemDefinition,
    quantity: ConservedQuantitySet,
    x0,
    t_end: float,
    *,
    integ: IntegratorSettings = IntegratorSettings(),
    tolerances: Mapping[str, float] | None = None,
) -> InvarianceReport:
    """Certify that the Jacobian rank of a conserved quantity is constant
    along the flow from ``x0``.  ``tolerances`` may set ``rank`` (the
    relative rank threshold, in (0, 1)); the start's ``|grad F_i . f|`` is
    held to ``core.PREMISE_TOL`` relative to ``max(1, |x|)``."""
    return _verify_rank(False, system, quantity, x0, t_end, integ, tolerances)


def verify_critical_invariance(
    system: SystemDefinition,
    quantity: ConservedQuantitySet,
    x0,
    t_end: float,
    *,
    integ: IntegratorSettings = IntegratorSettings(),
    tolerances: Mapping[str, float] | None = None,
) -> InvarianceReport:
    """Certify that criticality (rank below k) persists along the flow;
    ``tolerances`` as for :func:`verify_rank_invariance`."""
    return _verify_rank(True, system, quantity, x0, t_end, integ, tolerances)


def verify_vanishing_invariance(
    system: SystemDefinition,
    quantity: ConservedQuantitySet,
    x0,
    t_end: float,
    *,
    order: int,
    integ: IntegratorSettings = IntegratorSettings(),
    tolerances: Mapping[str, float] | None = None,
) -> InvarianceReport:
    """Certify that membership in the order-``order`` derivative-vanishing
    set persists along the flow from ``x0``.  ``tolerances`` may set
    ``vanishing`` (the largest partial, relative to ``max(1, |x|)``); the
    conservation premise is that of :func:`verify_rank_invariance`."""
    tol = _tolerances(tolerances, ("vanishing",))
    x0v, f0, broken = _conservation_premise(system, quantity, x0)
    if broken is not None:
        return InvarianceReport(verdict=HYPOTHESIS_ERROR, message=broken)
    start = vanishing_memberships(quantity, x0v[None, :], order, tol["vanishing"])
    threshold = float(start.thresholds[0])
    if not start.verdicts[0]:
        return InvarianceReport(
            verdict=HYPOTHESIS_ERROR,
            message=(
                f"start is not in the order-{order} vanishing set: largest partial "
                f"{float(start.residuals[0]) + threshold:.3e} exceeds threshold {threshold:.3e}"
            ),
            threshold=threshold,
        )

    def classify(traj):
        members = vanishing_memberships(quantity, traj.states, order, tol["vanishing"])
        residuals, inside = members.residuals, members.verdicts
        held = f"{int(np.sum(inside))}/{len(inside)}"
        message = f"order-{order} vanishing membership held at {held} samples"
        return residuals, inside, members.margins, int(np.argmax(residuals)), message

    traj, broken = _flow(system, x0v, t_end, integ, PREMISE_TOL)
    return _certify(system, traj, classify, quantity, f0, broken, threshold=threshold)


def _set_residuals(residual_fn, xs: np.ndarray) -> np.ndarray:
    r = np.asarray(residual_fn(xs), dtype=float)
    if r.shape != (len(xs),):
        raise UsageError(
            f"set residual {getattr(residual_fn, '__name__', residual_fn)} returned shape "
            f"{r.shape} on {len(xs)} states, expected ({len(xs)},)"
        )
    return r


def verify_set_persistence(
    system: SystemDefinition,
    residual_fn: Callable[[np.ndarray], np.ndarray],
    x0,
    t_end: float,
    *,
    quantity: ConservedQuantitySet | None = None,
    integ: IntegratorSettings = IntegratorSettings(),
    tolerances: Mapping[str, float] | None = None,
) -> InvarianceReport:
    """Certify that a nonnegative set-membership residual stays below the
    tolerance ``residual`` along the flow from ``x0``.

    ``residual_fn`` maps an ``(m, dim)`` stack to the ``(m,)`` distances
    from the set (zero means exact membership); any other result shape is
    a :class:`UsageError`.  Each sample's margin is ``tol / r`` inside the
    set and ``r / tol`` outside, as for :class:`SetMemberships`.  When
    ``quantity`` is supplied its drift is monitored as corroborating evidence.
    """
    tol = _tolerances(tolerances, ("residual",))["residual"]
    x0v = as_state(x0, system.dim)
    if quantity is not None and quantity.dim != system.dim:
        raise UsageError(f"quantity dimension {quantity.dim} != system dimension {system.dim}")
    r0 = float(_set_residuals(residual_fn, x0v[None, :])[0])
    if not r0 <= tol:  # a nan residual is no membership either
        return InvarianceReport(
            verdict=HYPOTHESIS_ERROR,
            message=f"start violates the set residual: {r0:.3e} is not within tol {tol:.1e}",
            worst_value=r0,
            threshold=tol,
        )

    def classify(traj):
        residuals = _set_residuals(residual_fn, traj.states)
        inside, margins = _margins(residuals, tol)
        worst = int(np.argmax(residuals))
        message = (
            f"max set residual {residuals[worst]:.3e} at t={traj.times[worst]:.4g} (tol {tol:.1e})"
        )
        return residuals, inside, margins, worst, message

    traj, broken = _flow(system, x0v, t_end, integ, PREMISE_TOL)
    return _certify(system, traj, classify, quantity, broken=broken, threshold=tol)
