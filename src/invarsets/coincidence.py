"""Flow coincidence for gradient-driven systems.

Two systems x' = f(x, D F(x)) and x' = f(x, D G(x)) share the same base
map f but are driven by the gradients of different quantities.  When
F - G is conserved by the first system and the gradients of F and G agree
at a start point, the two flows from that point coincide for all time.
This module assembles such systems, measures gradient agreement, and
certifies coincidence on two flows: the driven fields integrated, or exact
flow maps the caller gives for them, each checked against its driven field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .core import (
    PREMISE_TOL,
    ConservedQuantitySet,
    SystemDefinition,
    _all_finite,
    _finite_field_rows,
    _rates,
    _state_scales,
    _tolerances,
    as_state,
)
from .differentiate import _check_order, _jacobian_stack
from .errors import IntegrationError, NumericError, UsageError
from .integrate import IntegratorSettings, _flow
from .invariance import HYPOTHESIS_ERROR, InvarianceReport, _certify
from .rank_sets import _margins


@dataclass(frozen=True)
class GradientDrivenSystem:
    """A system assembled as x' = base(x, gradients-of-quantity)."""

    quantity: ConservedQuantitySet
    system: SystemDefinition


def _checked_rows(label, dim, rows) -> np.ndarray:
    """``base``'s rows stacked to ``(m, dim)``, checked as :func:`evaluate_field` does."""
    for row, r in enumerate(rows):
        if r.shape != (dim,):
            raise UsageError(
                f"field of '{label}' returned shape {r.shape} at state {row} "
                f"of {len(rows)}, expected ({dim},)"
            )
    return _finite_field_rows(label, np.array(rows))


def _driven_rows(base, label: str, batched: bool, xs: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """``base``'s rows on the ``(m, dim)`` stack ``xs`` and its flat
    Jacobians ``flat``: one call if ``batched``, else one per row, checked as
    :func:`evaluate_field` does."""
    if not batched:
        rows = [np.asarray(base(x, g), dtype=float) for x, g in zip(xs, flat)]
        return _checked_rows(label, xs.shape[1], rows)
    out = np.asarray(base(xs, flat), dtype=float)
    if out.shape == xs.shape and _all_finite(out):
        return out
    if out.ndim < 2 or len(out) != len(xs):
        raise UsageError(f"field of '{label}' returned shape {out.shape}, expected {xs.shape}")
    return _checked_rows(label, xs.shape[1], out)  # raises as the rows one by one would


def assemble_system(
    base: Callable[[np.ndarray, np.ndarray], np.ndarray],
    quantity: ConservedQuantitySet,
    *,
    label: str = "",
    batched: bool = False,
) -> GradientDrivenSystem:
    """Close a base map over the gradients of a driving quantity.

    ``base(x, g)`` receives the quantity's Jacobian at ``x`` flat, its k
    gradients one after another (for a scalar quantity just the gradient).
    ``batched`` declares, as for :class:`SystemDefinition`, that ``base``
    also maps ``(m, dim)`` states and their ``(m, k * dim)`` flat Jacobians
    to ``(m, dim)``, row for row bit for bit, so a stack makes one ``base``
    call, not one per row.  The field is ``batched``: a stack makes one
    stacked Jacobian evaluation, and a single state is a stack of one, so
    ``base`` sees a declared ``(1, dim)`` stack or an undeclared ``(dim,)``
    row.  The field takes a non-finite state as a :class:`NumericError` and
    a wrong shape as a :class:`UsageError`; a quantity on more than
    ``MAX_PARTIALS`` coordinates is refused here.  ``label`` and
    ``batched`` are keyword-only, so a third positional argument (the
    driving order of earlier releases) is a ``TypeError``.
    """
    _check_order(quantity, 1)
    label = label or f"driven[{'/'.join(quantity.labels)}]"
    dim = quantity.dim

    def field(x):
        xv = np.asarray(x, dtype=float)
        if xv.shape[-1:] != (dim,):
            as_state(xv, dim)  # raises the shape's UsageError
        if not _all_finite(xv):
            # the stepper's trial stages overflow on far-out starts: a
            # non-finite state is a numeric failure, not a bad argument
            raise NumericError(f"field of '{label}' evaluated at a non-finite state")
        xs = xv.reshape(-1, dim)
        flat = _jacobian_stack(quantity, xs).reshape(len(xs), -1)
        return _driven_rows(base, label, batched, xs, flat).reshape(xv.shape)

    system = SystemDefinition(dim=quantity.dim, field=field, label=label, batched=True)
    return GradientDrivenSystem(quantity=quantity, system=system)


def agreement_residual(
    f_quantity: ConservedQuantitySet,
    g_quantity: ConservedQuantitySet,
    x,
) -> float:
    """max |d_j F_i(x) - d_j G_i(x)|, the largest entry of J_F - J_G at ``x``.

    Zero (below tolerance) means ``x`` lies in the agreement set of the two
    quantities.
    """
    if (f_quantity.dim, f_quantity.k) != (g_quantity.dim, g_quantity.k):
        raise UsageError(
            f"quantities have mismatched shape: ({f_quantity.k}, {f_quantity.dim}) vs "
            f"({g_quantity.k}, {g_quantity.dim})"
        )
    xs = as_state(x, f_quantity.dim)[None, :]
    _check_order(f_quantity, 1)
    J_f, J_g = (_jacobian_stack(q, xs) for q in (f_quantity, g_quantity))
    with np.errstate(over="ignore"):  # a difference that overflows is an inf residual: off the set
        return float(np.abs(J_f - J_g).max())


def verify_coincidence(
    base: Callable[[np.ndarray, np.ndarray], np.ndarray],
    f_quantity: ConservedQuantitySet,
    g_quantity: ConservedQuantitySet,
    x0,
    t_end: float,
    *,
    batched: bool = False,
    flows: tuple[Callable | None, Callable | None] = (None, None),
    integ: IntegratorSettings = IntegratorSettings(),
    tolerances: Mapping[str, float] | None = None,
) -> InvarianceReport:
    """Certify that the F- and G-driven flows from ``x0`` coincide.

    Hypotheses checked first: the gradients of F and G agree at ``x0``,
    and F - G is conserved along the F-driven flow (its rate
    ``(J_F - J_G) . f`` on every sample), each within ``core.PREMISE_TOL``
    relative to ``max(1, |x|)``.  The verdict is the rule every verifier
    shares (:func:`invariance._certify`): a sample is inside when the flows
    are at most ``deviation`` apart there (the one tolerance ``tolerances``
    may set), with margin ``tol / d`` inside and ``d / tol`` outside.
    ``batched`` is ``base``'s declaration, as in :func:`assemble_system`.
    The report's ``trajectory`` is the F-driven flow and ``sample_values``
    the distances of the G-driven flow from it, the largest ``worst_value``
    at ``worst_time``, kept when a premise fails (inf when an off-set
    start's flow fails), beside ``agreement_residual`` and
    ``difference_drift``.

    ``flows`` are exact flow maps for the F- and G-driven fields, each a
    ``SystemDefinition.flow`` or None (for Kepler: :func:`kepler.kepler_flow`
    and :func:`kepler.linear_pair_flow`).  Each is declared on its driven
    system, and a flow is that map's states where it covers ``x0``, else the
    driven system integrated (:func:`integrate._flow`).  A map's velocity
    must equal the driven field's rows on every sample, by value and within
    the same tolerance (for F the stack the F - G scan evaluates anyway), or
    the verdict is a hypothesis error naming the flow and the sample.
    """
    deviation = _tolerances(tolerances, ("deviation",))["deviation"]
    x0v = as_state(x0, f_quantity.dim)
    e_res = agreement_residual(f_quantity, g_quantity, x0v)
    bound = PREMISE_TOL * float(_state_scales(x0v))
    on_set = e_res <= bound < np.inf
    overflows = f": {PREMISE_TOL:.1e} * |x| overflows"  # worded as the rank premise's
    off_set = f"start is off the agreement set (residual {e_res:.3e})"
    if bound == np.inf:
        off_set = "the agreement premise has no finite tolerance at the start" + overflows

    flow_f, flow_g = flows
    sys_f = replace(assemble_system(base, f_quantity, label="driven-F", batched=batched).system, flow=flow_f)
    sys_g = replace(assemble_system(base, g_quantity, label="driven-G", batched=batched).system, flow=flow_g)
    scanned = []  # J_F and the F-driven rows on the F flow's samples, for its premise and the scan

    def rows_f(states):
        J_f = _jacobian_stack(f_quantity, states)
        scanned[:] = J_f, _driven_rows(base, sys_f.label, batched, states, J_f.reshape(len(states), -1))
        return scanned[1]

    try:
        traj_f, broken_f = _flow(
            sys_f, x0v, t_end, integ, PREMISE_TOL, rows_f, ("the F-driven flow", "driven field"))
        traj_g, broken_g = _flow(
            sys_g, x0v, t_end, integ, PREMISE_TOL, names=("the G-driven flow", "driven field"))
    except IntegrationError as exc:
        if not on_set:
            # the start violates the agreement hypothesis and one flow left
            # the integrable region; report the violation, not the blowup
            return InvarianceReport(
                verdict=HYPOTHESIS_ERROR,
                message=f"{off_set}; integration additionally failed: {exc}",
                worst_value=float("inf"),
                agreement_residual=e_res,
            )
        raise

    # d/dt (F - G) = (J_F - J_G) . f along the first flow at every sample, J_F feeding the driven rows too
    states = traj_f.states
    if not scanned:  # an integrated F flow has no premise that read them
        rows_f(states)
    J_f, fields_f = scanned
    J = J_f - _jacobian_stack(g_quantity, states)
    rates = _rates(J, fields_f)
    scales = _state_scales(states)
    # as at the start, a state whose norm overflows fails the premise
    finite_scales = _all_finite(scales)
    drift = float(np.max(np.abs(rates).max(axis=1) / scales)) if finite_scales else np.inf

    reasons = [reason for reason in (broken_f, broken_g) if reason]
    if not on_set:
        reasons.append(off_set)
    if not drift <= PREMISE_TOL:
        reasons.append(f"F-G is not conserved along the first flow (residual {drift:.3e})" if finite_scales
                       else "F-G has no finite tolerance along the first flow" + overflows)

    def classify(traj):
        with np.errstate(over="ignore"):
            deviations = np.linalg.norm(traj.states - traj_g.states, axis=1)
        inside, margins = _margins(deviations, deviation)
        worst = int(np.argmax(deviations))
        max_dev = deviations[worst]
        if max_dev <= deviation:
            message = f"flows coincide: max deviation {max_dev:.3e}"
        else:
            message = f"flows deviate by {max_dev:.3e} > tol {deviation:.1e}"
        return deviations, inside, margins, worst, message

    return _certify(
        sys_f, traj_f, classify, None, fields_f[0], "; ".join(reasons) or None,
        agreement_residual=e_res, difference_drift=drift,
    )


def canonical_symplectic_matrix(dof: int) -> np.ndarray:
    """The constant block matrix [[0, I], [-I, 0]] on R^(2*dof)."""
    if dof < 1:
        raise UsageError(f"degrees of freedom must be >= 1, got {dof}")
    J = np.zeros((2 * dof, 2 * dof))
    J[:dof, dof:] = np.eye(dof)
    J[dof:, :dof] = -np.eye(dof)
    return J
