"""Flow coincidence for gradient-driven systems.

Two systems x' = f(x, D F(x)) and x' = f(x, D G(x)) share the same base
map f but are driven by the gradients of different quantities.  When
F - G is conserved by the first system and the gradients of F and G agree
at a start point, the two flows from that point coincide for all time.
This module assembles such systems, measures gradient agreement, and
certifies coincidence on two flows: the driven fields integrated, or exact
flows the systems declare, checked against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .core import (
    ConservedQuantitySet,
    SystemDefinition,
    _all_finite,
    _finite_field_rows,
    _state_scales,
    _tolerances,
    as_state,
    as_states,
)
from .differentiate import _check_order, _jacobian_stack
from .errors import IntegrationError, NumericError, UsageError
from .integrate import IntegratorSettings, Trajectory, _declared_flow, flow_adaptive
from .invariance import HYPOTHESIS_ERROR, InvarianceReport, _certify
from .rank_sets import _margins


@dataclass(frozen=True)
class GradientDrivenSystem:
    """A system assembled as x' = base(x, gradients-of-quantity)."""

    quantity: ConservedQuantitySet
    system: SystemDefinition

    def fields(self, states) -> np.ndarray:
        """The driven field on a validated ``(m, dim)`` stack of states,
        through ``system``'s field (see :func:`assemble_system`)."""
        return self.system.fields(as_states(states, self.quantity.dim))


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


def _flow(closed: SystemDefinition | None, driven: SystemDefinition, x0, t_end, integ) -> Trajectory:
    """The flow of ``driven`` from ``x0``: ``closed``'s declared ``flow``
    where that covers ``x0``, else ``driven`` integrated."""
    if closed is not None and closed.flow is not None:
        traj = _declared_flow(closed, x0, t_end, integ)
        if traj is not None:
            return traj
    return flow_adaptive(driven, x0, t_end, integ=integ)


_DELTA = 1e-3  # the premise's time step, in units of the flow's local time scale


def _row_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of an ``(m, n)`` stack, finite wherever the row's entries are: a
    row whose squares overflow is first scaled by the power of two of its largest entry, which is exact."""
    norms = np.linalg.norm(a, axis=1)
    big = np.flatnonzero(np.isinf(norms))
    if big.size:
        _, e = np.frexp(np.abs(a[big]).max(axis=1))
        norms[big] = np.ldexp(np.linalg.norm(np.ldexp(a[big], -e[:, None]), axis=1), e)
    return norms


def _premise_failure(name, closed, driven: GradientDrivenSystem, traj: Trajectory, tol: float, rows=None) -> str | None:
    """Why the flow ``traj`` declared by ``closed`` leaves the ``driven``
    field's rows (``rows`` when given) at some sample, or None, as for an
    integrated flow: its velocity, the fourth-order centred time difference
    from one call on the four shifted grids, must be within ``tol`` relative
    to max(1, |row|).  The step at sample i is ``_DELTA`` |x_i| / |row_i| (or
    ``_DELTA``): r^(3/2) on a Kepler orbit, where one periapsis step read the
    rounding at apoapsis over 1e-8 at e = 0.99, and a^3 on the rotation."""
    xs, times = traj.states, traj.times
    if traj.stats.method != "declared-flow":
        return None
    rows = driven.fields(xs) if rows is None else rows
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norms = _row_norms(rows)
        scale = _row_norms(xs) / norms
        delta = _DELTA * np.where((0 < scale) & (scale < np.inf), scale, 1.0)
        shifted = closed.flow(xs[0], (times + delta * np.array([[2.0], [1.0], [-1.0], [-2.0]])).ravel())
        p2, p1, m1, m2 = (np.nan,) * 4 if shifted is None else np.reshape(shifted, (4, *xs.shape))
        velocity = (8 * (p1 - m1) - (p2 - m2)) / (12 * delta[:, None])
        residual = _row_norms(velocity - rows) / np.maximum(1.0, norms)
    off = ~(residual <= tol)
    if not off.any():
        return None
    i = int(np.argmax(off))
    return (f"the declared flow of the {name}-driven flow differs from its driven field at sample {i} "
            f"(t={times[i]:.6g}, residual {residual[i]:.3e})")


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
    closed_forms: tuple[SystemDefinition, SystemDefinition] | None = None,
    integ: IntegratorSettings = IntegratorSettings(),
    tolerances: Mapping[str, float] | None = None,
) -> InvarianceReport:
    """Certify that the F- and G-driven flows from ``x0`` coincide.

    Hypotheses checked first: the gradients of F and G agree at ``x0``,
    and F - G is conserved along the F-driven flow (its rate
    ``(J_F - J_G) . f`` on every sample), each within the tolerance
    ``hypothesis`` relative to ``max(1, |x|)``.  The verdict is
    the rule every verifier shares (:func:`invariance._certify`): a sample
    is inside when the flows are at most ``deviation`` apart there, with
    margin ``tol / d`` inside and ``d / tol`` outside.  ``batched`` is
    ``base``'s declaration, as in :func:`assemble_system`.  The report's
    ``trajectory`` is the F-driven flow and ``sample_values`` the distances
    of the G-driven flow from it, the largest ``worst_value`` at
    ``worst_time``, kept when a premise fails (inf when an off-set start's
    flow fails), beside ``agreement_residual`` and ``difference_drift``.

    ``closed_forms`` are two systems standing for the F- and G-driven fields
    (for Kepler: the model's field and :func:`kepler.linear_pair_field`),
    whose fields are not called.  A flow whose system declares a ``flow``
    covering ``x0`` is that map's states, and any other is the driven system
    integrated.  A declared flow's velocity must equal the driven field's
    rows on every sample, by value (:func:`_premise_failure`; for F the stack
    the F - G scan evaluates anyway), or the verdict is a hypothesis error
    naming the flow and the sample.
    """
    tol = _tolerances(tolerances, ("deviation", "hypothesis"))
    x0v = as_state(x0, f_quantity.dim)
    e_res = agreement_residual(f_quantity, g_quantity, x0v)
    bound = tol["hypothesis"] * float(_state_scales(x0v))
    on_set = e_res <= bound < np.inf
    overflows = f": {tol['hypothesis']:.1e} * |x| overflows"  # worded as the rank premise's
    off_set = f"start is off the agreement set (residual {e_res:.3e})"
    if bound == np.inf:
        off_set = "the agreement premise has no finite tolerance at the start" + overflows

    sys_f = assemble_system(base, f_quantity, label="driven-F", batched=batched)
    sys_g = assemble_system(base, g_quantity, label="driven-G", batched=batched)
    closed_f, closed_g = closed_forms or (None, None)
    try:
        traj_f = _flow(closed_f, sys_f.system, x0v, t_end, integ)
        traj_g = _flow(closed_g, sys_g.system, x0v, t_end, integ)
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
    J_f = _jacobian_stack(f_quantity, states)
    fields_f = _driven_rows(base, sys_f.system.label, batched, states, J_f.reshape(len(states), -1))
    J = J_f - _jacobian_stack(g_quantity, states)
    rates = (J * fields_f[:, None, :]).sum(axis=2)
    scales = _state_scales(states)
    # as at the start, a state whose norm overflows fails the premise
    finite_scales = _all_finite(scales)
    drift = float(np.max(np.abs(rates).max(axis=1) / scales)) if finite_scales else np.inf

    reasons = [reason for reason in (
        _premise_failure("F", closed_f, sys_f, traj_f, tol["hypothesis"], fields_f),
        _premise_failure("G", closed_g, sys_g, traj_g, tol["hypothesis"]),
    ) if reason]
    if not on_set:
        reasons.append(off_set)
    if not drift <= tol["hypothesis"]:
        reasons.append(f"F-G is not conserved along the first flow (residual {drift:.3e})" if finite_scales
                       else "F-G has no finite tolerance along the first flow" + overflows)

    def classify(traj):
        with np.errstate(over="ignore"):
            deviations = np.linalg.norm(traj.states - traj_g.states, axis=1)
        inside, margins = _margins(deviations, tol["deviation"])
        worst = int(np.argmax(deviations))
        max_dev = deviations[worst]
        if max_dev <= tol["deviation"]:
            message = f"flows coincide: max deviation {max_dev:.3e}"
        else:
            message = f"flows deviate by {max_dev:.3e} > tol {tol['deviation']:.1e}"
        return deviations, inside, margins, worst, message

    return _certify(
        sys_f.system, traj_f, classify, None, fields_f[0], "; ".join(reasons) or None,
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
