"""Flow coincidence for gradient-driven systems.

Two systems x' = f(x, D F(x)) and x' = f(x, D G(x)) share the same base
map f but are driven by the derivative stacks of different quantities.
When F - G is conserved by the first system and the stacks of F and G
agree at a start point up to the driving order, the two flows from that
point coincide for all time.  This module assembles such systems, measures
stack agreement, and certifies coincidence on two flows: through the driven
fields, or closed forms checked against them (exp(t L) x0 for a linear one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .core import (
    ConservedQuantitySet,
    SystemDefinition,
    _all_finite,
    _conservation_rates,
    _finite_field_rows,
    _state_scales,
    _tolerances,
    as_state,
    as_states,
)
from .differentiate import _check_order, _flat_block, _jacobian_stack, _partial_stack
from .errors import IntegrationError, NumericError, UsageError
from .integrate import IntegratorSettings, Trajectory, _linear_flow, flow_adaptive
from .invariance import FAIL, HYPOTHESIS_ERROR, PASS, InvarianceReport


def _derivative_blocks(
    quantity: ConservedQuantitySet, xs: np.ndarray, order: int
) -> list[np.ndarray]:
    """Blocks of orders 1..``order`` on a validated ``(m, dim)`` stack,
    block l of shape ``(m, k * dim**l)``, from one stacked partial builder.

    A row of block l holds all order-l partials of the k components in
    lexicographic (component, multi-index) order, the multi-index running
    over the full product {0..dim-1}^l (symmetric repeats included), as
    ``_flat_block`` lays them out; the flat stack ``base`` receives is the
    blocks concatenated in order.  An order-1 stack is the Jacobian
    reshaped, without ``_partial_stack``'s per-coordinate entries: 10-18
    against 20-27 us for H on 1 to 401 states (timeit, best of 9, 2-core VM).
    """
    if order == 1:
        _check_order(quantity, order)
        return [_jacobian_stack(quantity, xs).reshape(len(xs), -1)]
    entries = _partial_stack(quantity, xs, order)
    return [_flat_block(entries, quantity.k, quantity.dim, l) for l in range(1, order + 1)]


@dataclass(frozen=True)
class GradientDrivenSystem:
    """A system assembled as x' = base(x, stack-of-derivatives-of-quantity)."""

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


def assemble_system(
    base: Callable[[np.ndarray, np.ndarray], np.ndarray],
    quantity: ConservedQuantitySet,
    order: int = 1,
    label: str = "",
    batched: bool = False,
) -> GradientDrivenSystem:
    """Close a base map over the derivative stack of a driving quantity.

    ``base(x, stack)`` receives the flat stack (for a scalar quantity at
    order 1 this is just the gradient).  ``batched`` declares, as for
    :class:`SystemDefinition`, that ``base`` also maps ``(m, dim)`` states
    and their ``(m, width)`` flat stacks to ``(m, dim)``, row for row bit
    for bit, so a stack makes one ``base`` call, not one per row.  The
    field is ``batched``: a stack makes one stacked derivative evaluation,
    and a single state is a stack of one, so ``base`` sees a declared
    ``(1, dim)`` stack or an undeclared ``(dim,)`` row.  The field takes a
    non-finite state as a :class:`NumericError` and a wrong shape as a
    :class:`UsageError`.
    """
    if order < 1:
        raise UsageError(f"driving order must be >= 1, got {order}")
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
        blocks = _derivative_blocks(quantity, xs, order)
        flat = blocks[0] if order == 1 else np.concatenate(blocks, axis=1)
        if not batched:
            rows = [np.asarray(base(x, g), dtype=float) for x, g in zip(xs, flat)]
            return _checked_rows(label, dim, rows).reshape(xv.shape)
        out = np.asarray(base(xs, flat), dtype=float)
        if out.shape == xs.shape and _all_finite(out):
            return out.reshape(xv.shape)
        if out.ndim < 2 or len(out) != len(xs):
            raise UsageError(f"field of '{label}' returned shape {out.shape}, expected {xs.shape}")
        return _checked_rows(label, dim, out)  # raises as the rows one by one would

    system = SystemDefinition(dim=quantity.dim, field=field, label=label, batched=True)
    return GradientDrivenSystem(quantity=quantity, system=system)


def _closed_form_system(closed: SystemDefinition, driven: SystemDefinition) -> SystemDefinition:
    """``closed``'s field in place of ``driven``'s, which it must equal bit
    for bit, under ``driven``'s label, on a state or a stack alike.

    Where ``closed`` raises a :class:`NumericError` or gives a non-finite
    row, ``driven`` answers instead, with its own row or its own error, so
    a flow that fails stops where the driven flow stops, with the same
    message.  No state is tested: a closed form that reads every component
    gives a non-finite row at a non-finite state.  A state's row is tested
    as one sum of Python floats, a stack with one numpy count: 1.26 against
    1.41 us per Kepler point call, and 15 against 45 us on 401 samples
    (timeit, best of 9, shared 2-core x86-64 VM).  The system is
    ``batched`` as ``closed`` is, so a point-only closed form is called
    once per state.  :func:`_flow` integrates through it only a flow whose
    stepper met a non-finite value or a failing field; the sample checks
    always use it.
    """
    if closed.dim != driven.dim:
        raise UsageError(f"closed form '{closed.label}' has dimension {closed.dim}, expected {driven.dim}")
    fast, slow = closed.field, driven.field

    def field(x):
        try:
            rows = np.asarray(fast(x), dtype=float)
        except NumericError:
            return slow(x)
        finite = rows.ndim == 1 and math.isfinite(sum(rows.tolist()))  # a state's row, as floats
        if finite or _all_finite(rows) or rows.shape != x.shape:
            return rows  # a wrong shape is the caller's UsageError
        return np.where(np.isfinite(rows).all(axis=-1, keepdims=True), rows, slow(x))

    return SystemDefinition(dim=driven.dim, field=field, label=driven.label, batched=closed.batched)


def _flow(closed: SystemDefinition | None, driven: SystemDefinition, x0, t_end, integ) -> Trajectory:
    """The flow of ``driven`` from ``x0``: exp(t L) x0 if its closed form
    ``closed`` declares a ``matrix`` L, else through ``closed`` when given,
    under ``driven``'s label with no hand-off, and the flow through
    :func:`_closed_form_system` in every bit.  The hand-off acts only on a
    :class:`NumericError` or a non-finite row, which the stepper fails on
    and counts: a flow with a count (``nonfinite_attempts``), or failed in a
    field evaluation or at a non-finite sample, is integrated again through
    it; a step underflow or a spent budget with no count fails it too."""
    if closed is None:
        return flow_adaptive(driven, x0, t_end, integ=integ)
    if closed.matrix is not None:
        return _linear_flow(closed, x0, t_end, integ)
    try:
        traj = flow_adaptive(replace(closed, label=driven.label), x0, t_end, integ=integ)
        if not traj.stats.nonfinite_attempts:
            return traj
    except IntegrationError as exc:
        if exc.nonfinite_attempts == 0:
            raise
    return flow_adaptive(_closed_form_system(closed, driven), x0, t_end, integ=integ)


def _sample_mismatch(name: str, closed: SystemDefinition, flow: SystemDefinition, driven_rows, traj) -> str | None:
    """Why ``closed``, through its hand-off ``flow``, differs on the samples
    ``xs`` of ``traj`` in some bit from the driven rows, or from its declared
    ``matrix`` L by more than two dot roundings, 2 dim eps (|xs| @ |L|.T)."""
    xs, rows = traj.states, flow.fields(traj.states)
    differs = (rows.view(np.int64) != driven_rows.view(np.int64)).any(axis=1)
    what = "its driven field"
    if not differs.any() and (L := closed.matrix) is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            bound = 2 * len(L) * np.finfo(float).eps * (np.abs(xs) @ np.abs(L).T)
            differs = ~(np.abs(rows - xs @ L.T) <= bound).all(axis=1)
        what = "its declared matrix"
    if not differs.any():
        return None
    i = int(np.argmax(differs))
    return f"the closed form of the {name}-driven flow differs from {what} at sample {i} (t={traj.times[i]:.6g})"


def agreement_residual(
    f_quantity: ConservedQuantitySet,
    g_quantity: ConservedQuantitySet,
    x,
    order: int = 1,
) -> float:
    """max |d^alpha F_i(x) - d^alpha G_i(x)| over all orders 1..order.

    Zero (below tolerance) means ``x`` lies in the order-``order``
    agreement set of the two quantities.
    """
    if (f_quantity.dim, f_quantity.k) != (g_quantity.dim, g_quantity.k):
        raise UsageError(
            f"quantities have mismatched shape: ({f_quantity.k}, {f_quantity.dim}) vs "
            f"({g_quantity.k}, {g_quantity.dim})"
        )
    xs = as_state(x, f_quantity.dim)[None, :]
    pairs = zip(_derivative_blocks(f_quantity, xs, order), _derivative_blocks(g_quantity, xs, order))
    with np.errstate(over="ignore"):  # a difference that overflows is an inf residual: off the set
        return float(np.max([np.abs(f - g).max() for f, g in pairs]))


def _difference_quantity(
    f_quantity: ConservedQuantitySet, g_quantity: ConservedQuantitySet
) -> ConservedQuantitySet:
    grad = None
    if f_quantity.analytic_gradient is not None and g_quantity.analytic_gradient is not None:

        def grad(x):
            return np.asarray(f_quantity.analytic_gradient(x), float) - np.asarray(
                g_quantity.analytic_gradient(x), float
            )

    return ConservedQuantitySet(
        dim=f_quantity.dim,
        k=f_quantity.k,
        value=lambda x: np.atleast_1d(np.asarray(f_quantity.value(x), float))
        - np.atleast_1d(np.asarray(g_quantity.value(x), float)),
        labels=tuple(f"{a}-{b}" for a, b in zip(f_quantity.labels, g_quantity.labels)),
        analytic_gradient=grad,
        smoothness_order=min(f_quantity.smoothness_order, g_quantity.smoothness_order),
        batched=f_quantity.batched and g_quantity.batched,
    )


def verify_coincidence(
    base: Callable[[np.ndarray, np.ndarray], np.ndarray],
    f_quantity: ConservedQuantitySet,
    g_quantity: ConservedQuantitySet,
    x0,
    t_end: float,
    *,
    order: int = 1,
    batched: bool = False,
    closed_forms: tuple[SystemDefinition, SystemDefinition] | None = None,
    integ: IntegratorSettings = IntegratorSettings(),
    tolerances: Mapping[str, float] | None = None,
) -> InvarianceReport:
    """Integrate both driven systems from ``x0`` and compare trajectories.

    Hypotheses checked first: the derivative stacks of F and G agree at
    ``x0`` up to ``order``, and F - G is conserved along the F-driven flow
    (sampled), each within the tolerance ``hypothesis`` relative to
    ``max(1, |x|)``.  When they fail the verdict is a hypothesis error and
    the measured deviation is recorded as a diagnostic; otherwise the flows
    coincide when they are at most ``deviation`` apart.  ``batched`` is
    ``base``'s declaration, as in :func:`assemble_system`.  The report's
    ``trajectory`` is the F-driven flow, ``worst_value`` and ``worst_time``
    the largest deviation of the G-driven flow from it (inf when an
    off-set start's flow fails), beside ``agreement_residual`` and
    ``difference_drift``.

    ``closed_forms`` are two systems whose fields equal the F- and
    G-driven fields bit for bit (for Kepler: the model's field and
    :func:`kepler.linear_pair_field`).  A flow whose closed form declares
    its ``matrix`` L is exp(t L) x0, not integrated; the others are
    integrated through their closed forms directly, and again through the
    hand-off below only where the stepper counts a non-finite value
    (``IntegratorStats.nonfinite_attempts``) or fails in a field evaluation
    or at a non-finite sample, so for them the report is the same in every
    bit.  The premises are checked once, on the stack of each flow's
    samples, whose sample 0 is ``x0``: each closed form must give its
    driven field's rows there in every bit (for F the stack the F - G scan
    evaluates anyway), and ``xs @ L.T`` to two dot-product roundings where
    it declares L.  A difference is a hypothesis error naming the flow and
    the sample.  A state where a closed form gives no row, or a non-finite
    one, goes to the driven field, so a failing flow stops where the driven
    flow stops; a closed form must give a non-finite row at a non-finite state.
    """
    tol = _tolerances(tolerances, ("deviation", "hypothesis"))
    x0v = as_state(x0, f_quantity.dim)
    e_res = agreement_residual(f_quantity, g_quantity, x0v, order)
    bound = tol["hypothesis"] * float(_state_scales(x0v))
    on_set = e_res <= bound < np.inf
    overflows = f": {tol['hypothesis']:.1e} * |x| overflows"  # worded as the rank premise's
    off_set = f"start is off the agreement set (residual {e_res:.3e})"
    if bound == np.inf:
        off_set = "the agreement premise has no finite tolerance at the start" + overflows

    sys_f = assemble_system(base, f_quantity, order, label="driven-F", batched=batched)
    sys_g = assemble_system(base, g_quantity, order, label="driven-G", batched=batched)
    closed_f, closed_g = closed_forms or (None, None)
    if closed_forms is not None:  # the hand-off systems, which the samples are checked through
        flow_f = _closed_form_system(closed_f, sys_f.system)
        flow_g = _closed_form_system(closed_g, sys_g.system)
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

    # d/dt (F - G) along the first flow at every sample
    states = traj_f.states
    fields_f = sys_f.fields(states)
    rates = _conservation_rates(_difference_quantity(f_quantity, g_quantity), states, fields_f)
    scales = _state_scales(states)
    with np.errstate(over="ignore"):
        deviations = np.linalg.norm(traj_f.states - traj_g.states, axis=1)
    # as at the start, a state whose norm overflows fails the premise
    finite_scales = _all_finite(scales)
    drift = float(np.max(np.abs(rates).max(axis=1) / scales)) if finite_scales else np.inf
    conserved = drift <= tol["hypothesis"]

    worst_idx = int(np.argmax(deviations))
    max_dev = float(deviations[worst_idx])

    reasons = []
    if closed_forms is not None:
        reasons += filter(None, (
            _sample_mismatch("F", closed_f, flow_f, fields_f, traj_f),
            _sample_mismatch("G", closed_g, flow_g, sys_g.fields(traj_g.states), traj_g),
        ))
    if not on_set:
        reasons.append(off_set)
    if not conserved:
        reasons.append(f"F-G is not conserved along the first flow (residual {drift:.3e})" if finite_scales
                       else "F-G has no finite tolerance along the first flow" + overflows)
    if reasons:
        verdict, message = HYPOTHESIS_ERROR, "; ".join(reasons)
    elif max_dev <= tol["deviation"]:
        verdict, message = PASS, f"flows coincide: max deviation {max_dev:.3e}"
    else:
        verdict, message = FAIL, f"flows deviate by {max_dev:.3e} > tol {tol['deviation']:.1e}"

    return InvarianceReport(
        verdict=verdict,
        message=message,
        trajectory=traj_f,
        worst_time=float(traj_f.times[worst_idx]),
        worst_value=max_dev,
        agreement_residual=e_res,
        difference_drift=drift,
    )


def canonical_symplectic_matrix(dof: int) -> np.ndarray:
    """The constant block matrix [[0, I], [-I, 0]] on R^(2*dof)."""
    if dof < 1:
        raise UsageError(f"degrees of freedom must be >= 1, got {dof}")
    J = np.zeros((2 * dof, 2 * dof))
    J[:dof, dof:] = np.eye(dof)
    J[dof:, :dof] = -np.eye(dof)
    return J
