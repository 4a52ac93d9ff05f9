"""Flow coincidence for gradient-driven systems.

Two systems x' = f(x, D F(x)) and x' = f(x, D G(x)) share the same base
map f but are driven by the derivative stacks of different quantities.
When F - G is conserved by the first system and the stacks of F and G
agree at a start point up to the driving order, the two flows from that
point coincide for all time.  This module assembles such systems, measures
stack agreement, and certifies coincidence by dual integration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ConservedQuantitySet,
    SystemDefinition,
    _all_finite,
    as_state,
    as_states,
)
from .differentiate import _jacobian_stack, jacobians, partial_tensor
from .errors import IntegrationError, NumericError, UsageError
from .integrate import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DEFAULT_SAMPLE_COUNT,
    Trajectory,
    flow_adaptive,
)
from .invariance import FAIL, HYPOTHESIS_ERROR, PASS

DEFAULT_HYPOTHESIS_TOL = 1e-8
DEFAULT_DEVIATION_TOL = 1e-6


def _derivative_blocks(
    quantity: ConservedQuantitySet, xs: np.ndarray, order: int
) -> list[np.ndarray]:
    """Blocks of orders 1..``order`` on a validated ``(m, dim)`` stack,
    block l of shape ``(m, k * dim**l)``.

    A row of block l holds all order-l partials of the k components in
    lexicographic (component, multi-index) order, the multi-index running
    over the full product {0..dim-1}^l (symmetric repeats included); the
    flat stack ``base`` receives is the blocks concatenated in order.

    Where :func:`partial_tensor` would take the order-1 partials from the
    Jacobian rule (an analytic gradient, or no ``analytic_partial`` at
    all), an order-1 stack is the stacked Jacobian itself: its row-major
    flattening is ``flatten(1)``'s (component, alpha) order, bit for bit.
    Everything else goes through one partial tensor per state.
    """
    jacobian_rule = quantity.analytic_gradient is not None or quantity.analytic_partial is None
    if order == 1 and jacobian_rule and quantity.smoothness_order >= 1:
        return [_jacobian_stack(quantity, xs, None).reshape(len(xs), -1)]
    tensors = [partial_tensor(quantity, x, order) for x in xs]
    return [np.array([t.flatten(l) for t in tensors]) for l in range(1, order + 1)]


@dataclass(frozen=True)
class GradientDrivenSystem:
    """A system assembled as x' = base(x, stack-of-derivatives-of-quantity)."""

    base: Callable[[np.ndarray, np.ndarray], np.ndarray]
    quantity: ConservedQuantitySet
    order: int
    system: SystemDefinition

    def fields(self, states) -> np.ndarray:
        """The driven field on an ``(m, dim)`` stack of states.

        One stacked derivative evaluation, then ``base`` once per row.  A
        row of the wrong shape is a :class:`UsageError` and a non-finite
        entry a :class:`NumericError`, as in :func:`evaluate_field`, each
        naming the system and the row.
        """
        return _driven_fields(
            self.base, self.quantity, self.order, self.system.label, as_states(states, self.quantity.dim)
        )


def _driven_fields(base, quantity, order, label, xs) -> np.ndarray:
    blocks = _derivative_blocks(quantity, xs, order)
    flat = blocks[0] if order == 1 else np.concatenate(blocks, axis=1)
    rows = [np.asarray(base(x, g), dtype=float) for x, g in zip(xs, flat)]
    return _checked_rows(label, quantity.dim, rows)


def _checked_rows(label, dim, rows) -> np.ndarray:
    """``base``'s rows stacked to ``(m, dim)``, checked as :func:`evaluate_field` does."""
    for row, r in enumerate(rows):
        if r.shape != (dim,):
            raise UsageError(
                f"field of '{label}' returned shape {r.shape} at state {row} "
                f"of {len(rows)}, expected ({dim},)"
            )
    out = np.array(rows)
    if not _all_finite(out):
        row, col = (int(i) for i in np.argwhere(~np.isfinite(out))[0])
        raise NumericError(
            f"field of '{label}' produced a non-finite derivative in component {col} "
            f"at state {row} of {len(rows)}"
        )
    return out


def assemble_system(
    base: Callable[[np.ndarray, np.ndarray], np.ndarray],
    quantity: ConservedQuantitySet,
    order: int = 1,
    label: str = "",
) -> GradientDrivenSystem:
    """Close a base map over the derivative stack of a driving quantity.

    ``base(x, stack)`` receives the flat stack (for a scalar quantity at
    order 1 this is just the gradient).  At order 1 the point field calls
    an analytic gradient and ``base`` once each; every other rule is a
    batch of one through :meth:`GradientDrivenSystem.fields`, whose rows
    equal the point field's bit for bit.  The point field takes a
    non-finite state as a :class:`NumericError` and a wrong shape as a
    :class:`UsageError`.
    """
    if order < 1:
        raise UsageError(f"driving order must be >= 1, got {order}")
    label = label or f"driven[{'/'.join(quantity.labels)}]"
    dim = quantity.dim

    def point(x):
        # the stepper's trial stages overflow on far-out starts: a non-finite
        # state is a numeric failure, not a bad argument
        xv = np.asarray(x, dtype=float)
        if xv.shape != (dim,):
            as_state(xv, dim)  # raises the shape's UsageError
        if not _all_finite(xv):
            raise NumericError(f"field of '{label}' evaluated at a non-finite state")
        return xv

    if order == 1 and quantity.analytic_gradient is not None and quantity.smoothness_order >= 1:
        grad, shape = quantity.analytic_gradient, (quantity.k, dim)
        name = "/".join(quantity.labels)

        def field(x):
            xv = point(x)
            g = np.asarray(grad(xv), dtype=float)
            if g.shape != shape:
                raise UsageError(
                    f"analytic gradient of '{name}' returned shape {g.shape}, expected {shape}"
                )
            if not _all_finite(g):
                raise NumericError(f"analytic gradient of '{name}' is non-finite at state 0 of 1")
            row = np.asarray(base(xv, g.reshape(-1)), dtype=float)
            if row.shape == (dim,) and _all_finite(row):
                return row
            return _checked_rows(label, dim, [row])[0]  # raises with the stack path's message

    else:
        def field(x):
            return _driven_fields(base, quantity, order, label, point(x)[None, :])[0]

    system = SystemDefinition(dim=quantity.dim, field=field, label=label)
    return GradientDrivenSystem(base=base, quantity=quantity, order=order, system=system)


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
    xv = as_state(x, f_quantity.dim)
    tf = partial_tensor(f_quantity, xv, order)
    tg = partial_tensor(g_quantity, xv, order)
    worst = 0.0
    for alpha, vals in tf.entries.items():
        worst = max(worst, float(np.max(np.abs(vals - tg.entries[alpha]))))
    return worst


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


@dataclass(frozen=True)
class CoincidenceReport:
    """Evidence for one dual-flow coincidence check.

    Hypothesis evidence (`stack agreement at the start`, `conservation of
    F - G along the first flow`) is reported separately from the flow
    deviation so a hypothesis violation is never confused with a genuine
    counterexample.
    """

    verdict: str
    message: str
    e_residual: float
    difference_drift: float
    deviations: np.ndarray
    max_deviation: float
    max_deviation_time: float
    trajectory_f: Trajectory | None
    trajectory_g: Trajectory | None


def verify_coincidence(
    base: Callable[[np.ndarray, np.ndarray], np.ndarray],
    f_quantity: ConservedQuantitySet,
    g_quantity: ConservedQuantitySet,
    x0,
    t_end: float,
    order: int = 1,
    deviation_tol: float = DEFAULT_DEVIATION_TOL,
    hypothesis_tol: float = DEFAULT_HYPOTHESIS_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
) -> CoincidenceReport:
    """Integrate both driven systems from ``x0`` and compare trajectories.

    Hypotheses checked first: the derivative stacks of F and G agree at
    ``x0`` up to ``order``, and F - G is conserved along the F-driven flow
    (sampled).  When they fail the verdict is a hypothesis error and the
    measured deviation is recorded as a diagnostic.
    """
    x0v = as_state(x0, f_quantity.dim)
    e_res = agreement_residual(f_quantity, g_quantity, x0v, order)
    with np.errstate(over="ignore"):
        scale = max(1.0, float(np.linalg.norm(x0v)))
    # an overflowing norm gives no finite tolerance, so the premise fails
    on_set = e_res <= hypothesis_tol * scale < np.inf

    sys_f = assemble_system(base, f_quantity, order, label="driven-F")
    sys_g = assemble_system(base, g_quantity, order, label="driven-G")
    try:
        traj_f = flow_adaptive(sys_f.system, x0v, t_end, abs_tol, rel_tol, sample_count)
        traj_g = flow_adaptive(sys_g.system, x0v, t_end, abs_tol, rel_tol, sample_count)
    except IntegrationError as exc:
        if not on_set:
            # the start violates the agreement hypothesis and one flow left
            # the integrable region; report the violation, not the blowup
            return CoincidenceReport(
                verdict=HYPOTHESIS_ERROR,
                message=(
                    f"start is off the agreement set (residual {e_res:.3e}); "
                    f"integration additionally failed: {exc}"
                ),
                e_residual=e_res,
                difference_drift=float("nan"),
                deviations=np.array([]),
                max_deviation=float("inf"),
                max_deviation_time=float("nan"),
                trajectory_f=None,
                trajectory_g=None,
            )
        raise

    # d/dt (F - G) along the first flow at every sample, as in
    # core.conservation_residual: elementwise product, then a sum (no FMA)
    states = traj_f.states
    diff = _difference_quantity(f_quantity, g_quantity)
    rates = (jacobians(diff, states) * sys_f.fields(states)[:, None, :]).sum(axis=2)
    with np.errstate(over="ignore"):
        # sqrt of the row dot product is bit-identical to np.linalg.norm of a row
        scales = np.maximum(1.0, np.sqrt(np.vecdot(states, states)))
        deviations = np.linalg.norm(traj_f.states - traj_g.states, axis=1)
    # as at the start, a state whose norm overflows fails the premise
    drift = float(np.max(np.abs(rates).max(axis=1) / scales)) if _all_finite(scales) else np.inf
    conserved = drift <= hypothesis_tol

    worst_idx = int(np.argmax(deviations))
    max_dev = float(deviations[worst_idx])

    if not (on_set and conserved):
        reasons = []
        if not on_set:
            reasons.append(f"start is off the agreement set (residual {e_res:.3e})")
        if not conserved:
            reasons.append(f"F-G is not conserved along the first flow (residual {drift:.3e})")
        verdict, message = HYPOTHESIS_ERROR, "; ".join(reasons)
    elif max_dev <= deviation_tol:
        verdict, message = PASS, f"flows coincide: max deviation {max_dev:.3e}"
    else:
        verdict, message = FAIL, f"flows deviate by {max_dev:.3e} > tol {deviation_tol:.1e}"

    return CoincidenceReport(
        verdict=verdict,
        message=message,
        e_residual=e_res,
        difference_drift=drift,
        deviations=deviations,
        max_deviation=max_dev,
        max_deviation_time=float(traj_f.times[worst_idx]),
        trajectory_f=traj_f,
        trajectory_g=traj_g,
    )


def canonical_symplectic_matrix(dof: int) -> np.ndarray:
    """The constant block matrix [[0, I], [-I, 0]] on R^(2*dof)."""
    if dof < 1:
        raise UsageError(f"degrees of freedom must be >= 1, got {dof}")
    J = np.zeros((2 * dof, 2 * dof))
    J[:dof, dof:] = np.eye(dof)
    J[dof:, :dof] = -np.eye(dof)
    return J
