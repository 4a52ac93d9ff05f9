"""Core types: states, vector fields, and conserved quantities.

States are plain 1-D numpy float arrays, and a trajectory's samples are an
``(m, dim)`` stack of them.  A :class:`SystemDefinition` wraps an autonomous
right-hand side ``f`` of ``x' = f(x)`` together with its dimension, and a
:class:`ConservedQuantitySet` bundles a vector of scalar first integrals
with optional analytic derivative providers.  Quantities are evaluated on
whole stacks; a single state is a stack of one.

Everything here is immutable after construction and free of hidden state,
so all operations can be called concurrently without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, UsageError

Array = np.ndarray


def _all_finite(a: Array) -> bool:
    """``np.isfinite(a).all()``, at about half the cost on small arrays: the
    count skips the Python wrapper of ``ndarray.all``."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def as_state(x, dim: int | None = None) -> Array:
    """Coerce ``x`` to a finite 1-D float vector, optionally of length ``dim``."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise UsageError(f"state must be a non-empty 1-D vector, got shape {arr.shape}")
    if not _all_finite(arr):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise UsageError(f"state has a non-finite entry at component {bad}")
    if dim is not None and arr.size != dim:
        raise UsageError(f"state has dimension {arr.size}, expected {dim}")
    return arr


def as_states(xs, dim: int) -> Array:
    """Coerce ``xs`` to a finite ``(m, dim)`` float stack of states, m >= 1."""
    arr = np.asarray(xs, dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] != dim:
        raise UsageError(f"state stack must have shape (m, {dim}) with m >= 1, got {arr.shape}")
    if not _all_finite(arr):
        row, col = (int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        raise UsageError(f"state {row} of the stack has a non-finite entry at component {col}")
    return arr


def map_states(
    quantity: "ConservedQuantitySet",
    fn: Callable[[Array], Array],
    xs: Array,
    row_shape: tuple[int, ...],
    role: str,
) -> Array:
    """Apply one of ``quantity``'s callables to every row of an ``(m, dim)`` stack.

    A ``batched`` quantity's callable gets the whole stack in one call; any
    other is called once per row, where a scalar counts as shape ``(1,)``.
    A result not of shape ``(m, *row_shape)`` is a :class:`UsageError`
    naming ``role`` and the quantity.  Finiteness is left to the caller.
    """
    m = len(xs)
    if quantity.batched:
        out = np.asarray(fn(xs), dtype=float)
        if out.shape == (m,) + row_shape:
            return out
        got, expected = out.shape, (m,) + row_shape
    else:
        out = np.empty((m,) + row_shape)
        for i, x in enumerate(xs):
            row = np.asarray(fn(x), dtype=float)
            if row.shape != row_shape and not (row.ndim == 0 and row_shape == (1,)):
                got, expected = row.shape, row_shape
                break
            out[i] = row
        else:
            return out
    raise UsageError(
        f"{role} '{'/'.join(quantity.labels)}' returned shape {got}, expected {expected}"
    )


def format_float(value: float) -> str:
    """Render a double with 17 significant digits (round-trip exact)."""
    return f"{float(value):.17g}"


@dataclass(frozen=True)
class SystemDefinition:
    """An autonomous first-order ODE ``x' = field(x)`` on R^dim.

    ``field`` must be deterministic and dimension-preserving.
    ``component_names`` optionally names the state components for exports.
    """

    dim: int
    field: Callable[[Array], Array]
    label: str = ""
    component_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise UsageError(f"system dimension must be positive, got {self.dim}")
        if self.component_names is not None and len(self.component_names) != self.dim:
            raise UsageError(
                f"component_names has {len(self.component_names)} entries "
                f"for dimension {self.dim}"
            )


def evaluate_field(system: SystemDefinition, x) -> Array:
    """Evaluate the right-hand side at ``x`` with full validation.

    Raises :class:`UsageError` on dimension mismatch and
    :class:`NumericError` if the field returns a non-finite component.
    """
    xv = as_state(x, system.dim)
    out = np.asarray(system.field(xv), dtype=float)
    if out.shape != (system.dim,):
        raise UsageError(
            f"field of '{system.label}' returned shape {out.shape}, "
            f"expected ({system.dim},)"
        )
    if not _all_finite(out):
        bad = int(np.flatnonzero(~np.isfinite(out))[0])
        raise NumericError(
            f"field of '{system.label}' produced a non-finite derivative "
            f"in component {bad}"
        )
    return out


@dataclass(frozen=True)
class ConservedQuantitySet:
    """A vector F = (F_1, ..., F_k) of scalar functions on R^dim, k <= dim.

    ``value(x)`` returns the k component values.  When present,
    ``analytic_gradient(x)`` returns the k-by-dim Jacobian and takes
    precedence over finite differences in every consumer.
    ``analytic_partial(x, alpha)`` returns the k values of the mixed
    partial for a multi-index ``alpha`` given as a tuple of 0-based
    coordinate indices (order = len(alpha)); it unlocks derivative orders
    beyond the finite-difference depth cap.  ``smoothness_order`` bounds
    the derivative order that may be queried meaningfully.

    ``batched`` declares that ``value`` and ``analytic_gradient`` also
    accept a stack of states of shape ``(..., dim)`` and return
    ``(..., k)`` and ``(..., k, dim)``, each row equal bit for bit to the
    single-state result.  It cannot be inferred: a point formula such as
    ``x[0]**2 + x[1]**2`` returns wrong rows on a stack without raising.
    Undeclared callables are called once per state.
    """

    dim: int
    k: int
    value: Callable[[Array], Array]
    labels: tuple[str, ...]
    analytic_gradient: Callable[[Array], Array] | None = None
    analytic_partial: Callable[[Array, tuple[int, ...]], Array] | None = None
    smoothness_order: int = 8
    batched: bool = False

    def __post_init__(self):
        if self.dim < 1 or self.k < 1:
            raise UsageError("quantity needs positive dimension and component count")
        if self.k > self.dim:
            raise UsageError(f"quantity has k={self.k} components but dim={self.dim}")
        if len(self.labels) != self.k:
            raise UsageError(f"{len(self.labels)} labels for k={self.k} components")

    def values_many(self, states) -> Array:
        """Evaluate all components on an ``(m, dim)`` stack: shape ``(m, k)``."""
        return self._values(as_states(states, self.dim))

    def values_at(self, x) -> Array:
        """Evaluate all components at ``x``: a batch of one."""
        return self._values(as_state(x, self.dim)[None, :])[0]

    def _values(self, xs: Array) -> Array:
        out = map_states(self, self.value, xs, (self.k,), "quantity")
        if not _all_finite(out):
            row = int(np.flatnonzero(~np.isfinite(out).all(axis=1))[0])
            raise NumericError(
                f"quantity '{'/'.join(self.labels)}' is non-finite at state {row} of {len(xs)}"
            )
        return out

    @staticmethod
    def scalar(
        dim: int,
        fn: Callable[[Array], float],
        label: str,
        gradient: Callable[[Array], Array] | None = None,
        partial: Callable[[Array, tuple[int, ...]], Array] | None = None,
        smoothness_order: int = 8,
    ) -> "ConservedQuantitySet":
        """Wrap a scalar function (and optional derivative providers) as k=1."""
        grad = None
        if gradient is not None:
            grad = lambda x, _g=gradient: np.asarray(_g(x), dtype=float).reshape(1, dim)
        part = None
        if partial is not None:
            part = lambda x, alpha, _p=partial: np.atleast_1d(
                np.asarray(_p(x, alpha), dtype=float)
            )
        return ConservedQuantitySet(
            dim=dim,
            k=1,
            value=lambda x, _f=fn: np.array([float(_f(x))]),
            labels=(label,),
            analytic_gradient=grad,
            analytic_partial=part,
            smoothness_order=smoothness_order,
        )


def stack_quantities(quantities: Sequence[ConservedQuantitySet]) -> ConservedQuantitySet:
    """Concatenate several quantities on the same space into one vector F.

    Analytic providers survive the stacking only if every member supplies
    them; otherwise consumers fall back to finite differences for the
    whole stack.  The stack is ``batched`` only if every member is.
    """
    qs = list(quantities)
    if not qs:
        raise UsageError("cannot stack an empty list of quantities")
    dim = qs[0].dim
    if any(q.dim != dim for q in qs):
        raise UsageError("stacked quantities must share the same dimension")
    k = sum(q.k for q in qs)
    if k > dim:
        raise UsageError(f"stack has k={k} components, exceeding dim={dim}")
    labels = tuple(lbl for q in qs for lbl in q.labels)

    def value(x, _qs=tuple(qs)):
        return np.concatenate(
            [np.atleast_1d(np.asarray(q.value(x), float)) for q in _qs], axis=-1
        )

    grad = None
    if all(q.analytic_gradient is not None for q in qs):

        def grad(x, _qs=tuple(qs)):
            return np.concatenate(
                [np.atleast_2d(np.asarray(q.analytic_gradient(x), float)) for q in _qs], axis=-2
            )

    part = None
    if all(q.analytic_partial is not None for q in qs):

        def part(x, alpha, _qs=tuple(qs)):
            return np.concatenate(
                [np.atleast_1d(np.asarray(q.analytic_partial(x, alpha), float)) for q in _qs]
            )

    return ConservedQuantitySet(
        dim=dim,
        k=k,
        value=value,
        labels=labels,
        analytic_gradient=grad,
        analytic_partial=part,
        smoothness_order=min(q.smoothness_order for q in qs),
        batched=all(q.batched for q in qs),
    )


def zero_quantity(dim: int) -> ConservedQuantitySet:
    """The identically zero scalar quantity (conserved by any flow)."""
    return ConservedQuantitySet(
        dim=dim,
        k=1,
        value=lambda x: np.zeros(1),
        labels=("0",),
        analytic_gradient=lambda x: np.zeros((1, dim)),
        analytic_partial=lambda x, alpha: np.zeros(1),
        smoothness_order=64,
    )


def conservation_residual(
    quantity: ConservedQuantitySet, system: SystemDefinition, x
) -> Array:
    """Instantaneous rate of change of each component along the field.

    Returns the k values ``grad F_i(x) . f(x)``; values near zero certify
    pointwise conservation at ``x``.
    """
    from .differentiate import jacobian

    if quantity.dim != system.dim:
        raise UsageError(
            f"quantity dimension {quantity.dim} != system dimension {system.dim}"
        )
    xv = as_state(x, system.dim)
    # elementwise product + pairwise sum (no FMA) so symmetric terms cancel exactly
    return (jacobian(quantity, xv) * evaluate_field(system, xv)).sum(axis=1)
