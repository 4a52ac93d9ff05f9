"""Core types: states, vector fields, and conserved quantities.

States are plain 1-D numpy float arrays, and a trajectory's samples are an
``(m, dim)`` stack of them.  A :class:`SystemDefinition` wraps an autonomous
right-hand side ``f`` of ``x' = f(x)`` together with its dimension, and a
:class:`ConservedQuantitySet` bundles a vector of scalar first integrals
with an optional analytic gradient.  Quantities are evaluated on
whole stacks; a single state is a stack of one.

Everything here is immutable after construction and free of hidden state,
so all operations can be called concurrently without synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, UsageError

Array = np.ndarray


def _all_finite(a: Array) -> bool:
    """``np.isfinite(a).all()``, at about half the cost on small arrays: the
    count skips the Python wrapper of ``ndarray.all``."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def _finite_field_rows(label: str, rows: Array) -> Array:
    """The ``(m, dim)`` field rows of the system ``label``, if every entry is
    finite; else a :class:`NumericError` naming the first non-finite one."""
    if not _all_finite(rows):
        row, col = (int(i) for i in np.argwhere(~np.isfinite(rows))[0])
        raise NumericError(
            f"field of '{label}' produced a non-finite derivative in component {col} "
            f"at state {row} of {len(rows)}"
        )
    return rows


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
    fn: Callable[[Array], Array], xs: Array, row_shape: tuple[int, ...], batched: bool, what: str
) -> Array:
    """Apply ``fn`` (a quantity's callable or a field) to every row of an
    ``(m, dim)`` stack.

    A ``batched`` callable gets the whole stack in one call; any other is
    called once per row, where a scalar counts as shape ``(1,)``.  A result
    not of shape ``(m, *row_shape)`` is a :class:`UsageError` naming
    ``what``.  Finiteness is left to the caller.
    """
    m = len(xs)
    if batched:
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
    raise UsageError(f"{what} returned shape {got}, expected {expected}")


def format_float(value: float) -> str:
    """Render a double with 17 significant digits (round-trip exact)."""
    return f"{float(value):.17g}"


@dataclass(frozen=True)
class SystemDefinition:
    """An autonomous first-order ODE ``x' = field(x)`` on R^dim.

    ``field`` must be deterministic and dimension-preserving.
    ``component_names`` optionally names the state components for exports.
    ``batched`` declares, as for :class:`ConservedQuantitySet`, that
    ``field`` also maps a stack ``(..., dim)`` to ``(..., dim)``, each row
    equal bit for bit to the single-state result.  ``flow`` declares an
    exact flow: ``flow(x0, times)`` gives the ``(m, dim)`` states at a 1-D
    array of times of either sign, ``x0`` at time 0, or ``None`` where it
    does not cover ``x0``.  Every check takes that flow where it covers the
    start, its velocity checked against the field on every sample, and
    integrates the field elsewhere.
    """

    dim: int
    field: Callable[[Array], Array]
    label: str = ""
    component_names: tuple[str, ...] | None = None
    batched: bool = False
    flow: Callable[[Array, Array], Array | None] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise UsageError(f"system dimension must be positive, got {self.dim}")
        if self.component_names is not None and len(self.component_names) != self.dim:
            raise UsageError(
                f"component_names has {len(self.component_names)} entries "
                f"for dimension {self.dim}"
            )
        if self.flow is not None and not callable(self.flow):
            raise UsageError(f"flow of '{self.label}' must be callable, got {type(self.flow).__name__}")

    def fields(self, xs: Array) -> Array:
        """The field on an ``(m, dim)`` stack: one call if ``batched``,
        else one per row.  Finiteness is left to the caller."""
        return map_states(self.field, xs, (self.dim,), self.batched, f"field of '{self.label}'")


def evaluate_field(system: SystemDefinition, x) -> Array:
    """Evaluate the right-hand side at ``x`` with full validation.

    Raises :class:`UsageError` on dimension mismatch and
    :class:`NumericError` if the field returns a non-finite component.
    """
    xv = as_state(x, system.dim)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge state's overflow is the non-finite check's
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
    precedence over finite differences in every consumer; partials of
    higher order always come from nested central differences, which
    :mod:`invarsets.differentiate` caps at order 4.

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

    def _values(self, xs: Array) -> Array:
        out = map_states(self.value, xs, (self.k,), self.batched, f"quantity '{'/'.join(self.labels)}'")
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
        batched: bool = False,
    ) -> "ConservedQuantitySet":
        """Wrap a scalar function (and its optional gradient) as k=1.

        ``batched`` declares that ``fn`` and ``gradient`` map a stack
        ``(..., dim)`` to ``(...)`` and ``(..., dim)``."""
        if batched:
            value = lambda x, _f=fn: np.asarray(_f(x), dtype=float)[..., None]
            grad = gradient and (lambda x, _g=gradient: np.asarray(_g(x), dtype=float)[..., None, :])
        else:
            value = lambda x, _f=fn: np.array([float(_f(x))])
            grad = gradient and (lambda x, _g=gradient: np.asarray(_g(x), dtype=float).reshape(1, dim))
        return ConservedQuantitySet(
            dim=dim,
            k=1,
            value=value,
            labels=(label,),
            analytic_gradient=grad,
            batched=batched,
        )


def stack_quantities(quantities: Sequence[ConservedQuantitySet]) -> ConservedQuantitySet:
    """Concatenate several quantities on the same space into one vector F.

    The analytic gradient survives the stacking only if every member
    supplies one; otherwise consumers fall back to finite differences for
    the whole stack.  The stack is ``batched`` only if every member is.
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

    return ConservedQuantitySet(
        dim=dim,
        k=k,
        value=value,
        labels=labels,
        analytic_gradient=grad,
        batched=all(q.batched for q in qs),
    )


# The one fixed tolerance of every premise, relative to max(1, |x|): the start's
# |grad F_i . f|, the coincidence agreement and F - G rate, a declared flow's velocity.
PREMISE_TOL = 1e-8

# Every tolerance a check reads, by its name under a scenario's "tolerances",
# with its default: the one place these defaults are written.
TOLERANCES = {
    "rank": 1e-8,  # rank threshold relative to sigma_1
    "vanishing": 1e-8,  # largest partial, relative to max(1, |x|)
    "residual": 1e-7,  # explicit-set residual
    "deviation": 1e-6,  # distance between the two coincidence flows
    "drift": 1e-8,  # largest |F_i(x(t)) - F_i(x0)| over the samples
    "value": 1e-12,  # closed-form invariant against its oracle, and the Lax residual
    "gradient": 1e-6,  # closed-form gradient against its finite differences
}


def _tolerance(name: str, value, key: str = "") -> float:
    """``value`` if it obeys the rule of the tolerance ``name`` (positive and
    finite, and below 1 for ``rank``); else a :class:`UsageError` naming
    ``key``, by default ``tolerances.<name>``."""
    key = key or f"tolerances.{name}"
    if name == "rank" and not 0.0 < value < 1.0:
        raise UsageError(f'"{key}" must lie in (0, 1), got {value!r}')
    if not 0.0 < value < math.inf:
        raise UsageError(f'"{key}" must be positive and finite, got {value!r}')
    return value


def _tolerances(given, names: tuple[str, ...]) -> dict[str, float]:
    """The tolerances ``names`` of one check, each from the mapping ``given``
    (None for none) or else from :data:`TOLERANCES`, and each checked; a
    name in ``given`` that the check does not read is a :class:`UsageError`."""
    given = given or {}
    unknown = [key for key in given if key not in names]
    if unknown:
        raise UsageError(f'unknown tolerance "{unknown[0]}"; this check reads {", ".join(names)}')
    return {name: _tolerance(name, given.get(name, TOLERANCES[name])) for name in names}


def _state_scales(xs: Array) -> Array:
    """``max(1, |x|)`` per row of an ``(m, dim)`` stack, the scale of every
    state-relative tolerance (bit for bit ``np.linalg.norm`` of the row), and
    silently inf where the norm overflows: no tolerance is finite there."""
    with np.errstate(over="ignore"):
        return np.maximum(1.0, np.sqrt(np.vecdot(xs, xs)))


def _conservation_rates(quantity: ConservedQuantitySet, xs: Array, fields: Array) -> Array:
    """The ``(m, k)`` rates ``grad F_i(x) . f(x)`` on an ``(m, dim)`` stack
    whose validated field rows are ``fields``."""
    from .differentiate import jacobians

    # elementwise product + pairwise sum (no FMA) so symmetric terms cancel exactly
    return (jacobians(quantity, xs) * fields[:, None, :]).sum(axis=2)


def conservation_rates(quantity: ConservedQuantitySet, system: SystemDefinition, states) -> Array:
    """Instantaneous rate of change of each component along the field on an
    ``(m, dim)`` stack of states.

    Returns the ``(m, k)`` values ``grad F_i(x) . f(x)``; values near zero
    certify pointwise conservation.  Raises :class:`UsageError` on a
    dimension mismatch and :class:`NumericError` if the field is non-finite
    at a state.
    """
    if quantity.dim != system.dim:
        raise UsageError(f"quantity dimension {quantity.dim} != system dimension {system.dim}")
    xs = as_states(states, system.dim)
    fields = _finite_field_rows(system.label, system.fields(xs))
    return _conservation_rates(quantity, xs, fields)
