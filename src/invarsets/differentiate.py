"""Gradients, Jacobians, and higher-order partial derivatives.

Analytic providers attached to a quantity always win; otherwise central
finite differences are used.  The default first-order step is
``eps**(1/3) * max(1, |x_j|)`` per coordinate, which balances truncation
against round-off for second-order schemes.  Higher orders use the
analogous ``eps**(1/(order+2))`` scaling.  Nested differencing is capped
at order 4: beyond that the noise exceeds any useful tolerance and an
analytic provider is required.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import NumericError, UsageError

if TYPE_CHECKING:
    from .core import ConservedQuantitySet

EPS = float(np.finfo(float).eps)
DEFAULT_STEP_SCALE = EPS ** (1.0 / 3.0)
MAX_FD_ORDER = 4


def _coordinate_steps(x: np.ndarray, scale: float) -> np.ndarray:
    return scale * np.maximum(1.0, np.abs(x))


def jacobians(
    quantity: "ConservedQuantitySet", states, step_scale: float | None = None
) -> np.ndarray:
    """(m, k, n) Jacobians of a quantity on an (m, n) stack of states.

    An analytic provider bypasses differencing.  A ``batched`` quantity is
    called once for the whole stack (once per coordinate and side when
    differencing); any other once per state.
    """
    from .core import as_states

    return _jacobian_stack(quantity, as_states(states, quantity.dim), step_scale)


def jacobian(quantity: "ConservedQuantitySet", x, step_scale: float | None = None) -> np.ndarray:
    """k-by-n Jacobian of a quantity at one state: a batch of one."""
    from .core import as_state

    return _jacobian_stack(quantity, as_state(x, quantity.dim)[None, :], step_scale)[0]


def _jacobian_stack(quantity: "ConservedQuantitySet", xs: np.ndarray, step_scale) -> np.ndarray:
    from .core import _all_finite, map_states

    shape = (quantity.k, quantity.dim)
    if quantity.analytic_gradient is not None:
        J = map_states(quantity, quantity.analytic_gradient, xs, shape, "analytic gradient of")
        if not _all_finite(J):
            row = int(np.flatnonzero(~np.isfinite(J).all(axis=(1, 2)))[0])
            raise NumericError(
                f"analytic gradient of '{'/'.join(quantity.labels)}' is non-finite "
                f"at state {row} of {len(xs)}"
            )
        return J

    h = _coordinate_steps(xs, DEFAULT_STEP_SCALE if step_scale is None else float(step_scale))
    J = np.empty((len(xs),) + shape)
    for j in range(quantity.dim):
        xp = xs.copy()
        xm = xs.copy()
        xp[:, j] += h[:, j]
        xm[:, j] -= h[:, j]
        vp = map_states(quantity, quantity.value, xp, (quantity.k,), "quantity")
        vm = map_states(quantity, quantity.value, xm, (quantity.k,), "quantity")
        col = (vp - vm) / (2.0 * h[:, j, None])
        if not _all_finite(col):
            raise NumericError(f"quantity is non-finite near x along coordinate {j}")
        J[:, :, j] = col
    return J


@dataclass(frozen=True)
class PartialTensor:
    """All mixed partials of a k-vector quantity up to a given order.

    Multi-indices are tuples of 0-based coordinate indices.  Since mixed
    partials of smooth functions are symmetric under permutation, entries
    are stored once per sorted multi-index; :meth:`entry` accepts any
    ordering and looks up the canonical one.
    """

    dim: int
    k: int
    order: int
    entries: Mapping[tuple[int, ...], np.ndarray]

    def entry(self, component: int, alpha: tuple[int, ...]) -> float:
        if not 0 <= component < self.k:
            raise UsageError(f"component {component} out of range 0..{self.k - 1}")
        key = self._canonical(alpha)
        return float(self.entries[key][component])

    def _canonical(self, alpha) -> tuple[int, ...]:
        key = tuple(sorted(int(a) for a in alpha))
        if not 1 <= len(key) <= self.order:
            raise UsageError(f"multi-index order {len(key)} out of range 1..{self.order}")
        if any(a < 0 or a >= self.dim for a in key):
            raise UsageError(f"multi-index {key} has entries outside 0..{self.dim - 1}")
        return key

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(v))) for v in self.entries.values())

    def flatten(self, order: int) -> np.ndarray:
        """Full order-``order`` block in lexicographic (component, alpha)
        order over alpha in {0..n-1}^order, symmetry filling the repeats."""
        if not 1 <= order <= self.order:
            raise UsageError(f"order {order} out of range 1..{self.order}")
        out = np.empty(self.k * self.dim**order)
        pos = 0
        for i in range(self.k):
            for alpha in product(range(self.dim), repeat=order):
                out[pos] = self.entries[tuple(sorted(alpha))][i]
                pos += 1
        return out


def _nested_central(value_fn, x, alpha, steps):
    if not alpha:
        return np.atleast_1d(np.asarray(value_fn(x), dtype=float))
    j = alpha[0]
    xp = x.copy()
    xm = x.copy()
    xp[j] += steps[j]
    xm[j] -= steps[j]
    fp = _nested_central(value_fn, xp, alpha[1:], steps)
    fm = _nested_central(value_fn, xm, alpha[1:], steps)
    return (fp - fm) / (2.0 * steps[j])


def partial_tensor(
    quantity: "ConservedQuantitySet", x, order: int, base_eps: float | None = None
) -> PartialTensor:
    """All partials of order 1..``order`` of every component at ``x``.

    Finite-difference entries of order ``l`` use the per-coordinate step
    ``base_eps**(1/(l+2)) * max(1, |x_j|)`` with ``base_eps`` defaulting
    to machine epsilon.  Orders above :data:`MAX_FD_ORDER` require an
    ``analytic_partial`` provider.
    """
    from .core import _all_finite, as_state

    xv = as_state(x, quantity.dim)
    if order < 1:
        raise UsageError(f"derivative order must be >= 1, got {order}")
    if order > quantity.smoothness_order:
        raise UsageError(
            f"order {order} exceeds the quantity's smoothness order "
            f"{quantity.smoothness_order}"
        )
    has_provider = quantity.analytic_partial is not None
    if not has_provider and order > MAX_FD_ORDER:
        raise UsageError(
            f"order {order} exceeds the finite-difference cap {MAX_FD_ORDER}; "
            "supply an analytic_partial provider"
        )
    eps = EPS if base_eps is None else float(base_eps)

    entries: dict[tuple[int, ...], np.ndarray] = {}
    for level in range(1, order + 1):
        if level == 1 and quantity.analytic_gradient is not None:
            J = jacobian(quantity, xv)
            for j in range(quantity.dim):
                entries[(j,)] = J[:, j].copy()
            continue
        if has_provider:
            for alpha in combinations_with_replacement(range(quantity.dim), level):
                val = np.atleast_1d(np.asarray(quantity.analytic_partial(xv, alpha), float))
                if val.shape != (quantity.k,):
                    raise UsageError(
                        f"analytic_partial returned shape {val.shape} for alpha={alpha}"
                    )
                entries[alpha] = val
            continue
        steps = _coordinate_steps(xv, eps ** (1.0 / (level + 2)))
        for alpha in combinations_with_replacement(range(quantity.dim), level):
            val = _nested_central(quantity.value, xv, alpha, steps)
            if not _all_finite(val):
                raise NumericError(f"non-finite partial derivative for alpha={alpha}")
            entries[alpha] = val

    return PartialTensor(dim=quantity.dim, k=quantity.k, order=order, entries=entries)
