"""Gradients, Jacobians, and higher-order partial derivatives.

A quantity's analytic gradient gives its first-order partials; without
one, and at every higher order, central finite differences are used.
The default first-order step is ``eps**(1/3) * max(1, |x_j|)`` per
coordinate, which balances truncation against round-off for second-order
schemes.  Higher orders use the analogous ``eps**(1/(order+2))`` scaling.
Nested differencing is capped at order 4: beyond that the noise exceeds
any useful tolerance, so a higher order is refused.  A stack of more than
``MAX_PARTIALS`` distinct partials per component is refused before any
evaluation.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

from .core import ConservedQuantitySet, _all_finite, as_states, map_states
from .errors import NumericError, UsageError

EPS = float(np.finfo(float).eps)
DEFAULT_STEP_SCALE = EPS ** (1.0 / 3.0)
MAX_FD_ORDER = 4
# distinct partials of orders 1..order, C(dim + order, order) - 1: each costs calls
# per state, so more stall a check before any verdict (n=32 Toda, order 3: 47,904)
MAX_PARTIALS = 5_000
FD_CHUNK_STATES = 2048  # shifted states per finite-difference call, or one coordinate's pair


def _values(quantity: ConservedQuantitySet, xs: np.ndarray) -> np.ndarray:
    what = f"quantity '{'/'.join(quantity.labels)}'"
    return map_states(quantity.value, xs, (quantity.k,), quantity.batched, what)


def _coordinate_steps(x: np.ndarray, scale: float) -> np.ndarray:
    return scale * np.maximum(1.0, np.abs(x))


def jacobians(quantity: ConservedQuantitySet, states) -> np.ndarray:
    """(m, k, n) Jacobians of a quantity on an (m, n) stack of states.

    An analytic gradient bypasses differencing.  A ``batched`` quantity is
    called once for the whole stack (per ``FD_CHUNK_STATES`` shifted states
    when differencing); any other once per state.
    """
    return _jacobian_stack(quantity, as_states(states, quantity.dim))


def _jacobian_stack(quantity: ConservedQuantitySet, xs: np.ndarray) -> np.ndarray:
    shape = (quantity.k, quantity.dim)
    if quantity.analytic_gradient is not None:
        what = f"analytic gradient of '{'/'.join(quantity.labels)}'"
        J = map_states(quantity.analytic_gradient, xs, shape, quantity.batched, what)
        if not _all_finite(J):
            row = int(np.flatnonzero(~np.isfinite(J).all(axis=(1, 2)))[0])
            raise NumericError(f"{what} is non-finite at state {row} of {len(xs)}")
        return J

    h = _coordinate_steps(xs, DEFAULT_STEP_SCALE)
    J = np.empty((len(xs),) + shape)
    width = max(1, FD_CHUNK_STATES // (2 * len(xs)))
    chunks = [np.arange(j, min(j + width, quantity.dim)) for j in range(0, quantity.dim, width)]
    while chunks:
        cols = chunks.pop(0)
        hc = h[:, cols].T[:, None] * np.array([[1.0], [-1.0]])  # (columns, +h/-h, m)
        shifted = np.broadcast_to(xs, hc.shape + xs.shape[1:]).copy()
        shifted[np.arange(len(cols)), :, :, cols] += hc
        try:
            v = _values(quantity, shifted.reshape(-1, quantity.dim)).reshape(hc.shape + (-1,))
        except NumericError:  # again one column at a time, so the first to fail raises
            if len(cols) == 1:
                raise
            chunks[:0] = np.split(cols, len(cols))
            continue
        except UsageError:  # a wrong shape, named as a call on the caller's stack returns it
            _values(quantity, xs)
            raise
        block = (v[:, 0] - v[:, 1]) / (2.0 * hc[:, 0, :, None])
        bad = np.flatnonzero(~np.isfinite(block).all(axis=(1, 2)))
        if bad.size:
            raise NumericError(f"quantity is non-finite near x along coordinate {cols[bad[0]]}")
        J[:, :, cols] = block.transpose(1, 2, 0)
    return J


def _nested_central(quantity, xs, alpha, steps):
    if not alpha:
        return _values(quantity, xs)
    j = alpha[0]
    xp, xm = xs.copy(), xs.copy()
    xp[:, j] += steps[:, j]
    xm[:, j] -= steps[:, j]
    fp, fm = (_nested_central(quantity, y, alpha[1:], steps) for y in (xp, xm))
    return (fp - fm) / (2.0 * steps[:, j, None])


def _check_order(quantity: ConservedQuantitySet, order: int) -> None:
    if order < 1:
        raise UsageError(f"derivative order must be >= 1, got {order}")
    if order > MAX_FD_ORDER:
        raise UsageError(f"order {order} exceeds the finite-difference cap {MAX_FD_ORDER}")
    count = math.comb(quantity.dim + order, order) - 1
    if count > MAX_PARTIALS:
        raise UsageError(
            f"order {order} on dimension {quantity.dim} needs {count} partials per state, "
            f"more than the {MAX_PARTIALS} a derivative stack may hold"
        )


def _partial_stack(
    quantity: ConservedQuantitySet, xs: np.ndarray, order: int
) -> dict[tuple[int, ...], np.ndarray]:
    """All partials of orders 1..``order`` of every component on a validated
    ``(m, dim)`` stack, one ``(m, k)`` array per sorted multi-index.

    Order 1 is the stacked Jacobian.  Higher orders are nested central
    differences on the whole stack, their values through ``map_states``
    (one call for a ``batched`` quantity, one per row otherwise).
    """
    _check_order(quantity, order)
    J = _jacobian_stack(quantity, xs)
    entries = {(j,): J[:, :, j] for j in range(quantity.dim)}
    for level in range(2, order + 1):
        steps = _coordinate_steps(xs, EPS ** (1.0 / (level + 2)))
        for alpha in combinations_with_replacement(range(quantity.dim), level):
            val = _nested_central(quantity, xs, alpha, steps)
            if not _all_finite(val):
                raise NumericError(f"non-finite partial derivative for alpha={alpha}")
            entries[alpha] = val
    return entries
