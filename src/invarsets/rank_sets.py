"""Tolerance-based classification into rank-level and derivative-vanishing
sets of a conserved quantity; the critical set is the union of the rank
levels below the maximum rank k.

Rank decisions come from singular values: with threshold tau relative to
the largest singular value, the numerical rank is the count of singular
values strictly above the threshold (Golub and Van Loan, *Matrix
Computations*, section 2.5).  Every decision carries a margin (how far the
closest singular value sits from the threshold, as a ratio) so borderline
calls are visible instead of silently classified.

Decisions are made for whole stacks: :func:`rank_levels` takes every
sample of a trajectory through one stacked Jacobian and one stacked SVD,
and :func:`vanishing_memberships` through one stacked partial builder; a
single state is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConservedQuantitySet, _state_scales, as_states
from .differentiate import _partial_stack, jacobians
from .errors import NumericError, UsageError

DEFAULT_RANK_TOL = 1e-8
DEFAULT_VANISH_TOL = 1e-8
ZERO_SIGMA_GUARD = 1e-300
BORDERLINE_MARGIN = 10.0


@dataclass(frozen=True)
class SetMemberships:
    """Memberships of a stack of m states in one of the derived sets.

    ``verdicts``, ``residuals``, ``margins`` and ``thresholds`` have shape
    (m,).  A residual is negative inside the set and positive outside (the
    distance of the decisive statistic from its threshold); margins follow
    the rank-decision convention.
    """

    verdicts: np.ndarray
    residuals: np.ndarray
    margins: np.ndarray
    thresholds: np.ndarray


@dataclass(frozen=True)
class RankDecisions:
    """Rank decisions for a stack of m matrices, one entry per matrix.

    ``ranks`` and ``margins`` have shape (m,).  A margin is the smallest
    ratio sigma/threshold over kept singular values and threshold/sigma
    over dropped ones; below :data:`BORDERLINE_MARGIN` the decision is not
    robust.
    """

    ranks: np.ndarray
    margins: np.ndarray


def singular_values(matrices) -> np.ndarray:
    """Singular values of every matrix of an (m, r, c) stack, descending:
    shape (m, min(r, c)), from one stacked SVD."""
    try:
        return np.linalg.svd(matrices, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge: {exc}") from exc


def _margins(values: np.ndarray, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """The inside flags and margins of ``values`` against ``thresholds``: a
    value is inside when at most its threshold, with margin threshold/value
    (inf at zero) inside and value/threshold outside."""
    inside = values <= thresholds
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        below = np.where(values > 0.0, thresholds / values, np.inf)
        return inside, np.where(inside, below, values / thresholds)


def _decide(matrices: np.ndarray, rel_tol: float, zero_floor: np.ndarray) -> RankDecisions:
    """The rank rule, applied to every matrix of an (m, r, c) stack.

    The threshold is ``max(rel_tol * sigma_1, zero_floor)``; the rank
    counts the singular values strictly above it, so a value exactly at
    the threshold is dropped.  A matrix whose largest singular value is
    below an absolute 1e-300 guard (effectively the all-zero matrix) has
    rank 0 and margin inf outright, since a relative threshold is
    undefined there.
    """
    sv = singular_values(matrices)
    top = sv[:, 0] if sv.shape[1] else np.zeros(len(sv))
    thresholds = np.maximum(rel_tol * top, zero_floor)
    dropped, ratios = _margins(sv, thresholds[:, None])
    margins = ratios.min(axis=1, initial=np.inf)
    ranks = (~dropped).sum(axis=1)
    zero = top < ZERO_SIGMA_GUARD
    ranks[zero] = 0
    margins[zero] = np.inf
    return RankDecisions(ranks=ranks, margins=margins)


def rank_levels(
    quantity: ConservedQuantitySet, states, rel_tol: float = DEFAULT_RANK_TOL
) -> RankDecisions:
    """Numerical rank of the quantity's Jacobian at every state of an
    (m, dim) stack, from one stacked Jacobian and one stacked SVD.

    On top of the relative threshold, an absolute floor
    ``rel_tol * max(1, |x|)`` is applied so that states where every
    gradient entry is numerically zero (round-off of an exactly critical
    point) classify as rank 0 rather than picking up a spurious rank from
    a ~1e-16 singular value.  This aligns the rank-0 decision with the
    first-order vanishing test at matched tolerances.
    """
    if not 0.0 < rel_tol < 1.0:
        raise UsageError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    xs = as_states(states, quantity.dim)
    J = jacobians(quantity, xs)
    return _decide(J, rel_tol, rel_tol * _state_scales(xs))


def vanishing_memberships(
    quantity: ConservedQuantitySet, states, order: int, abs_tol: float = DEFAULT_VANISH_TOL
) -> SetMemberships:
    """Do all partials of all components up to ``order`` vanish at each
    state of an (m, dim) stack?  One stacked partial builder for the stack.

    The verdict is true iff every partial is at most ``abs_tol * max(1, |x|)``
    in magnitude.
    """
    if abs_tol <= 0:
        raise UsageError(f"abs_tol must be positive, got {abs_tol}")
    xs = as_states(states, quantity.dim)
    partials = np.concatenate(list(_partial_stack(quantity, xs, order).values()), axis=1)
    worst = np.abs(partials).max(axis=1)
    thresholds = abs_tol * _state_scales(xs)
    verdicts, margins = _margins(worst, thresholds)
    return SetMemberships(verdicts, worst - thresholds, margins, thresholds)
