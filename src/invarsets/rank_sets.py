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
and the single-matrix and single-state calls are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConservedQuantitySet, _all_finite, as_state, as_states
from .differentiate import jacobians, partial_tensor
from .errors import NumericError, UsageError

DEFAULT_RANK_TOL = 1e-8
DEFAULT_VANISH_TOL = 1e-8
ZERO_SIGMA_GUARD = 1e-300
BORDERLINE_MARGIN = 10.0


@dataclass(frozen=True)
class RankDecision:
    """Outcome of a numerical rank determination.

    ``margin`` is the smallest ratio sigma/threshold over kept singular
    values and threshold/sigma over dropped ones; values below
    :data:`BORDERLINE_MARGIN` mean the decision is not robust.
    """

    rank: int
    singular_values: tuple[float, ...]
    rel_tol: float
    threshold: float
    margin: float

    @property
    def borderline(self) -> bool:
        return self.margin < BORDERLINE_MARGIN


@dataclass(frozen=True)
class SetMembership:
    """Verdict for membership in one of the derived sets.

    ``residual`` is negative inside the set and positive outside (distance
    of the decisive statistic from its threshold); ``margin`` mirrors the
    rank-decision convention.
    """

    set_kind: str
    parameter: int
    verdict: bool
    residual: float
    margin: float
    threshold: float


@dataclass(frozen=True)
class RankDecisions:
    """Rank decisions for a stack of m matrices, one entry per matrix.

    ``ranks``, ``thresholds`` and ``margins`` have shape (m,) and
    ``singular_values`` has shape (m, min(rows, cols)), in descending
    order per row.  Indexing yields the single :class:`RankDecision`.
    """

    ranks: np.ndarray
    singular_values: np.ndarray
    rel_tol: float
    thresholds: np.ndarray
    margins: np.ndarray

    def __len__(self) -> int:
        return int(self.ranks.size)

    def __getitem__(self, i: int) -> RankDecision:
        return RankDecision(
            rank=int(self.ranks[i]),
            singular_values=tuple(float(s) for s in self.singular_values[i]),
            rel_tol=self.rel_tol,
            threshold=float(self.thresholds[i]),
            margin=float(self.margins[i]),
        )


def _check_rel_tol(rel_tol: float) -> None:
    if not 0.0 < rel_tol < 1.0:
        raise UsageError(f"rel_tol must lie in (0, 1), got {rel_tol}")


def singular_values(matrices) -> np.ndarray:
    """Singular values of every matrix of an (m, r, c) stack, descending:
    shape (m, min(r, c)), from one stacked SVD."""
    try:
        return np.linalg.svd(matrices, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge: {exc}") from exc


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
    cut = thresholds[:, None]
    kept = sv > cut
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = np.where(kept, sv / cut, np.where(sv > 0.0, cut / sv, np.inf))
    margins = ratios.min(axis=1, initial=np.inf)
    ranks = kept.sum(axis=1)
    zero = top < ZERO_SIGMA_GUARD
    ranks[zero] = 0
    margins[zero] = np.inf
    return RankDecisions(
        ranks=ranks, singular_values=sv, rel_tol=rel_tol, thresholds=thresholds, margins=margins
    )


def numerical_rank(matrix, rel_tol: float = DEFAULT_RANK_TOL, zero_floor: float = 0.0) -> RankDecision:
    """SVD-based rank of one matrix: count of singular values strictly
    above ``max(rel_tol * sigma_1, zero_floor)``, with the 1e-300 zero
    guard of the stacked rule (a batch of one)."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise UsageError(f"expected a 2-D matrix, got shape {m.shape}")
    if not _all_finite(m):
        raise UsageError("matrix has non-finite entries")
    _check_rel_tol(rel_tol)
    return _decide(m[None], rel_tol, np.array([float(zero_floor)]))[0]


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
    _check_rel_tol(rel_tol)
    xs = as_states(states, quantity.dim)
    J = jacobians(quantity, xs)
    # sqrt of the row dot product is bit-identical to np.linalg.norm of a row
    floors = rel_tol * np.maximum(1.0, np.sqrt(np.vecdot(xs, xs)))
    return _decide(J, rel_tol, floors)


def rank_level(quantity: ConservedQuantitySet, x, rel_tol: float = DEFAULT_RANK_TOL) -> RankDecision:
    """Numerical rank of the quantity's Jacobian at ``x`` (a batch of one
    through :func:`rank_levels`, with the same absolute floor)."""
    return rank_levels(quantity, as_state(x, quantity.dim)[None, :], rel_tol)[0]


def in_vanishing_set(
    quantity: ConservedQuantitySet,
    x,
    order: int,
    abs_tol: float = DEFAULT_VANISH_TOL,
) -> SetMembership:
    """Do all partials of all components up to ``order`` vanish at ``x``?

    The verdict is true iff every entry of the partial tensor is at most
    ``abs_tol * max(1, |x|)`` in magnitude.
    """
    if abs_tol <= 0:
        raise UsageError(f"abs_tol must be positive, got {abs_tol}")
    xv = as_state(x, quantity.dim)
    tensor = partial_tensor(quantity, xv, order)
    worst = tensor.max_abs()
    threshold = abs_tol * max(1.0, float(np.linalg.norm(xv)))
    verdict = worst <= threshold
    margin = (threshold / worst if worst > 0.0 else np.inf) if verdict else worst / threshold
    return SetMembership(
        set_kind="vanishing",
        parameter=order,
        verdict=verdict,
        residual=worst - threshold,
        margin=float(margin),
        threshold=threshold,
    )

