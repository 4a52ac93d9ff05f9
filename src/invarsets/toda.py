"""Periodic and non-periodic Toda lattices.

State layouts
-------------
periodic:      (X_1, ..., X_n, u_1, ..., u_n), indices modulo n (X_0 = X_n)
non-periodic:  (X_1, ..., X_{n-1}, u_1, ..., u_n), with X_0 = X_n = 0

Equations of motion in both cases:

    X_i' = X_i (u_i - u_{i+1}),      u_i' = X_{i-1} - X_i

The periodic lattice carries the polynomial first integrals I_m built by
summing products u_{i_1}...u_{i_k} (-X_{j_1})...(-X_{j_l}) over index
families in which i_1..i_k, j_1, j_1+1, ..., j_l, j_l+1 are pairwise
different modulo n and k + 2l = m.  The non-periodic lattice carries the
trace invariants F_k = tr(L^k)/k of its tridiagonal Lax matrix.  Each
lattice builds its quantities one way, :func:`periodic_invariants` and
:func:`nonperiodic_invariants`: closed forms with analytic gradients for
degrees 1 to 3 (and at most n).  Above them the values have oracle routes
only, the enumeration :func:`henon_invariant_oracle` (up to n = 8) and
the trace :func:`trace_invariant_value`.

On top of the invariants, this module ships the explicit invariant
families (rank-level sets of the invariant stacks): residual functions
measuring distance from each family, exact samplers, the provably empty
descriptors, and the reduced two-particle dynamics on the largest family
with its lift/restrict maps.

Physical note: all X_i are strictly positive for a mechanical lattice;
families with negative X_i are still valid solution sets of the equations
and are supported everywhere (boundedness of their orbits is not
guaranteed).  The mod-n index aliasing is centralized in per-n neighbour
index arrays, built once by ``_ring``, so value, gradient, and field code
cannot drift apart; gathering through them is bit-identical to np.roll.

The closed forms of I_1..I_3 and F_1..F_3 are functions of the
components (X, u), and a stack of them is one quantity that takes one
state or an ``(m, dim)`` stack and returns C-contiguous ``(..., k)``
values and ``(..., k, dim)`` gradients, each row equal bit for bit to the
single-state result (it is declared ``batched``).  They work components
first: the stack is transposed once into a contiguous ``(dim, m)`` array,
a point being a stack of one, and split once for all k forms; a sum over
components adds whole rows left to right from +0.0, the same way for a
point and for any stack.  A row of a stack is short (2n entries) and the
sample axis long, so one add per component over the samples costs less
than one reduction per sample; cubes are products and the mixed ``u X``
terms sums of products, so no ``pow`` or BLAS dot runs per entry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations
from typing import Callable, Mapping

import numpy as np

from .core import ConservedQuantitySet, SystemDefinition
from .errors import UsageError

MAX_ENUMERATION_N = 8


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------


def split_periodic(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    return x[..., :n], x[..., n:]


def split_nonperiodic(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    return x[..., : n - 1], x[..., n - 1 :]


@lru_cache(maxsize=None)
def _ring(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Right and left neighbour indices on the ring of n sites.

    ``np.take(v, nxt, axis=-1)`` equals ``np.roll(v, -1, axis=-1)`` and
    ``np.take(v, prv, axis=-1)`` equals ``np.roll(v, 1, axis=-1)``.
    """
    sites = np.arange(n)
    nxt, prv = (sites + 1) % n, (sites - 1) % n
    nxt.flags.writeable = False
    prv.flags.writeable = False
    return nxt, prv


def _check_size(n, what: str) -> None:
    """An integer lattice size n >= 2: a bool is not one, a numpy integer is."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
        raise UsageError(f"{what} need an integer lattice size n >= 2, got n={n!r}")


def periodic_field(n: int) -> SystemDefinition:
    """Periodic lattice of n particles; 2n-dimensional state (X, u)."""
    _check_size(n, "periodic lattices")
    nxt, prv = _ring(n)
    sites = np.arange(n)
    # (u_i - u_{i+1}, X_{i-1} - X_i) as one gathered difference
    minuend = np.concatenate([n + sites, prv])
    subtrahend = np.concatenate([n + nxt, sites])

    def field(z, _n=n, _a=minuend, _b=subtrahend):
        point = z.ndim == 1
        zt = z if point else z.T  # components first
        out = zt[_a] - zt[_b]
        out[:_n] *= zt[:_n]
        return out if point else out.T

    names = tuple(f"X{i}" for i in range(1, n + 1)) + tuple(f"u{i}" for i in range(1, n + 1))
    return SystemDefinition(2 * n, field, f"toda-periodic(n={n})", names, batched=True)


def nonperiodic_field(n: int) -> SystemDefinition:
    """Free-end lattice of n particles; (2n-1)-dimensional state (X, u)."""
    _check_size(n, "non-periodic lattices")

    def field(z, _n=n):
        zt = z.T  # components first, for a point or a stack
        X, u = zt[: _n - 1], zt[_n - 1 :]
        end = np.zeros((1,) + X.shape[1:])
        Xe = np.concatenate([end, X, end])  # X_0 .. X_n with zero ends
        return np.concatenate([X * (u[:-1] - u[1:]), Xe[:-1] - Xe[1:]]).T

    names = tuple(f"X{i}" for i in range(1, n)) + tuple(f"u{i}" for i in range(1, n + 1))
    return SystemDefinition(2 * n - 1, field, f"toda-nonperiodic(n={n})", names, batched=True)


# ---------------------------------------------------------------------------
# periodic invariants: enumeration and closed forms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _index_families(n: int, m: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All admissible (velocity-index, spring-index) families for degree m.

    A spring index j occupies both j and j+1 (mod n); families are kept in
    canonical sorted form so each product appears exactly once.
    """
    families = []
    for l in range(0, m // 2 + 1):
        k = m - 2 * l
        for J in combinations(range(n), l):
            clash = False
            for a, b in combinations(J, 2):
                if (a - b) % n in (0, 1, n - 1):
                    clash = True
                    break
            if clash:
                continue
            covered = set()
            for j in J:
                covered.add(j)
                covered.add((j + 1) % n)
            free = [i for i in range(n) if i not in covered]
            if len(free) < k:
                continue
            for I in combinations(free, k):
                families.append((I, J))
    return tuple(families)


def henon_invariant_oracle(n: int, m: int) -> ConservedQuantitySet:
    """Degree-m periodic invariant by direct enumeration (value only).

    Combinatorial guard: n <= 8.  Gradients of the result come from finite
    differences; the closed forms below are the analytic route for m <= 3.
    The value forms the same products in the same order on the last axis,
    so it is declared ``batched``.
    """
    _check_size(n, "periodic lattices")
    if n > MAX_ENUMERATION_N:
        raise UsageError(f"enumeration is guarded to n <= {MAX_ENUMERATION_N}, got n={n}")
    if not 1 <= m <= n:
        raise UsageError(f"invariant degree must satisfy 1 <= m <= n, got m={m}")
    families = _index_families(n, m)

    def value(z, _n=n, _fams=families):
        total = 0.0
        for I, J in _fams:
            term = 1.0
            for i in I:
                term *= z[..., _n + i]
            for j in J:
                term *= -z[..., j]
            total += term
        return np.asarray(total)[..., None]

    return ConservedQuantitySet(dim=2 * n, k=1, value=value, labels=(f"I{m}[enum]",), batched=True)


def _components(z, springs):
    """The spring rows X and particle rows u of a state or an ``(m, dim)``
    stack, split from one contiguous ``(dim, m)`` array."""
    zt = np.ascontiguousarray(z.reshape(-1, z.shape[-1]).T)
    return zt[:springs], zt[springs:]


def _total(rows):
    """The sum of the rows of a ``(j, m)`` array, left to right from +0.0:
    as numpy sums fewer than 8 entries, the same for a point and a stack."""
    total = rows[0] + 0.0
    for row in rows[1:]:
        total += row
    return total


def _i1_value(X, u):
    return _total(u)


def _i1_gradient(X, u):
    return np.zeros_like(X), np.ones_like(u)


def _i2_value(X, u):
    U = _total(u)
    return 0.5 * (U * U - _total(u * u)) - _total(X)


def _i2_gradient(X, u):
    return np.full_like(X, -1.0), _total(u) - u


def _i3_value(X, u):
    _, prv = _ring(len(u))
    U, uu = _total(u), u * u
    # sum over i1<i2<i3 of u u u via power sums
    triples = (U * U * U - 3.0 * U * _total(uu) + 2.0 * _total(uu * u)) / 6.0
    # mixed terms u_i X_j over j != i, j != i-1 (mod n)
    return triples - (U * _total(X) - _total(u * X) - _total(u * X[prv]))


def _i3_gradient(X, u):
    nxt, prv = _ring(len(u))
    U = _total(u)
    V = 0.5 * (U * U - _total(u * u))
    gX = -(U - u - u[nxt])
    gu = V - u * (U - u) - (_total(X) - X[prv] - X)
    return gX, gu


# degree -> (value, gradient) on the components (X, u); a gradient is its
# X and u blocks
_HENON_FORMS = {
    1: (_i1_value, _i1_gradient),
    2: (_i2_value, _i2_gradient),
    3: (_i3_value, _i3_gradient),
}


def _forms_quantity(dim: int, springs: int, labels, forms) -> ConservedQuantitySet:
    """The closed forms ``forms`` as one batched quantity: a state or a stack
    is split into its components once, and each form writes its row of the
    values and of the C-contiguous ``(..., k, dim)`` gradients."""
    k = len(forms)

    # a huge state overflows to inf or nan, which the consumers' finiteness checks name
    @np.errstate(over="ignore", invalid="ignore")
    def value(z):
        X, u = _components(z, springs)
        out = np.empty(z.shape[:-1] + (k,))
        rows = out.reshape(-1, k).T
        for i, (form, _) in enumerate(forms):
            rows[i] = form(X, u)
        return out

    @np.errstate(over="ignore", invalid="ignore")
    def gradient(z):
        X, u = _components(z, springs)
        out = np.empty(z.shape[:-1] + (k, dim))
        rows = out.reshape(-1, k, dim)
        for i, (_, form) in enumerate(forms):
            np.concatenate(form(X, u), out=rows[:, i].T)
        return out

    return ConservedQuantitySet(
        dim=dim, k=k, value=value, labels=tuple(labels), analytic_gradient=gradient, batched=True
    )


def periodic_invariants(n: int, degrees: tuple[int, ...] = (1, 2, 3)) -> ConservedQuantitySet:
    """Stack of closed-form periodic invariants, e.g. (I1, I2, I3), as one
    batched quantity."""
    _check_size(n, "periodic lattices")
    for m in degrees:
        if not 1 <= m <= n:
            raise UsageError(f"invariant degree must satisfy 1 <= m <= n, got m={m}")
        if m not in _HENON_FORMS:
            raise UsageError(f"closed forms cover m in {{1, 2, 3}}, got m={m}; use the enumeration henon_invariant_oracle")
    return _forms_quantity(2 * n, n, [f"I{m}" for m in degrees], [_HENON_FORMS[m] for m in degrees])


# ---------------------------------------------------------------------------
# non-periodic invariants: Lax matrix traces and closed forms
# ---------------------------------------------------------------------------


def _tridiagonal(diag, upper, lower=0.0) -> np.ndarray:
    """``(..., n, n)`` matrices from last-axis diagonals, each diagonal and
    super-diagonal entry plus 0.0 as in a sum of ``np.diag`` matrices."""
    n = diag.shape[-1]
    d, i = np.arange(n), np.arange(n - 1)
    out = np.zeros(diag.shape + (n,))
    out[..., d, d] = diag + 0.0
    out[..., i, i + 1] = upper + 0.0
    out[..., i + 1, i] = lower
    return out


def lax_matrices(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal Lax matrix L (diag u, super-diag X, sub-diag 1) and its
    strictly upper companion B (super-diag -X) for a non-periodic state, or
    ``(m, n, n)`` stacks of both for an ``(m, dim)`` stack of states."""
    _check_size(n, "Lax matrices")
    z = np.asarray(x, dtype=float)
    if z.shape[-1:] != (2 * n - 1,):
        raise UsageError(f"non-periodic state for n={n} has dimension {2 * n - 1}")
    X, u = split_nonperiodic(z, n)
    L = _tridiagonal(u, X, 1.0)
    B = np.zeros_like(L)
    B[..., np.arange(n - 1), np.arange(1, n)] = -X
    return L, B


def _per_state(v):
    return float(v) if np.ndim(v) == 0 else v  # a float for one state


def trace_invariant_value(n: int, k: int, x):
    """tr(L^k)/k, the oracle route for the non-periodic invariants: a float
    for one state, shape ``(m,)`` for a stack (stacked ``matrix_power`` and
    trace give each row's bits)."""
    _check_size(n, "Lax matrices")
    if not 1 <= k <= n:
        raise UsageError(f"trace invariant needs 1 <= k <= n, got k={k}")
    L, _ = lax_matrices(n, x)
    return _per_state(np.trace(np.linalg.matrix_power(L, k), axis1=-2, axis2=-1) / k)


def _f2_value(X, u):
    return _total(X) + 0.5 * _total(u * u)


def _f2_gradient(X, u):
    return np.ones_like(X), u


def _f3_value(X, u):
    return _total(X * (u[:-1] + u[1:])) + _total(u * u * u) / 3.0


def _f3_gradient(X, u):
    end = np.zeros((1, u.shape[1]))
    Xe = np.concatenate([end, X, end])  # X_0 .. X_n with zero ends
    return u[:-1] + u[1:], Xe[:-1] + Xe[1:] + u * u


# index -> (value, gradient) on the components (X, u); F1 is I1's form
_FLASCHKA_FORMS = {
    1: _HENON_FORMS[1],
    2: (_f2_value, _f2_gradient),
    3: (_f3_value, _f3_gradient),
}


def nonperiodic_invariants(n: int, degrees: tuple[int, ...] = (1, 2, 3)) -> ConservedQuantitySet:
    """Stack of closed-form non-periodic invariants, e.g. (F1, F2, F3), as
    one batched quantity."""
    _check_size(n, "non-periodic lattices")
    for k in degrees:
        if not 1 <= k <= n:
            raise UsageError(f"invariant index must satisfy 1 <= k <= n, got k={k}")
        if k not in _FLASCHKA_FORMS:
            raise UsageError(f"closed forms cover k in {{1, 2, 3}}, got k={k}; use the trace trace_invariant_value")
    return _forms_quantity(2 * n - 1, n - 1, [f"F{k}" for k in degrees], [_FLASCHKA_FORMS[k] for k in degrees])


def lax_commutator_residual(n: int, x):
    """max |dL/dt - (BL - LB)| with dL/dt assembled from the vector field:
    a float for one state, shape ``(m,)`` for a stack.

    Near zero certifies that the free-end lattice has the commutator form.
    The field and the matrix products run on the stack.
    """
    z = np.asarray(x, dtype=float)
    L, B = lax_matrices(n, z)
    Xdot, udot = split_nonperiodic(nonperiodic_field(n).field(z), n)
    residual = np.abs(_tridiagonal(udot, Xdot) - (B @ L - L @ B))
    return _per_state(residual.max(axis=(-2, -1)))


# ---------------------------------------------------------------------------
# explicit invariant families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplicitSetDescriptor:
    set_id: str
    lattice: str  # "periodic" | "nonperiodic"
    rank: int
    degrees: tuple[int, ...]  # invariant degrees whose stack the set classifies
    empty: bool = False
    empty_reason: str = ""


# Exact samples of the non-empty families: id -> (alternatives for even n,
# alternatives for odd n).  An alternative is its parameter names and a
# builder (n, *params) -> (X, u) of templates that repeat along the lattice:
# X over the n (periodic) or n - 1 (free-end) springs, u over the n particles.
# Odd-n M1_F23 is the union of two branches, one alternative each.
_SAMPLERS = {
    "M0_I3": (
        [(("X1", "u"), lambda n, X1, u: ([X1, u * (-u) - X1], [u, -u]))],
        [((), lambda n: ([0.0], [0.0]))],
    ),
    "M1_I13": (
        [(("X1", "X2", "u"), lambda n, X1, X2, u: ([X1, X2], [u, -u]))],
        [(("X",), lambda n, X: ([X], [0.0]))],
    ),
    "M1_I23": (
        [(("X1", "u1", "u2"),
          lambda n, X1, u1, u2: ([X1, -(n / 4.0) * (u1 + u2) ** 2 + u1 * u2 - X1], [u1, u2]))],
        [(("u",), lambda n, u: ([-0.5 * (n - 1) * u * u], [u]))],
    ),
    "M2_I123": (
        [(("X1", "X2", "u1", "u2"), lambda n, X1, X2, u1, u2: ([X1, X2], [u1, u2]))],
        [(("X", "u"), lambda n, X, u: ([X], [u]))],
    ),
    "M0_F3": (
        [(("u",), lambda n, u: ([u * (-u), 0.0], [u, -u]))],
        [((), lambda n: ([0.0], [0.0]))],
    ),
    "M1_F13": (
        [(("X", "u"), lambda n, X, u: ([X, 0.0], [u, -u]))],
        [((), lambda n: ([0.0], [0.0]))],
    ),
    "M1_F23": (
        [(("u1", "u2"), lambda n, u1, u2: ([u1 * u2, 0.0], [u1, u2]))],
        [(("u1",), lambda n, u1: ([0.0], [u1, 0.0])), (("u2",), lambda n, u2: ([0.0], [0.0, u2]))],
    ),
    "M2_F123": (
        [(("X", "u1", "u2"), lambda n, X, u1, u2: ([X, 0.0], [u1, u2]))],
        [(("u1", "u2"), lambda n, u1, u2: ([0.0], [u1, u2]))],
    ),
}


_PERIODIC_INDEPENDENCE = (
    "the gradients of I1 and I2 are linearly independent at every state "
    "(the X-block rows are 0 and -1), so the stack has rank >= 2 everywhere"
)
_NONPERIODIC_INDEPENDENCE = (
    "the gradients of F1 and F2 are linearly independent at every state "
    "(the X-block rows are 0 and 1), so the stack has rank >= 2 everywhere"
)

# The provably empty rank-level sets, with the reason each is empty.
_EMPTY_SETS = {
    "M0_I1": "the gradient of I1 is the constant vector (0,...,0,1,...,1), which never vanishes",
    "M0_I2": "the gradient of I2 has X-block identically -1, so it never vanishes",
    "M0_I12": _PERIODIC_INDEPENDENCE,
    "M1_I12": _PERIODIC_INDEPENDENCE,
    "M0_I13": "the gradient of I1 never vanishes, so the stack cannot have rank 0",
    "M0_I23": "the gradient of I2 never vanishes, so the stack cannot have rank 0",
    "M0_I123": _PERIODIC_INDEPENDENCE,
    "M1_I123": _PERIODIC_INDEPENDENCE,
    "M0_F1": "the gradient of F1 is the constant vector (0,...,0,1,...,1), which never vanishes",
    "M0_F2": "the gradient of F2 has X-block identically 1, so it never vanishes",
    "M0_F12": _NONPERIODIC_INDEPENDENCE,
    "M1_F12": _NONPERIODIC_INDEPENDENCE,
    "M0_F13": "the gradient of F1 never vanishes, so the stack cannot have rank 0",
    "M0_F23": "the gradient of F2 never vanishes, so the stack cannot have rank 0",
    "M0_F123": _NONPERIODIC_INDEPENDENCE,
    "M1_F123": _NONPERIODIC_INDEPENDENCE,
}


def _parse(set_id: str, empty_reason: str) -> ExplicitSetDescriptor:
    """The descriptor an id M<rank>_<I|F><degrees> spells."""
    rank, family = set_id[1:].split("_")
    lattice = "periodic" if family[0] == "I" else "nonperiodic"
    degrees = tuple(map(int, family[1:]))
    return ExplicitSetDescriptor(set_id, lattice, int(rank), degrees, bool(empty_reason), empty_reason)


EXPLICIT_SETS: dict[str, ExplicitSetDescriptor] = {
    set_id: _parse(set_id, _EMPTY_SETS.get(set_id, "")) for set_id in [*_SAMPLERS, *_EMPTY_SETS]
}


def _descriptor(set_id: str) -> ExplicitSetDescriptor:
    try:
        return EXPLICIT_SETS[set_id]
    except KeyError:
        raise UsageError(
            f"unknown explicit set id '{set_id}'; known ids: "
            f"{', '.join(sorted(EXPLICIT_SETS))}"
        ) from None


def _family(set_id: str, n) -> ExplicitSetDescriptor:
    """The descriptor of a non-empty family on a lattice of n >= 2 particles."""
    desc = _descriptor(set_id)
    if desc.empty:
        raise UsageError(f"set {desc.set_id} is provably empty: {desc.empty_reason}")
    _check_size(n, "explicit families")
    return desc


def explicit_set_quantity(set_id: str, n: int) -> ConservedQuantitySet:
    """The invariant stack whose rank-level set the id describes."""
    desc = _descriptor(set_id)
    if desc.lattice == "periodic":
        return periodic_invariants(n, desc.degrees)
    return nonperiodic_invariants(n, desc.degrees)


# The residuals act on the last axis: each family lists terms of shape (..., j)
# that vanish on it, and its residual is their largest magnitude.  Squares go
# through np.float_power, C pow as for one float's `**`; an array's `**` multiplies.


def _largest(terms) -> np.ndarray:
    return np.abs(np.concatenate(terms, axis=-1)).max(axis=-1, initial=0.0)


def _alternating(v: np.ndarray) -> list[np.ndarray]:
    """Deviations from the two-periodic pattern (v1, v2, v1, v2, ...)."""
    return [v[..., 2::2] - v[..., :1], v[..., 3::2] - v[..., 1:2]]


def _periodic_terms(n: int, X: np.ndarray, u: np.ndarray) -> dict[str, list]:
    if n % 2:
        flat_X, flat_u = X - X[..., :1], u - u[..., :1]
        parabola = X[..., :1] + 0.5 * (n - 1) * np.float_power(u[..., :1], 2)
        return {"M2_I123": [flat_X, flat_u], "M1_I13": [flat_X, u], "M1_I23": [flat_X, flat_u, parabola], "M0_I3": [X, u]}
    X1, X2, u1, u2 = X[..., :1], X[..., 1:2], u[..., :1], u[..., 1:2]
    pattern = _alternating(X) + _alternating(u)
    return {
        "M2_I123": pattern,
        "M1_I13": pattern + [u1 + u2],
        "M1_I23": pattern + [X1 + X2 + (n / 4.0) * np.float_power(u1 + u2, 2) - u1 * u2],
        "M0_I3": pattern + [u1 + u2, X1 + X2 - u1 * u2],
    }


def _nonperiodic_terms(n: int, X: np.ndarray, u: np.ndarray) -> dict[str, list]:
    if n % 2:
        # odd-n M1_F23 is the union of two branches: the nearer one counts
        branches = [_largest([X, u[..., 1 - b :: 2], u[..., b::2] - u[..., b : b + 1]]) for b in (0, 1)]
        nearer = np.minimum(*branches)[..., None]
        return {"M2_F123": [X] + _alternating(u), "M1_F23": [nearer], "M1_F13": [X, u], "M0_F3": [X, u]}
    Xv, u1, u2 = X[..., :1], u[..., :1], u[..., 1:2]
    pattern = [X[..., 2::2] - Xv, X[..., 1::2]] + _alternating(u)  # X is (Xv, 0, Xv, 0, ..., Xv)
    return {
        "M2_F123": pattern,
        "M1_F13": pattern + [u1 + u2],
        "M1_F23": pattern + [Xv - u1 * u2],
        "M0_F3": pattern + [u1 + u2, Xv - u1 * u2],
    }


def explicit_set_residual(set_id: str, n: int, x):
    """Maximum absolute violation of the family's defining equalities: a
    float for one state, shape ``(m,)`` for an ``(m, dim)`` stack.

    Zero (to round-off) certifies exact membership; the pattern part
    measures deviation from the repeating template and the rest measures
    the algebraic constraints among the template parameters.
    """
    desc = _family(set_id, n)
    z = np.asarray(x, dtype=float)
    periodic = desc.lattice == "periodic"
    dim = 2 * n if periodic else 2 * n - 1
    if z.shape[-1:] != (dim,):
        raise UsageError(f"{'' if periodic else 'non-'}periodic state for n={n} has dimension {dim}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing term is an inf residual
        if periodic:
            terms = _periodic_terms(n, *split_periodic(z, n))
        else:
            terms = _nonperiodic_terms(n, *split_nonperiodic(z, n))
        return _per_state(_largest(terms[set_id]))


def _pattern(lattice: str, n: int, X, u) -> np.ndarray:
    """The lattice state repeating the X and u templates."""
    springs = n if lattice == "periodic" else n - 1
    return np.concatenate([np.resize(X, springs), np.resize(u, n)], dtype=float)


def explicit_set_sample(set_id: str, n: int, params: Mapping[str, float] | None = None) -> np.ndarray:
    """A state lying exactly (to round-off) on the named family.

    ``params`` supplies the family's free coordinates; constrained
    coordinates are solved.  The odd-n M1_F23 family is a union of two
    branches selected by passing either ``u1`` or ``u2``.  Parameters
    whose state is not finite (a constrained coordinate that overflows)
    are a :class:`UsageError` naming the set and the parameters.
    """
    desc = _family(set_id, n)
    params = dict(params or {})
    alternatives = _SAMPLERS[set_id][n % 2]
    for names, build in alternatives:
        if set(names) == set(params):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    state = _pattern(desc.lattice, n, *build(n, *(params[k] for k in names)))
            except OverflowError:  # a float's ** raises where a product gives inf
                pass
            else:
                if np.isfinite(state).all():
                    return state
            raise UsageError(f"sample of {set_id} with parameters {params} is not a finite state")
    raise UsageError(
        f"sampler for {set_id} with {'odd' if n % 2 else 'even'} n expects parameters "
        f"{' or '.join(str(names) for names, _ in alternatives)}, got {tuple(sorted(params))}"
    )


# ---------------------------------------------------------------------------
# reduced dynamics on the largest families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducedDynamics:
    """Reduced system on a repeating family, with lift/restrict maps.

    ``lift(z, n)`` replicates reduced coordinates into the full lattice
    pattern; the same map carries reduced tangent vectors to full ones,
    and ``restrict(lift(z, n)) == z`` exactly.
    """

    system: SystemDefinition
    lift: Callable[[np.ndarray, int], np.ndarray]
    restrict: Callable[[np.ndarray], np.ndarray]


def reduced_dynamics(set_id: str) -> ReducedDynamics:
    """Two-particle dynamics on M2_I123 (periodic) or M2_F123 (non-periodic):
    the two-site lattice of the family's kind, whose state is the repeating
    unit of the family's pattern.  The lift is the family's even-n sampler
    on the reduced coordinates, whose names are the sampler's parameter names.
    """
    if set_id not in ("M2_I123", "M2_F123"):
        raise UsageError(f"no reduced dynamics for set '{set_id}' (supported: M2_I123, M2_F123)")
    lattice = EXPLICIT_SETS[set_id].lattice
    # the state of n particles has dimension 2n - free_end
    free_end = int(lattice != "periodic")
    [(names, build)] = _SAMPLERS[set_id][0]

    def restrict(x):
        x = np.asarray(x, dtype=float)
        n = (x.size + 1) // 2
        if n < 2 or x.shape != (2 * n - free_end,):
            raise UsageError(
                f"{set_id} restrict needs a {lattice} lattice state of dimension "
                f"{'2n - 1' if free_end else '2n'} with n >= 2, got shape {x.shape}"
            )
        return x[[*range(2 - free_end), n - free_end, n - free_end + 1]]  # two sites' springs, u1, u2

    def lift(z, n):
        _family(set_id, n)  # an integer n >= 2
        if n % 2:
            raise UsageError(f"{set_id} pattern lift needs even n, got n={n}")
        z = np.asarray(z, dtype=float)
        if z.shape != (len(names),):
            raise UsageError(f"{set_id} lift needs a reduced state of dimension {len(names)}, got {z.shape}")
        return _pattern(lattice, n, *build(n, *z))

    two_site = nonperiodic_field(2) if free_end else periodic_field(2)
    system = replace(two_site, label=f"toda-{lattice}-reduced", component_names=names)
    return ReducedDynamics(system=system, lift=lift, restrict=restrict)
