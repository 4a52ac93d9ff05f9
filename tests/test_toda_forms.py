"""The components-first Toda closed forms against the last-axis forms they
replaced, and against exact rational arithmetic.

The reference forms below reduce every state along its last axis, with
array powers and ``np.vecdot``.  On fewer than 8 terms numpy's sum adds left
to right from +0.0, as the components-first forms do, so at n <= 7 every
gradient and the values of I1, I2, F1 and F2 agree bit for bit, signed
zeros included.  The I3 and F3 values (``pow`` and the BLAS dot are gone)
and everything at n >= 8 (numpy sums pairwise there) agree to round-off.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from invarsets import toda
from invarsets.toda import _ring, split_nonperiodic, split_periodic

SETTINGS = settings(max_examples=40, deadline=None)

# ---------------------------------------------------------------------------
# the last-axis reference forms
# ---------------------------------------------------------------------------


def _sum(v):
    return v.sum(axis=-1, keepdims=True)


def _row(parts):
    return np.concatenate(parts, axis=-1)[..., None, :]


def ref_i1_value(z, n):
    return _sum(z[..., n:])


def ref_i2_value(z, n):
    X, u = split_periodic(z, n)
    U = _sum(u)
    return 0.5 * (U * U - _sum(u * u)) - _sum(X)


def ref_i2_gradient(z, n):
    X, u = split_periodic(z, n)
    return _row([np.full_like(X, -1.0), _sum(u) - u])


def ref_i3_value(z, n):
    X, u = split_periodic(z, n)
    _, prv = _ring(n)
    U = _sum(u)
    p2, p3 = _sum(u * u), _sum(u**3)
    triples = (U**3 - 3.0 * U * p2 + 2.0 * p3) / 6.0
    uX = np.vecdot(u, X)[..., None]
    uXprev = np.vecdot(u, np.take(X, prv, axis=-1))[..., None]
    return triples - (U * _sum(X) - uX - uXprev)


def ref_i3_gradient(z, n):
    X, u = split_periodic(z, n)
    nxt, prv = _ring(n)
    U = _sum(u)
    V = 0.5 * (U * U - _sum(u * u))
    gX = -(U - u - np.take(u, nxt, axis=-1))
    gu = V - u * (U - u) - (_sum(X) - np.take(X, prv, axis=-1) - X)
    return _row([gX, gu])


def ref_f1_value(z, n):
    return _sum(z[..., n - 1 :])


def ref_f2_value(z, n):
    X, u = split_nonperiodic(z, n)
    return _sum(X) + 0.5 * _sum(u * u)


def ref_f2_gradient(z, n):
    X, u = split_nonperiodic(z, n)
    return _row([np.ones_like(X), u])


def ref_f3_value(z, n):
    X, u = split_nonperiodic(z, n)
    return _sum(X * (u[..., :-1] + u[..., 1:])) + _sum(u**3) / 3.0


def ref_f3_gradient(z, n):
    X, u = split_nonperiodic(z, n)
    end = np.zeros(z.shape[:-1] + (1,))
    Xe = np.concatenate([end, X, end], axis=-1)
    return _row([u[..., :-1] + u[..., 1:], Xe[..., :-1] + Xe[..., 1:] + u * u])


# lattice -> degree -> (reference value, reference gradient or None for a
# constant one); the value is bit for bit at n <= 7 unless the degree is 3
REFERENCES = {
    "periodic": {
        1: (ref_i1_value, None),
        2: (ref_i2_value, ref_i2_gradient),
        3: (ref_i3_value, ref_i3_gradient),
    },
    "nonperiodic": {
        1: (ref_f1_value, None),
        2: (ref_f2_value, ref_f2_gradient),
        3: (ref_f3_value, ref_f3_gradient),
    },
}


def _form(lattice, n, degree):
    if lattice == "periodic":
        return toda.periodic_invariants(n, (degree,))
    return toda.nonperiodic_invariants(n, (degree,))


def _dim(lattice, n):
    return 2 * n if lattice == "periodic" else 2 * n - 1


# ---------------------------------------------------------------------------
# new forms against the reference
# ---------------------------------------------------------------------------

# moderate entries, signed zeros, subnormals and large entries whose cubes
# and cubed sums stay finite at n = 64
ENTRIES = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1.5e-315, 1e100, -1e100, 3.7e95]),
)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _close(new, ref, z, degree):
    """``new`` within 1e-13 of ``ref``, relative to max(1, |ref|) and to the
    size of the form's terms: the forms cancel (the power sums of I3 most),
    so two summation orders agree only to round-off on their largest term,
    which for entries of 1e100 dwarfs the value.  At moderate entries the
    terms are the value's size; ``test_seeded_states_agree_relative_to_the_value``
    and the exact check hold max(1, |value|) alone."""
    size = np.abs(z).sum(axis=-1)[..., None] ** degree
    scale = np.maximum(np.maximum(1.0, np.abs(ref)), size)
    assert np.all(np.abs(new - ref) <= 1e-13 * scale)


def assert_forms_match(lattice, n, zs, exact):
    """Every closed form of ``lattice`` on the stack ``zs`` and on each of its
    rows against the reference: bit for bit where ``exact`` allows it."""
    for degree, (ref_value, ref_gradient) in REFERENCES[lattice].items():
        if degree > n:  # F3 needs three particles
            continue
        q = _form(lattice, n, degree)
        for z in [zs, *(np.array(row) for row in zs)]:
            value, gradient = q.value(z), q.analytic_gradient(z)
            assert value.shape == z.shape[:-1] + (1,) and value.flags.c_contiguous
            assert gradient.shape == z.shape[:-1] + (1, z.shape[-1]) and gradient.flags.c_contiguous
            if exact and degree < 3:
                assert _bits(value) == _bits(ref_value(z, n))
            else:
                _close(value, ref_value(z, n), z, degree)
            if ref_gradient is None:
                continue
            if exact:
                assert _bits(gradient) == _bits(ref_gradient(z, n))
            else:
                _close(gradient, ref_gradient(z, n), z[..., None, :], degree - 1)


@SETTINGS
@given(lattice=st.sampled_from(["periodic", "nonperiodic"]), n=st.integers(2, 7), data=st.data())
def test_small_lattices_match_the_last_axis_forms(lattice, n, data):
    shape = st.tuples(st.integers(1, 12), st.just(_dim(lattice, n)))
    assert_forms_match(lattice, n, data.draw(arrays(np.float64, shape, elements=ENTRIES)), exact=True)


@settings(max_examples=15, deadline=None)
@given(lattice=st.sampled_from(["periodic", "nonperiodic"]), n=st.sampled_from([8, 16, 64]), data=st.data())
def test_large_lattices_match_the_last_axis_forms_to_round_off(lattice, n, data):
    shape = st.tuples(st.integers(1, 6), st.just(_dim(lattice, n)))
    assert_forms_match(lattice, n, data.draw(arrays(np.float64, shape, elements=ENTRIES)), exact=False)


@pytest.mark.parametrize("lattice", ["periodic", "nonperiodic"])
@pytest.mark.parametrize("n", [4, 7, 8, 16, 64])
def test_seeded_states_agree_relative_to_the_value(lattice, n):
    zs = np.random.default_rng(n).standard_normal((50, _dim(lattice, n)))
    for degree, (ref_value, ref_gradient) in REFERENCES[lattice].items():
        q = _form(lattice, n, degree)
        ref = ref_value(zs, n)
        assert np.all(np.abs(q.value(zs) - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
        if ref_gradient is not None:
            ref = ref_gradient(zs, n)
            assert np.all(np.abs(q.analytic_gradient(zs) - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


# ---------------------------------------------------------------------------
# exact rational arithmetic
# ---------------------------------------------------------------------------


def exact_i3(z, n):
    """I3 from the elementary symmetric e3(u), built one particle at a time,
    minus the mixed terms u_i X_j over j not in {i, i-1} (mod n)."""
    X, u = [Fraction(v) for v in z[:n]], [Fraction(v) for v in z[n:]]
    e1 = e2 = e3 = Fraction(0)
    for v in u:
        e1, e2, e3 = e1 + v, e2 + e1 * v, e3 + e2 * v
    Y = sum(X)
    return e3 - sum(u[i] * (Y - X[i] - X[i - 1]) for i in range(n))


def exact_f3(z, n):
    """tr(L^3)/3 over the nonzero entries of the tridiagonal Lax matrix."""
    X, u = [Fraction(v) for v in z[: n - 1]], [Fraction(v) for v in z[n - 1 :]]
    L = {(i, i): u[i] for i in range(n)}
    L.update({(i, i + 1): X[i] for i in range(n - 1)})
    L.update({(i + 1, i): Fraction(1) for i in range(n - 1)})
    trace = Fraction(0)
    for (i, j), a in L.items():
        for k in (j - 1, j, j + 1):
            if (j, k) in L and (k, i) in L:
                trace += a * L[j, k] * L[k, i]
    return trace / 3


@pytest.mark.parametrize("n", [3, 4, 7, 8, 16, 64])
def test_degree_three_values_against_exact_rationals(n):
    rng = np.random.default_rng(1000 + n)
    for lattice, exact in (("periodic", exact_i3), ("nonperiodic", exact_f3)):
        zs = rng.standard_normal((12, _dim(lattice, n)))
        values = _form(lattice, n, 3).value(zs)[:, 0]
        for z, value in zip(zs, values):
            truth = exact(z, n)
            error = abs(Fraction(float(value)) - truth)
            assert error <= Fraction(1e-13) * max(1, abs(truth)), (lattice, n, float(error))
