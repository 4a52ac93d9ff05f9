"""Every check classifies on the (samples, dim) stack: the vanishing
classifier, the explicit-set residuals and the Toda oracles give, row by row
and bit for bit, what the single-state routines they replaced give.

The point routines below are those replaced routines, kept here only as the
reference."""

from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from invarsets import (
    ConservedQuantitySet,
    IntegratorSettings,
    UsageError,
    oscillator,
    toda,
    vanishing_memberships,
    verify_set_persistence,
)
from invarsets.differentiate import EPS, _partial_stack

from conftest import squared_radius

FINITE = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
SETTINGS = settings(max_examples=15, deadline=None)


def _stack(dim, max_rows=8):
    return arrays(np.float64, st.tuples(st.integers(1, max_rows), st.just(dim)), elements=FINITE)


# -- vanishing sets ----------------------------------------------------------


def _point_central(value_fn, x, alpha, steps):
    if not alpha:
        return np.atleast_1d(np.asarray(value_fn(x), dtype=float))
    j = alpha[0]
    xp, xm = x.copy(), x.copy()
    xp[j] += steps[j]
    xm[j] -= steps[j]
    fp = _point_central(value_fn, xp, alpha[1:], steps)
    fm = _point_central(value_fn, xm, alpha[1:], steps)
    return (fp - fm) / (2.0 * steps[j])


def _point_partials(quantity, x, order):
    """The single-state partial tensor: a Jacobian, or nested central
    differences at x alone."""
    entries = {}
    for level in range(1, order + 1):
        alphas = combinations_with_replacement(range(quantity.dim), level)
        if level == 1 and quantity.analytic_gradient is not None:
            J = np.asarray(quantity.analytic_gradient(x), dtype=float).reshape(quantity.k, quantity.dim)
            entries.update(((j,), J[:, j].copy()) for j in range(quantity.dim))
        else:
            steps = (EPS ** (1.0 / (level + 2))) * np.maximum(1.0, np.abs(x))
            for alpha in alphas:
                entries[alpha] = _point_central(quantity.value, x, alpha, steps)
    return entries


def _point_vanishing(quantity, x, order, abs_tol):
    """(verdict, residual, margin, threshold) as the per-sample check formed them."""
    worst = max(float(np.max(np.abs(v))) for v in _point_partials(quantity, x, order).values())
    threshold = abs_tol * max(1.0, float(np.linalg.norm(x)))
    verdict = worst <= threshold
    margin = (threshold / worst if worst > 0.0 else np.inf) if verdict else worst / threshold
    return verdict, worst - threshold, float(margin), threshold


I3 = toda.periodic_invariants(4, (3,))
VANISHING_CASES = [
    # (label, quantity, states always in the stack): the extra rows sit on
    # the vanishing sets, so inside and outside verdicts both occur
    ("batched-gradient", I3, np.zeros((1, 8))),
    ("batched-fd", ConservedQuantitySet(8, 1, I3.value, I3.labels, batched=True), np.zeros((1, 8))),
    ("point-gradient", oscillator.unit_circle_power(3), np.array([[1.0, 0.0], [0.6, 0.8]])),
    ("point-gradient-quadratic", squared_radius(), np.zeros((1, 2))),
    (
        "point-fd",
        ConservedQuantitySet(2, 1, lambda z: np.array([(z[0] ** 2 + z[1] ** 2 - 1.0) ** 3]), ("fd",)),
        np.array([[1.0, 0.0], [0.0, -1.0]]),
    ),
]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("label,quantity,on_set", VANISHING_CASES, ids=[c[0] for c in VANISHING_CASES])
@SETTINGS
@given(data=st.data())
def test_vanishing_stack_equals_the_per_sample_check(label, quantity, on_set, order, data):
    xs = np.vstack([on_set, data.draw(_stack(quantity.dim))])
    tol = 1e-8 if order == 1 else 1e-4
    members = vanishing_memberships(quantity, xs, order, tol)
    for i, x in enumerate(xs):
        point = np.array(x)
        expected = _point_vanishing(quantity, point, order, tol)
        found = (members.verdicts[i], members.residuals[i], members.margins[i], members.thresholds[i])
        assert found == expected
        one = vanishing_memberships(quantity, point[None], order, tol)
        assert (one.verdicts[0], one.residuals[0], one.margins[0], one.thresholds[0]) == expected
        entries = _partial_stack(quantity, point[None], order)
        reference = _point_partials(quantity, point, order)
        assert entries.keys() == reference.keys()
        assert all(np.array_equal(entries[a][0], reference[a]) for a in reference)


# -- explicit-set residuals ----------------------------------------------------


def _point_alternating(v):
    if v.size <= 2:
        return 0.0
    return float(max(np.max(np.abs(v[2::2] - v[0])), np.max(np.abs(v[3::2] - v[1])) if v.size > 3 else 0.0))


def _point_constant(v):
    return float(np.max(np.abs(v - v[0]))) if v.size else 0.0


def _point_zero_interleaved(X):
    dev = np.max(np.abs(X[2::2] - X[0])) if X.size > 2 else 0.0
    if X.size > 1:
        dev = max(dev, np.max(np.abs(X[1::2])))
    return float(dev)


def _point_periodic(set_id, n, X, u):
    if n % 2 == 0:
        pattern = max(_point_alternating(X), _point_alternating(u))
        X1, X2, u1, u2 = X[0], X[1], u[0], u[1]
        return {
            "M2_I123": lambda: pattern,
            "M1_I13": lambda: max(pattern, abs(u1 + u2)),
            "M1_I23": lambda: max(pattern, abs(X1 + X2 + (n / 4.0) * (u1 + u2) ** 2 - u1 * u2)),
            "M0_I3": lambda: max(pattern, abs(u1 + u2), abs(X1 + X2 - u1 * u2)),
        }[set_id]()
    return {
        "M2_I123": lambda: max(_point_constant(X), _point_constant(u)),
        "M1_I13": lambda: max(_point_constant(X), float(np.max(np.abs(u)))),
        "M1_I23": lambda: max(
            _point_constant(X), _point_constant(u), abs(X[0] + 0.5 * (n - 1) * u[0] ** 2)
        ),
        "M0_I3": lambda: float(max(np.max(np.abs(X)), np.max(np.abs(u)))),
    }[set_id]()


def _point_nonperiodic(set_id, n, X, u):
    if n % 2 == 0:
        pattern = max(_point_zero_interleaved(X), _point_alternating(u))
        Xv, u1, u2 = X[0], u[0], u[1]
        return {
            "M2_F123": lambda: pattern,
            "M1_F13": lambda: max(pattern, abs(u1 + u2)),
            "M1_F23": lambda: max(pattern, abs(Xv - u1 * u2)),
            "M0_F3": lambda: max(pattern, abs(u1 + u2), abs(Xv - u1 * u2)),
        }[set_id]()
    zero_X = float(np.max(np.abs(X))) if X.size else 0.0
    if set_id == "M1_F23":
        branch1 = max(zero_X, float(np.max(np.abs(u[1::2]))), _point_constant(u[0::2]))
        branch2 = max(zero_X, float(np.max(np.abs(u[0::2]))), _point_constant(u[1::2]))
        return min(branch1, branch2)
    if set_id == "M2_F123":
        return max(zero_X, _point_alternating(u))
    return float(max(zero_X, np.max(np.abs(u))))


def _point_residual(set_id, n, x):
    if toda.EXPLICIT_SETS[set_id].lattice == "periodic":
        return _point_periodic(set_id, n, x[:n], x[n:])
    return _point_nonperiodic(set_id, n, x[: n - 1], x[n - 1 :])


NON_EMPTY = sorted(d.set_id for d in toda.EXPLICIT_SETS.values() if not d.empty)


def _family_samples(set_id, n, rng):
    """Exact samples of the family from random parameters, three for each
    sampling alternative (each branch of odd-n M1_F23 is one)."""
    return [
        toda.explicit_set_sample(set_id, n, {k: rng.standard_normal() for k in names})
        for names, _ in toda._SAMPLERS[set_id][n % 2]
        for _ in range(3)
    ]


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("set_id", NON_EMPTY)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_explicit_set_residual_stack_equals_points(set_id, n, data):
    dim = 2 * n if toda.EXPLICIT_SETS[set_id].lattice == "periodic" else 2 * n - 1
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    on_set = np.array(_family_samples(set_id, n, rng))
    noise = data.draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    near = on_set + noise * rng.standard_normal(on_set.shape)
    xs = np.vstack([on_set, near, data.draw(_stack(dim))])
    found = toda.explicit_set_residual(set_id, n, xs)
    assert found.shape == (len(xs),)
    for i, x in enumerate(xs):
        expected = _point_residual(set_id, n, np.array(x))
        assert found[i] == expected
        single = toda.explicit_set_residual(set_id, n, np.array(x))
        assert type(single) is float and single == expected
    assert np.all(found[: len(on_set)] < 1e-12)


@pytest.mark.parametrize("n", [4, 5])
def test_squared_terms_round_as_the_point_power(n):
    # a float's ** 2 is C pow, which rounds differently from x * x for about
    # one value in a thousand: many rows, so a multiplication would show
    xs = np.random.default_rng(n).standard_normal((20000, 2 * n)) * 3.0
    found = toda.explicit_set_residual("M1_I23", n, xs)
    assert all(found[i] == _point_residual("M1_I23", n, x) for i, x in enumerate(xs))


# -- Toda oracles --------------------------------------------------------------


def _point_henon(z, n, families):
    X, u = z[:n], z[n:]
    total = 0.0
    for I, J in families:
        term = 1.0
        for i in I:
            term *= u[i]
        for j in J:
            term *= -X[j]
        total += term
    return np.array([total])


@SETTINGS
@given(n=st.integers(2, 8), data=st.data())
def test_henon_enumeration_rows_equal_point_calls(n, data):
    xs = data.draw(_stack(2 * n))
    for m in range(1, n + 1):
        enum = toda.henon_invariant_oracle(n, m)
        assert enum.batched
        rows = enum.value(xs)
        assert rows.shape == (len(xs), 1)
        families = toda._index_families(n, m)
        for i, x in enumerate(xs):
            point = np.array(x)
            assert np.array_equal(rows[i], _point_henon(point, n, families))
            assert np.array_equal(rows[i], enum.value(point))


def _point_lax(n, z):
    X, u = z[: n - 1], z[n - 1 :]
    L = np.diag(u) + np.diag(X, 1) + np.diag(np.ones(n - 1), -1)
    return L, np.diag(-X, 1)


def _point_trace(n, k, z):
    return float(np.trace(np.linalg.matrix_power(_point_lax(n, z)[0], k)) / k)


def _point_commutator(n, z):
    zdot = toda.nonperiodic_field(n).field(z)
    Ldot = np.diag(zdot[n - 1 :]) + np.diag(zdot[: n - 1], 1)
    L, B = _point_lax(n, z)
    return float(np.max(np.abs(Ldot - (B @ L - L @ B))))


@SETTINGS
@given(n=st.integers(2, 8), data=st.data())
def test_stacked_trace_and_lax_residuals_equal_point_calls(n, data):
    xs = data.draw(_stack(2 * n - 1))
    L, B = toda.lax_matrices(n, xs)
    assert L.shape == B.shape == (len(xs), n, n)
    lax = toda.lax_commutator_residual(n, xs)
    traces = {k: toda.trace_invariant_value(n, k, xs) for k in range(1, n + 1)}
    for i, x in enumerate(xs):
        point = np.array(x)
        L1, B1 = _point_lax(n, point)
        assert np.array_equal(L[i], L1) and np.array_equal(B[i], B1)
        assert lax[i] == _point_commutator(n, point) == toda.lax_commutator_residual(n, point)
        for k, values in traces.items():
            assert values[i] == _point_trace(n, k, point) == toda.trace_invariant_value(n, k, point)


# -- the set-persistence contract ------------------------------------------------


def point_residual(z):
    return abs(z[-1])


def one_value(zs):
    return np.zeros(1)


@pytest.mark.parametrize(
    "residual,shape",
    [(point_residual, "(2,)"), (lambda zs: np.zeros((len(zs), 1)), "(1, 1)"), (one_value, "(1,)")],
    ids=["point-form", "column", "start-only"],
)
def test_set_persistence_rejects_a_residual_of_the_wrong_shape(residual, shape):
    # a point residual on the stack of one start returns its last row; a
    # residual that fits the start fails on the samples
    with pytest.raises(UsageError, match=r"set residual .* returned shape") as info:
        verify_set_persistence(
            oscillator.harmonic_oscillator(), residual, [1.0, 0.0], 1.0,
            integ=IntegratorSettings(sample_count=5), tolerances={"residual": 1e-6},
        )
    assert residual.__name__ in str(info.value)
    assert f"returned shape {shape}" in str(info.value)
