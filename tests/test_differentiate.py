import tracemalloc

import numpy as np
import pytest

from invarsets import (
    ConservedQuantitySet,
    NumericError,
    UsageError,
    jacobians,
    stack_quantities,
    vanishing_memberships,
)
from invarsets import kepler, toda
from invarsets.differentiate import (
    DEFAULT_STEP_SCALE,
    FD_CHUNK_STATES,
    _coordinate_steps,
    _partial_stack,
    _values,
)

from conftest import builtin_gradient_cases, trace_quantity


def test_gradient_of_squared_norm():
    squared_norm = ConservedQuantitySet.scalar(2, lambda z: z @ z, "|z|^2")
    g = jacobians(squared_norm, [[1.0, 2.0]])[0]
    assert np.allclose(g, [[2.0, 4.0]], atol=1e-9)


def test_gradient_of_i1_via_finite_differences():
    q = toda.periodic_invariants(4, (1,))
    fd_only = ConservedQuantitySet(dim=8, k=1, value=q.value, labels=q.labels)
    g = jacobians(fd_only, np.random.default_rng(0).standard_normal(8)[None])[0]
    assert np.allclose(g, [[0, 0, 0, 0, 1, 1, 1, 1]], atol=1e-9)


def test_kepler_energy_gradient_matches_hand_formula():
    q = kepler.hamiltonian()
    fd_only = ConservedQuantitySet(dim=4, k=1, value=q.value, labels=q.labels)
    g = jacobians(fd_only, [[1.0, 0.0, 0.0, 1.0]])[0]
    assert np.allclose(g, [[1.0, 0.0, 0.0, 1.0]], atol=1e-7)


def test_jacobian_example_periodic_pair():
    q = toda.periodic_invariants(3, (1, 2))
    J = jacobians(q, np.ones((1, 6)))[0]
    assert np.allclose(J[0], [0, 0, 0, 1, 1, 1])
    assert np.allclose(J[1], [-1, -1, -1, 2, 2, 2])


def test_jacobian_constant_map_is_zero():
    q = ConservedQuantitySet(
        dim=3, k=2, value=lambda z: np.array([4.0, -1.0]), labels=("c1", "c2")
    )
    assert np.allclose(jacobians(q, [[0.3, 0.1, -2.0]])[0], np.zeros((2, 3)), atol=1e-9)


def test_jacobian_example_nonperiodic_pair():
    q = toda.nonperiodic_invariants(3, (1, 2))
    J = jacobians(q, [[1.0, 2.0, 3.0, 4.0, 5.0]])[0]
    assert np.allclose(J[0], [0, 0, 1, 1, 1])
    assert np.allclose(J[1], [1, 1, 3, 4, 5])


def test_partial_tensor_polynomial_mixed_entry():
    q = ConservedQuantitySet.scalar(2, lambda z: z[0] ** 2 * z[1], "x1^2*x2")
    entries = _partial_stack(q, np.array([[1.0, 1.0]]), 2)
    assert entries[(0, 1)][0, 0] == pytest.approx(2.0, abs=1e-5)
    assert entries[(0, 0)][0, 0] == pytest.approx(2.0, abs=1e-5)


def test_partial_tensor_second_order_block():
    # the vanishing check's order-2 stack: the gradient from the analytic
    # rule, the upper-triangle second partials from nested differences
    q = ConservedQuantitySet.scalar(2, lambda z: z[0] * z[1], "xy", gradient=lambda z: np.array([z[1], z[0]]))
    entries = _partial_stack(q, np.array([[2.0, 3.0]]), 2)
    assert sorted(entries) == [(0,), (0, 0), (0, 1), (1,), (1, 1)]
    assert [entries[(j,)][0, 0] for j in range(2)] == [3.0, 2.0]
    second = [entries[idx][0, 0] for idx in ((0, 0), (0, 1), (1, 1))]
    assert np.allclose(second, [0.0, 1.0, 0.0], atol=1e-5)


def test_partial_tensor_circle_cubed_flat_to_second_order():
    q = ConservedQuantitySet.scalar(2, lambda z: (z[0] ** 2 + z[1] ** 2 - 1.0) ** 3, "g^3")
    entries = _partial_stack(q, np.array([[1.0, 0.0]]), 2)
    assert max(float(np.max(np.abs(v))) for v in entries.values()) < 1e-4


def test_partial_tensor_linear_quantity_analytic_and_fd():
    q = toda.periodic_invariants(4, (1,))
    xs = np.random.default_rng(2).standard_normal((1, 8))
    entries = _partial_stack(q, xs, 2)  # order 1 from the analytic gradient
    assert [entries[(j,)][0, 0] for j in range(8)] == [0.0] * 4 + [1.0] * 4
    fd_only = ConservedQuantitySet(dim=8, k=1, value=q.value, labels=q.labels)
    entries_fd = _partial_stack(fd_only, xs, 2)
    assert max(abs(entries_fd[(j, j)][0, 0]) for j in range(8)) < 1e-6


def test_partial_tensor_order_caps():
    q = ConservedQuantitySet.scalar(2, lambda z: z[0] ** 6, "x^6")
    with pytest.raises(UsageError, match="finite-difference cap"):
        _partial_stack(q, np.array([[1.0, 0.0]]), 5)
    with pytest.raises(UsageError):
        _partial_stack(q, np.array([[1.0, 0.0]]), 0)


def test_partial_count_bound_refuses_before_any_evaluation():
    # C(dim + order, order) - 1 distinct partials per component: 32
    # coordinates at order 3 make 6,544, which were evaluated one multi-index
    # at a time before any verdict; this quantity fails the test if called
    def never(*args):
        raise AssertionError("a refused stack evaluated its quantity")

    q = ConservedQuantitySet(dim=32, k=1, value=never, labels=("never",))
    with pytest.raises(UsageError, match="order 3 on dimension 32 needs 6544 partials per state"):
        _partial_stack(q, np.zeros((1, 32)), 3)
    with pytest.raises(UsageError, match="needs 6544 partials"):
        vanishing_memberships(q, np.zeros((4, 32)), 3)


def test_gradient_non_finite_names_coordinate():
    blows_below_one = ConservedQuantitySet.scalar(
        2, lambda z: np.inf if z[0] < 0.999999 else 1.0, "blows"
    )
    with pytest.raises(NumericError, match="coordinate 0"):
        jacobians(blows_below_one, [[1.0, 1.0]])


@pytest.mark.parametrize("label,quantity,sampler", builtin_gradient_cases())
def test_analytic_gradients_match_finite_differences(label, quantity, sampler):
    fd_only = ConservedQuantitySet(
        dim=quantity.dim, k=quantity.k, value=quantity.value, labels=quantity.labels
    )
    for x in sampler(50, abs(hash(label)) % 2**31):
        exact = jacobians(quantity, x[None])[0]
        approx = jacobians(fd_only, x[None])[0]
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.max(np.abs(exact - approx)) / scale < 1e-6, label


def test_derivative_blocks_match_between_stacked_and_parts():
    q1 = toda.periodic_invariants(3, (1,))
    q2 = toda.periodic_invariants(3, (2,))
    stacked = stack_quantities([q1, q2])
    xs = np.random.default_rng(5).standard_normal((1, 6))
    t = _partial_stack(stacked, xs, 2)
    t1 = _partial_stack(q1, xs, 2)
    t2 = _partial_stack(q2, xs, 2)
    for alpha in t:
        assert t[alpha][0, 0] == t1[alpha][0, 0]
        assert t[alpha][0, 1] == t2[alpha][0, 0]


# -- stacked finite differences ------------------------------------------------


def loop_jacobians(quantity, xs):
    """Central differences one coordinate and side at a time: the loop the
    stacked evaluation replaced."""
    h = _coordinate_steps(xs, DEFAULT_STEP_SCALE)
    J = np.empty((len(xs), quantity.k, quantity.dim))
    for j in range(quantity.dim):
        xp, xm = xs.copy(), xs.copy()
        xp[:, j] += h[:, j]
        xm[:, j] -= h[:, j]
        col = (_values(quantity, xp) - _values(quantity, xm)) / (2.0 * h[:, j, None])
        if not np.isfinite(col).all():
            raise NumericError(f"quantity is non-finite near x along coordinate {j}")
        J[:, :, j] = col
    return J


def _counted(quantity):
    """``quantity`` with its value calls recorded by input shape."""
    calls = []

    def value(z):
        calls.append(z.shape)
        return quantity.value(z)

    return ConservedQuantitySet(
        quantity.dim, quantity.k, value, quantity.labels, batched=quantity.batched
    ), calls


FD_QUANTITIES = {
    "batched enumeration": toda.henon_invariant_oracle(5, 3),
    "batched closed forms": ConservedQuantitySet(
        10, 3, toda.periodic_invariants(5).value, ("I1", "I2", "I3"), batched=True
    ),
    "undeclared trace": trace_quantity(5, 4),
}


@pytest.mark.parametrize("label", FD_QUANTITIES)
@pytest.mark.parametrize("m", [1, 401])
def test_stacked_differences_equal_the_coordinate_loop(label, m):
    quantity, calls = _counted(FD_QUANTITIES[label])
    xs = np.random.default_rng(m).standard_normal((m, quantity.dim))
    J = jacobians(quantity, xs)
    if quantity.batched:  # chunks of at most FD_CHUNK_STATES states, or one coordinate's pair
        assert all(shape[0] <= max(2 * m, FD_CHUNK_STATES) for shape in calls)
    else:  # one call per shifted state, each a point
        assert calls == [(quantity.dim,)] * (2 * quantity.dim * m)
    assert J.tobytes() == loop_jacobians(quantity, xs).tobytes()


def test_a_batched_oracle_sized_stack_is_one_call():
    quantity, calls = _counted(toda.henon_invariant_oracle(5, 2))
    jacobians(quantity, np.random.default_rng(0).standard_normal((100, 10)))
    assert calls == [(2 * 10 * 100, 10)]


def _failing(dim, x0, inf_along=(), raise_along=()):
    """A batched quantity that is +inf where a state exceeds ``x0`` along a
    coordinate in ``inf_along`` and raises :class:`NumericError` on a stack
    that holds a state shifted along one in ``raise_along``."""

    def value(z):
        if any(np.any(z[..., j] != x0[j]) for j in raise_along):
            raise NumericError("the quantity refused a shifted state")
        bad = np.zeros(z.shape[:-1], dtype=bool)
        for j in inf_along:
            bad |= z[..., j] > x0[j]
        return np.where(bad, np.inf, z.sum(axis=-1))[..., None]

    return ConservedQuantitySet(dim, 1, value, ("failing",), batched=True)


@pytest.mark.parametrize(
    "inf_along,raise_along,message",
    [
        ((4, 5), (), "non-finite near x along coordinate 4$"),
        ((2,), (5,), "non-finite near x along coordinate 2$"),
        ((4,), (1,), "refused a shifted state"),
        ((), (3,), "refused a shifted state"),
    ],
)
def test_the_first_failing_coordinate_of_a_chunk_raises(inf_along, raise_along, message):
    x0 = np.linspace(0.5, 1.0, 6)
    quantity = _failing(6, x0, inf_along, raise_along)
    for differences in (jacobians, loop_jacobians):
        with pytest.raises(NumericError, match=message):
            differences(quantity, x0[None])


@pytest.mark.parametrize("batched", [True, False])
def test_a_wrong_shape_is_named_on_the_callers_stack(batched):
    # two columns for k = 1: the message gives the shape of a call on the
    # 5-state stack, not on a chunk of 30 shifted states
    wide = ConservedQuantitySet(3, 1, lambda z: z[..., :2], ("wide",), batched=batched)
    xs = np.random.default_rng(2).standard_normal((5, 3))
    expected = r"\(5, 2\), expected \(5, 1\)" if batched else r"\(2,\), expected \(1,\)"
    for differences in (jacobians, loop_jacobians):
        with pytest.raises(UsageError, match=f"quantity 'wide' returned shape {expected}$"):
            differences(wide, xs)


def test_finite_differences_at_dim_512_hold_a_bounded_chunk():
    quantity = ConservedQuantitySet(
        512, 1, lambda z: z[..., :1] * z[..., 1:2], ("x0 x1",), batched=True
    )
    xs = np.random.default_rng(4).standard_normal((401, 512))
    tracemalloc.start()
    try:
        J = jacobians(quantity, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(J[:, 0, 2:], np.zeros((401, 510)))
    # every shifted copy at once would be 2 * 512 * 401 * 512 * 8 bytes, 1.7 GB
    assert peak < 32 * 2**20
