import numpy as np
import pytest

from invarsets import (
    ConservedQuantitySet,
    NumericError,
    UsageError,
    jacobian,
    partial_tensor,
    stack_quantities,
)
from invarsets import kepler, toda

from conftest import builtin_gradient_cases


def test_gradient_of_squared_norm():
    squared_norm = ConservedQuantitySet.scalar(2, lambda z: z @ z, "|z|^2")
    g = jacobian(squared_norm, np.array([1.0, 2.0]))
    assert np.allclose(g, [[2.0, 4.0]], atol=1e-9)


def test_gradient_of_i1_via_finite_differences():
    q = toda.henon_closed_form(4, 1)
    fd_only = ConservedQuantitySet(dim=8, k=1, value=q.value, labels=q.labels)
    g = jacobian(fd_only, np.random.default_rng(0).standard_normal(8))
    assert np.allclose(g, [[0, 0, 0, 0, 1, 1, 1, 1]], atol=1e-9)


def test_kepler_energy_gradient_matches_hand_formula():
    q = kepler.hamiltonian()
    fd_only = ConservedQuantitySet(dim=4, k=1, value=q.value, labels=q.labels)
    g = jacobian(fd_only, np.array([1.0, 0.0, 0.0, 1.0]))
    assert np.allclose(g, [[1.0, 0.0, 0.0, 1.0]], atol=1e-7)


def test_jacobian_example_periodic_pair():
    q = toda.periodic_invariants(3, (1, 2))
    J = jacobian(q, np.ones(6))
    assert np.allclose(J[0], [0, 0, 0, 1, 1, 1])
    assert np.allclose(J[1], [-1, -1, -1, 2, 2, 2])


def test_jacobian_constant_map_is_zero():
    q = ConservedQuantitySet(
        dim=3, k=2, value=lambda z: np.array([4.0, -1.0]), labels=("c1", "c2")
    )
    assert np.allclose(jacobian(q, np.array([0.3, 0.1, -2.0])), np.zeros((2, 3)), atol=1e-9)


def test_jacobian_example_nonperiodic_pair():
    q = toda.nonperiodic_invariants(3, (1, 2))
    J = jacobian(q, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert np.allclose(J[0], [0, 0, 1, 1, 1])
    assert np.allclose(J[1], [1, 1, 3, 4, 5])


def test_partial_tensor_polynomial_mixed_entry():
    q = ConservedQuantitySet.scalar(2, lambda z: z[0] ** 2 * z[1], "x1^2*x2")
    tensor = partial_tensor(q, np.array([1.0, 1.0]), 2)
    assert tensor.entry(0, (0, 1)) == pytest.approx(2.0, abs=1e-5)
    assert tensor.entry(0, (0, 0)) == pytest.approx(2.0, abs=1e-5)


def test_partial_tensor_circle_cubed_flat_to_second_order():
    q = ConservedQuantitySet.scalar(2, lambda z: (z[0] ** 2 + z[1] ** 2 - 1.0) ** 3, "g^3")
    tensor = partial_tensor(q, np.array([1.0, 0.0]), 2)
    assert max(float(np.max(np.abs(v))) for v in tensor.entries.values()) < 1e-4


def test_partial_tensor_linear_quantity_analytic_and_fd():
    q = toda.henon_closed_form(4, 1)  # carries an analytic partial provider
    x = np.random.default_rng(2).standard_normal(8)
    tensor = partial_tensor(q, x, 2)
    for j in range(8):
        for i in range(j, 8):
            assert tensor.entry(0, (j, i)) == 0.0
    fd_only = ConservedQuantitySet(dim=8, k=1, value=q.value, labels=q.labels)
    tensor_fd = partial_tensor(fd_only, x, 2)
    assert max(abs(tensor_fd.entry(0, (j, j))) for j in range(8)) < 1e-6


def test_partial_tensor_permutation_symmetry():
    q = ConservedQuantitySet.scalar(3, lambda z: z[0] * z[1] ** 2 * z[2], "poly")
    tensor = partial_tensor(q, np.array([0.7, -0.4, 1.2]), 3)
    assert tensor.entry(0, (0, 1, 2)) == tensor.entry(0, (2, 1, 0))
    assert tensor.entry(0, (1, 0, 2)) == tensor.entry(0, (0, 1, 2))


def test_partial_tensor_rejects_bad_multi_indices():
    q = ConservedQuantitySet.scalar(2, lambda z: z[0] * z[1], "xy")
    tensor = partial_tensor(q, np.array([1.0, 1.0]), 2)
    with pytest.raises(UsageError):
        tensor.entry(0, (0, 2))  # coordinate out of range
    with pytest.raises(UsageError):
        tensor.entry(0, (0, 0, 0))  # order above the tensor's
    with pytest.raises(UsageError):
        tensor.entry(1, (0,))  # component out of range


def test_partial_tensor_order_caps():
    q = ConservedQuantitySet.scalar(2, lambda z: z[0] ** 6, "x^6")
    with pytest.raises(UsageError, match="finite-difference cap"):
        partial_tensor(q, np.array([1.0, 0.0]), 5)
    limited = ConservedQuantitySet.scalar(2, lambda z: z[0], "x", smoothness_order=2)
    with pytest.raises(UsageError, match="smoothness"):
        partial_tensor(limited, np.array([1.0, 0.0]), 3)
    with pytest.raises(UsageError):
        partial_tensor(q, np.array([1.0, 0.0]), 0)


def test_gradient_non_finite_names_coordinate():
    blows_below_one = ConservedQuantitySet.scalar(
        2, lambda z: np.inf if z[0] < 0.999999 else 1.0, "blows"
    )
    with pytest.raises(NumericError, match="coordinate 0"):
        jacobian(blows_below_one, np.array([1.0, 1.0]))


@pytest.mark.parametrize("label,quantity,sampler", builtin_gradient_cases())
def test_analytic_gradients_match_finite_differences(label, quantity, sampler):
    fd_only = ConservedQuantitySet(
        dim=quantity.dim, k=quantity.k, value=quantity.value, labels=quantity.labels
    )
    for x in sampler(50, abs(hash(label)) % 2**31):
        exact = jacobian(quantity, x)
        approx = jacobian(fd_only, x)
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.max(np.abs(exact - approx)) / scale < 1e-6, label


def test_richardson_halving_step_obeys_truncation_bound():
    fn = ConservedQuantitySet.scalar(2, lambda z: float(np.exp(z[0]) * np.sin(z[1])), "f")
    x = np.array([0.3, 0.7])
    # use a step where the O(h^2) truncation term dominates round-off;
    # halving then changes entries by (1 - 1/4) * (h^2/6) f''' at most
    h = 1e-4
    g1 = jacobian(fn, x, step_scale=h)
    g2 = jacobian(fn, x, step_scale=h / 2.0)
    bound = (h**2 / 6.0) * np.e * 2.0
    assert np.max(np.abs(g1 - g2)) < bound
    assert np.max(np.abs(g1 - g2)) > 0.0  # the step change is visible, not noise


def test_derivative_blocks_match_between_stacked_and_parts():
    q1 = toda.henon_closed_form(3, 1)
    q2 = toda.henon_closed_form(3, 2)
    stacked = stack_quantities([q1, q2])
    x = np.random.default_rng(5).standard_normal(6)
    t = partial_tensor(stacked, x, 2)
    t1 = partial_tensor(q1, x, 2)
    t2 = partial_tensor(q2, x, 2)
    for alpha in t.entries:
        assert t.entry(0, alpha) == t1.entry(0, alpha)
        assert t.entry(1, alpha) == t2.entry(0, alpha)
