import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from invarsets import (
    ConservedQuantitySet,
    NumericError,
    SystemDefinition,
    UsageError,
    as_state,
    conservation_residual,
    evaluate_field,
    stack_quantities,
    zero_quantity,
)
from invarsets.core import _all_finite, format_float
from invarsets import kepler, oscillator, toda

from conftest import random_kepler_states, random_states


def test_harmonic_field_value():
    sys2 = oscillator.harmonic_oscillator()
    assert np.array_equal(evaluate_field(sys2, [1.0, 0.0]), [0.0, -1.0])


def test_periodic_toda_field_example():
    sys4 = toda.periodic_field(4)
    out = evaluate_field(sys4, [1, 2, 3, 4, 1, 0, -1, 0])
    assert np.array_equal(out, [1, 2, -3, -4, 3, -1, -1, -1])


def test_periodic_toda_equilibrium_family():
    sys3 = toda.periodic_field(3)
    out = evaluate_field(sys3, [0.7, 0.7, 0.7, 0.0, 0.0, 0.0])
    assert np.array_equal(out, np.zeros(6))
    # any constant (X, ..., X, u, ..., u) is an equilibrium
    out = evaluate_field(sys3, [0.7, 0.7, 0.7, 0.3, 0.3, 0.3])
    assert np.array_equal(out, np.zeros(6))


def test_dimension_mismatch_is_usage_error():
    sys2 = oscillator.harmonic_oscillator()
    with pytest.raises(UsageError):
        evaluate_field(sys2, [1.0, 0.0, 0.0])


def test_non_finite_field_output_is_numeric_error():
    bad = SystemDefinition(dim=2, field=lambda z: np.array([np.inf, 0.0]), label="bad")
    with pytest.raises(NumericError, match="component 0"):
        evaluate_field(bad, [1.0, 0.0])


# non-finite entries, subnormals and values near the top of the range
EDGE_FLOATS = [np.inf, -np.inf, np.nan, 5e-324, -2.2e-308, 1e300, -1.7e308, 0.0]


@given(
    arrays(
        float,
        array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
        elements=st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=True, allow_infinity=True),
    )
)
def test_all_finite_equals_isfinite_all_and_never_warns(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _all_finite(a)
    assert got == np.isfinite(a).all()


def test_non_finite_state_rejected():
    with pytest.raises(UsageError, match="component 1"):
        as_state([0.0, np.nan])


def test_field_purity_bit_for_bit():
    sys4 = toda.periodic_field(4)
    x = random_states(8, 1, 7)[0]
    a = evaluate_field(sys4, x)
    b = evaluate_field(sys4, x)
    assert np.array_equal(a, b)


def test_conservation_residual_rotational_symmetry_exact():
    sys2 = oscillator.harmonic_oscillator()
    res = conservation_residual(oscillator.squared_radius(), sys2, [0.3, -0.8])
    assert res[0] == 0.0


def test_conservation_residual_nonconserved_probe():
    sys2 = oscillator.harmonic_oscillator()
    probe = ConservedQuantitySet.scalar(
        2, lambda z: z[0], "x1", gradient=lambda z: np.array([1.0, 0.0])
    )
    res = conservation_residual(probe, sys2, [1.0, 1.0])
    assert res[0] == pytest.approx(1.0)


def test_conservation_residual_i2_periodic_random():
    sys4 = toda.periodic_field(4)
    q = toda.henon_closed_form(4, 2)
    for x in random_states(8, 10, 3):
        assert abs(conservation_residual(q, sys4, x)[0]) < 1e-10 * max(1, np.linalg.norm(x))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_all_periodic_invariants_conserved_at_random_states(n):
    sys_n = toda.periodic_field(n)
    q = toda.periodic_invariants(n)
    for x in random_states(2 * n, 100, 11 + n):
        res = conservation_residual(q, sys_n, x)
        assert np.max(np.abs(res)) < 1e-9 * max(1.0, np.linalg.norm(x))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_all_nonperiodic_invariants_conserved_at_random_states(n):
    sys_n = toda.nonperiodic_field(n)
    q = toda.nonperiodic_invariants(n)
    for x in random_states(2 * n - 1, 100, 17 + n):
        res = conservation_residual(q, sys_n, x)
        assert np.max(np.abs(res)) < 1e-9 * max(1.0, np.linalg.norm(x))


def test_kepler_invariants_conserved_at_random_states():
    sysk = kepler.kepler_field()
    q = kepler.kepler_quantities(1.0)
    for x in random_kepler_states(100, 23):
        res = conservation_residual(q, sysk, x)
        assert np.max(np.abs(res)) < 1e-9 * max(1.0, np.linalg.norm(x))


def test_stack_roundtrip():
    q = toda.periodic_invariants(4)
    assert q.k == 3 and q.labels == ("I1", "I2", "I3")
    x = random_states(8, 1, 5)[0]
    for i in range(3):
        assert toda.henon_closed_form(4, i + 1).values_at(x)[0] == q.values_at(x)[i]


def test_stack_dimension_checks():
    with pytest.raises(UsageError):
        stack_quantities([])
    with pytest.raises(UsageError):
        stack_quantities([oscillator.squared_radius(), toda.henon_closed_form(3, 1)])


def test_zero_quantity_is_flat():
    z = zero_quantity(5)
    x = random_states(5, 1, 9)[0]
    assert z.values_at(x)[0] == 0.0
    assert np.array_equal(z.analytic_gradient(x), np.zeros((1, 5)))


def test_k_cannot_exceed_dim():
    with pytest.raises(UsageError):
        ConservedQuantitySet(dim=2, k=3, value=lambda x: np.zeros(3), labels=("a", "b", "c"))


def test_float_serialization_roundtrip():
    values = random_states(50, 1, 31)[0] * np.pi
    text = [format_float(v) for v in values]
    back = np.array([float(s) for s in text])
    assert np.array_equal(back, values)
    assert format_float(0.1) == "0.10000000000000001"
