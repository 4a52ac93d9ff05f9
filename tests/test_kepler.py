import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from invarsets import (
    NumericError,
    UsageError,
    agreement_residual,
    evaluate_field,
    flow_adaptive,
    rank_level,
)
from invarsets import kepler

from conftest import random_kepler_states


def test_field_values():
    sysk = kepler.kepler_field()
    assert np.allclose(evaluate_field(sysk, [0, 1, 1, 0]), [1, 0, 0, -1], atol=0)
    assert np.allclose(evaluate_field(sysk, [1, 0, 0, 1]), [0, 1, -1, 0], atol=0)
    assert np.allclose(evaluate_field(sysk, [2, 0, 0, 0]), [0, 0, -0.25, 0], atol=0)


def test_field_singular_at_origin():
    with pytest.raises(NumericError):
        evaluate_field(kepler.kepler_field(), [0.0, 0.0, 1.0, 0.0])


def _numpy_scalar_forms(a):
    """Each Kepler closed form beside its formula on numpy scalars; a
    formula returns the radius power its singularity test reads (None
    where there is none) and its value."""
    c, inv_a3 = -1.0 / a**3, 1.0 / a**3

    def field(z):
        x1, x2, y1, y2 = z
        r2 = x1 * x1 + x2 * x2
        r3 = r2 * np.sqrt(r2)
        return r3, np.array([y1, y2, -x1 / r3, -x2 / r3])

    def h_value(z):
        x1, x2, y1, y2 = z
        r = np.sqrt(x1 * x1 + x2 * x2)
        return r, 0.5 * (y1 * y1 + y2 * y2) - 1.0 / r

    def h_grad(z):
        x1, x2, y1, y2 = z
        r2 = x1 * x1 + x2 * x2
        r3 = r2 * np.sqrt(r2)
        return r3, np.array([x1 / r3, x2 / r3, y1, y2])

    return {
        "field": (kepler.kepler_field().field, field),
        "H-value": (kepler.hamiltonian().value, h_value),
        "H-gradient": (kepler.hamiltonian().analytic_gradient, h_grad),
        "A-value": (kepler.angular_momentum().value, lambda z: (None, z[0] * z[3] - z[1] * z[2])),
        "A-gradient": (
            kepler.angular_momentum().analytic_gradient,
            lambda z: (None, np.array([z[3], -z[2], -z[1], z[0]])),
        ),
        "pair-value": (
            kepler.linear_pair_hamiltonian(a).value,
            lambda z: (None, c * (z[0] * z[3] - z[1] * z[2])),
        ),
        "pair-gradient": (
            kepler.linear_pair_hamiltonian(a).analytic_gradient,
            lambda z: (None, c * np.array([z[3], -z[2], -z[1], z[0]])),
        ),
        "pair-field": (
            kepler.linear_pair_field(a).field,
            lambda z: (None, np.array([z[1] * inv_a3, -z[0] * inv_a3, z[3] * inv_a3, -z[2] * inv_a3])),
        ),
    }


# zero, or a magnitude from 1e-150 to 1e200 with either sign
MAGNITUDES = st.just(0.0) | st.builds(
    lambda sign, exponent, mantissa: sign * mantissa * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.integers(-150, 199),
    st.floats(1.0, 10.0, exclude_max=True),
)


@given(z=st.lists(MAGNITUDES, min_size=4, max_size=4), a=st.sampled_from([0.5, 1.0, 1.3, 2.0]))
@example(z=[1e-110, 0.0, 0.0, 1.0], a=1.0)  # |x|^3 underflows
@example(z=[1e100, 0.0, 0.0, 1e150], a=1.0)  # |x|^2 overflows
def test_closed_forms_equal_numpy_scalar_formulas_bit_for_bit(z, a):
    x = np.array(z)
    for name, (form, reference) in _numpy_scalar_forms(a).items():
        with np.errstate(all="ignore"):
            radius, expected = reference(x)
        if radius == 0.0:  # at the origin, or |x|^3 underflows
            with pytest.raises(NumericError, match="singular at the origin"):
                form(x)
            continue
        got = np.asarray(form(x), dtype=float).ravel()
        assert got.tobytes() == np.asarray(expected, dtype=float).ravel().tobytes(), name


def test_invariant_values_at_reference_state():
    x = np.array([0.0, 1.0, 1.0, 0.0])
    assert kepler.hamiltonian().values_at(x)[0] == pytest.approx(-0.5)
    assert kepler.angular_momentum().values_at(x)[0] == pytest.approx(-1.0)
    assert kepler.combined_invariant(1.0).values_at(x)[0] == pytest.approx(-1.5)
    assert kepler.angular_momentum().values_at([1.0, 0.0, 0.0, 1.0])[0] == pytest.approx(1.0)


def test_combined_invariant_gradient_vanishes_on_circle():
    q = kepler.combined_invariant(1.0)
    g = q.analytic_gradient(np.array([0.0, 1.0, 1.0, 0.0]))
    assert np.max(np.abs(g)) < 1e-15


def test_circular_samples_and_rank():
    for a in (0.5, 1.0, 2.0):
        q = kepler.combined_invariant(a)
        H = kepler.hamiltonian()
        G = kepler.linear_pair_hamiltonian(a)
        for theta in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
            x = kepler.circular_sample(a, theta)
            assert np.hypot(x[0], x[1]) == pytest.approx(a * a, rel=1e-14)
            assert np.hypot(x[2], x[3]) == pytest.approx(1.0 / a, rel=1e-14)
            assert abs(x[0] * x[2] + x[1] * x[3]) < 1e-14 * max(1.0, a * a / a)
            assert agreement_residual(H, G, x, 1) < 1e-9
            assert rank_level(q, x).rank == 0


def test_circular_sample_examples():
    assert np.allclose(kepler.circular_sample(1.0, 0.0), [0, 1, 1, 0], atol=0)
    assert np.allclose(kepler.circular_sample(2.0, 0.0), [0, 4, 0.5, 0], atol=0)
    assert np.allclose(kepler.circular_sample(1.0, np.pi / 2), [1, 0, 0, -1], atol=1e-16)


def test_orbits_close_with_cubed_period():
    sysk = kepler.kepler_field()
    for a in (0.5, 1.0, 2.0):
        x0 = kepler.circular_sample(a, 0.3)
        traj = flow_adaptive(sysk, x0, 2 * np.pi * a**3, 1e-10, 1e-10, sample_count=2)
        assert np.linalg.norm(traj.final_state - x0) < 1e-6


def test_linear_pair_field_matches_kepler_on_circle_only():
    lin = kepler.linear_pair_field(1.0)
    sysk = kepler.kepler_field()
    on = np.array([0.0, 1.0, 1.0, 0.0])
    assert np.allclose(evaluate_field(lin, on), evaluate_field(sysk, on), atol=0)
    off = np.array([0.0, 2.0, 1.0, 0.0])
    assert np.allclose(evaluate_field(lin, off), [2, 0, 0, -1], atol=0)
    assert np.allclose(evaluate_field(sysk, off), [1, 0, 0, -0.25], atol=0)


def test_linear_pair_field_is_linear():
    lin = kepler.linear_pair_field(1.3)
    z = random_kepler_states(1, 3)[0]
    w = random_kepler_states(1, 5)[0]
    f = lambda s: evaluate_field(lin, s)
    assert np.allclose(f(3.0 * z), 3.0 * f(z), rtol=1e-14)
    assert np.allclose(f(z + w), f(z) + f(w), rtol=1e-13, atol=1e-15)


def test_parameter_guards():
    with pytest.raises(UsageError):
        kepler.combined_invariant(0.0)
    with pytest.raises(UsageError):
        kepler.circular_sample(-1.0, 0.0)
    with pytest.raises(UsageError):
        kepler.linear_pair_field(0.0)
