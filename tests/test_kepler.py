import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from invarsets import (
    IntegratorSettings,
    NumericError,
    UsageError,
    agreement_residual,
    evaluate_field,
    flow_adaptive,
    rank_levels,
    stack_quantities,
)
from invarsets import assemble_system, kepler, verify_coincidence

from conftest import batched_symplectic_base, random_kepler_states


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
        "pair-field": (  # the G-driven field of the coincidence check, J grad(-A/a^3)
            _g_driven_system(a).field,
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
        if name == "pair-field":  # z @ L.T sums L's zero products to +0 where the formula negates to -0
            assert np.array_equal(got, expected), name
            continue
        assert got.tobytes() == np.asarray(expected, dtype=float).ravel().tobytes(), name


def test_invariant_values_at_reference_state():
    x = np.array([[0.0, 1.0, 1.0, 0.0]])
    assert kepler.hamiltonian().values_many(x)[0, 0] == pytest.approx(-0.5)
    assert kepler.angular_momentum().values_many(x)[0, 0] == pytest.approx(-1.0)
    assert kepler.combined_invariant(1.0).values_many(x)[0, 0] == pytest.approx(-1.5)
    assert kepler.angular_momentum().values_many([[1.0, 0.0, 0.0, 1.0]])[0, 0] == pytest.approx(1.0)


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
            assert agreement_residual(H, G, x) < 1e-9
            assert rank_levels(q, x[None]).ranks[0] == 0


def test_circular_sample_examples():
    assert np.allclose(kepler.circular_sample(1.0, 0.0), [0, 1, 1, 0], atol=0)
    assert np.allclose(kepler.circular_sample(2.0, 0.0), [0, 4, 0.5, 0], atol=0)
    assert np.allclose(kepler.circular_sample(1.0, np.pi / 2), [1, 0, 0, -1], atol=1e-16)


def test_orbits_close_with_cubed_period():
    sysk = kepler.kepler_field()
    for a in (0.5, 1.0, 2.0):
        x0 = kepler.circular_sample(a, 0.3)
        traj = flow_adaptive(sysk, x0, 2 * np.pi * a**3, integ=IntegratorSettings(1e-10, 1e-10, 2))
        assert np.linalg.norm(traj.final_state - x0) < 1e-6


def _g_driven_system(a):
    """The G-driven system of the coincidence check, x' = J grad(-A/a^3)."""
    return assemble_system(batched_symplectic_base, kepler.linear_pair_hamiltonian(a), batched=True).system


def test_g_driven_field_matches_kepler_on_circle_only():
    lin = _g_driven_system(1.0)
    sysk = kepler.kepler_field()
    on = np.array([0.0, 1.0, 1.0, 0.0])
    assert np.allclose(evaluate_field(lin, on), evaluate_field(sysk, on), atol=0)
    off = np.array([0.0, 2.0, 1.0, 0.0])
    assert np.allclose(evaluate_field(lin, off), [2, 0, 0, -1], atol=0)
    assert np.allclose(evaluate_field(sysk, off), [1, 0, 0, -0.25], atol=0)


def test_g_driven_field_is_linear():
    lin = _g_driven_system(1.3)
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
        kepler.linear_pair_flow(0.0)


@given(
    rows=st.lists(st.lists(MAGNITUDES, min_size=4, max_size=4), min_size=1, max_size=6),
    a=st.sampled_from([0.5, 1.0, 1.3, 2.0]),
)
@example(rows=[[1.0, 0.5, 0.0, 1.0], [1e-110, 0.0, 0.0, 1.0]], a=1.0)  # one singular row
@example(rows=[[1e200, 0.0, 0.0, 1.0], [1e100, 0.0, 0.0, 1e150]], a=1.0)  # overflows, silently
def test_stacked_closed_forms_equal_point_forms_bit_for_bit(rows, a):
    xs = np.array(rows)
    K = kepler.combined_invariant(a)
    forms = {name: form for name, (form, _) in _numpy_scalar_forms(a).items()}
    forms.update({"K-value": K.value, "K-gradient": K.analytic_gradient})
    for name, form in forms.items():
        try:
            points = [np.asarray(form(x), dtype=float) for x in xs]
        except NumericError:  # a singular row makes the whole stack singular
            with pytest.raises(NumericError, match="singular at the origin"):
                form(xs)
            continue
        stacked = np.asarray(form(xs), dtype=float)
        assert stacked.shape == (len(xs),) + points[0].shape, name
        assert stacked.tobytes() == np.array(points).tobytes(), name


def test_closed_forms_are_declared_batched():
    for q in (kepler.hamiltonian(), kepler.angular_momentum(), kepler.combined_invariant(1.0),
              kepler.linear_pair_hamiltonian(1.0),
              stack_quantities([kepler.hamiltonian(), kepler.angular_momentum(), kepler.combined_invariant(1.0)])):
        assert q.batched, q.labels


# ---------------------------------------------------------------------------
# the exact flow: Lagrange's f and g with Kepler's equation solved for dE
# ---------------------------------------------------------------------------


def _eccentric_start(e, phase=0.77, a=1.0, sense=1.0):
    """A point of the orbit of eccentricity ``e`` and semi-major axis ``a``,
    a time ``phase`` a^(3/2) past periapsis, which lies on the x1 axis; the
    orbit runs counter-clockwise for ``sense`` 1 and clockwise for -1."""
    at_periapsis = np.array([a * (1.0 - e), 0.0, 0.0, sense * np.sqrt((1.0 + e) / ((1.0 - e) * a))])
    return kepler.kepler_flow(at_periapsis, np.array([0.0, phase * a**1.5]))[1]


@pytest.mark.parametrize("e", [0.0, 0.4, 0.7, 0.9])
def test_exact_flow_matches_the_stepper_over_eight_periods(e):
    # the stepper at 1e-13 converges on the flow: the gap is its own error
    x0 = _eccentric_start(e)
    t_end = 8 * 2 * np.pi
    stepped = flow_adaptive(kepler.kepler_field(), x0, t_end, integ=IntegratorSettings(1e-13, 1e-13, 401))
    exact = kepler.kepler_flow(x0, stepped.times)
    assert np.abs(exact - stepped.states).max() <= 1e-8
    assert exact[0].tobytes() == x0.tobytes()
    for quantity in (kepler.hamiltonian(), kepler.angular_momentum()):
        values = quantity.value(exact)[:, 0]
        assert np.abs(values - values[0]).max() <= 1e-12


def test_exact_flow_is_periodic_and_runs_backwards():
    x0 = _eccentric_start(0.6)
    period = 2 * np.pi  # a = 1 to round-off
    states = kepler.kepler_flow(x0, np.array([0.0, 0.3, 5 * period + 0.3, -period + 0.3, period]))
    assert states[0].tobytes() == x0.tobytes()
    for state in states[2:4]:
        assert np.allclose(state, states[1], rtol=0, atol=1e-12)
    assert np.allclose(states[4], x0, rtol=0, atol=1e-12)
    assert np.allclose(kepler.kepler_flow(states[1], np.array([-0.3]))[0], x0, rtol=0, atol=1e-12)


def _eccentricity_vector(z):
    """The Laplace-Runge-Lenz vector A (y2, -y1) - x/|x| of each state, pointing at periapsis."""
    x1, x2, y1, y2 = z.T
    momentum, r = x1 * y2 - x2 * y1, np.hypot(x1, x2)
    return np.stack([momentum * y2 - x1 / r, -momentum * y1 - x2 / r], axis=1)


@pytest.mark.parametrize("sense", [1.0, -1.0])
@pytest.mark.parametrize("a", [0.5, 3.0])
@pytest.mark.parametrize("e", [0.0, 0.3, 0.6, 0.9, 0.99])
def test_exact_flow_keeps_energy_momentum_and_the_eccentricity_vector(e, a, sense):
    # three periods back and five forward, on both senses of rotation
    x0 = _eccentric_start(e, a=a, sense=sense)
    period = 2 * np.pi * a**1.5
    states = kepler.kepler_flow(x0, np.linspace(-3 * period, 5 * period, 401))
    for quantity in (kepler.hamiltonian(), kepler.angular_momentum()):
        values, start = quantity.value(states)[:, 0], quantity.value(x0)[0]
        assert np.abs(values - start).max() <= 1e-12 * abs(start)
    assert np.abs(_eccentricity_vector(states) - _eccentricity_vector(x0[None])).max() <= 1e-12
    assert np.linalg.norm(_eccentricity_vector(x0[None])) == pytest.approx(e, abs=1e-12)


@pytest.mark.parametrize("t,s", [(0.4, 2.5), (-1.3, 7.9), (30.0, -12.5)])
@pytest.mark.parametrize("e", [0.0, 0.5, 0.9, 0.99])
def test_exact_flow_composes(e, t, s):
    # flowing t then s from where t ends is flowing t + s
    flow, x0 = kepler.kepler_flow, _eccentric_start(e)
    middle = flow(x0, np.array([t]))[0]
    assert np.abs(flow(middle, np.array([s]))[0] - flow(x0, np.array([t + s]))[0]).max() <= 1e-12


def _rotated(z, angle):
    """Position and velocity of each state turned by ``angle``."""
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, -s], [s, c]])
    return np.concatenate([z[..., :2] @ R.T, z[..., 2:] @ R.T], axis=-1)


@pytest.mark.parametrize("angle", [0.5, 2.0, 3.5, 5.5])
@pytest.mark.parametrize("e", [0.2, 0.8, 0.95])
def test_exact_flow_commutes_with_rotations(e, angle):
    flow, x0, times = kepler.kepler_flow, _eccentric_start(e), np.linspace(-7.0, 11.0, 51)
    states = flow(x0, times)
    assert np.abs(flow(_rotated(x0, angle), times) - _rotated(states, angle)).max() <= 1e-12 * np.abs(states).max()


@pytest.mark.parametrize("e", [0.2, 0.8, 0.95])
def test_exact_flow_commutes_with_time_reversal_and_reflection(e):
    # reversing the velocity runs the orbit backwards; mirroring in the x1
    # axis mirrors it
    flow, x0, times = kepler.kepler_flow, _eccentric_start(e), np.linspace(-7.0, 11.0, 51)
    states, bound = flow(x0, times), 1e-12 * np.abs(flow(x0, times)).max()
    for signs, direction in (([1.0, 1.0, -1.0, -1.0], -1.0), ([1.0, -1.0, 1.0, -1.0], 1.0)):
        assert np.abs(flow(x0 * signs, direction * times) * signs - states).max() <= bound


@pytest.mark.parametrize(
    "x0",
    [
        [0.0, 2.0, 1.0, 0.0],  # H = 0: a parabola
        [1.0, 0.0, 0.0, 2.0],  # H > 0: a hyperbola
        [0.3, 0.4, -0.3, -0.4],  # A = 0: a plunge to the origin
        [1.0, 0.0, 0.5, 0.0],  # A = 0 with H < 0
    ],
)
def test_exact_flow_does_not_cover_open_or_radial_orbits(x0):
    assert kepler.kepler_flow(np.array(x0), np.linspace(0.0, 1.0, 5)) is None


_ANY_COMPONENT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.floats(-10, 10),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-300, 1e300]),
)


@settings(max_examples=300, deadline=None)
@given(x0=st.lists(_ANY_COMPONENT, min_size=4, max_size=4), times=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5))
def test_exact_flow_at_any_finite_start_gives_states_or_none_and_never_warns(x0, times):
    # the origin, underflowing radii, overflowing energies and orbits whose
    # period overflows are not covered
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = kepler.kepler_flow(np.array(x0), np.array(times))
    assert states is None or states.shape == (len(times), 4)


def test_exact_flow_that_newton_does_not_settle_gives_none(monkeypatch):
    x0, times = _eccentric_start(0.9), np.linspace(0.0, 6.0, 11)
    assert kepler.kepler_flow(x0, times) is not None
    monkeypatch.setattr(kepler, "_NEWTON_STEPS", 1)
    assert kepler.kepler_flow(x0, times) is None


@pytest.mark.parametrize("x0", [[0.0, 2.0, 1.0, 0.0], [1.0, 0.0, 0.0, 2.0], [1.0, 0.0, 0.5, 0.0]])
def test_coincidence_integrates_a_start_the_flow_does_not_cover_and_keeps_its_verdict(x0):
    a = 1.0
    args = (batched_symplectic_base, kepler.hamiltonian(), kepler.linear_pair_hamiltonian(a), np.array(x0), 2.0)
    slow = verify_coincidence(*args, batched=True)
    fast = verify_coincidence(*args, batched=True, flows=(kepler.kepler_flow, kepler.linear_pair_flow(a)))
    assert (fast.verdict, fast.message) == (slow.verdict, slow.message) and slow.verdict == "hypothesis-error"
    if slow.trajectory is not None:  # else the F flow failed on both paths
        assert fast.trajectory.stats.method == "dormand-prince-8(5,3)"
        assert fast.trajectory.states.tobytes() == slow.trajectory.states.tobytes()
