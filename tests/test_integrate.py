import numpy as np
import pytest

from invarsets import (
    ConservedQuantitySet,
    IntegrationError,
    UsageError,
    flow_adaptive,
    flow_fixed,
    monitor_drift,
)
from invarsets import kepler, oscillator, toda

from conftest import random_toda_physical


def test_harmonic_quarter_turn():
    traj = flow_adaptive(oscillator.harmonic_oscillator(), [1.0, 0.0], np.pi / 2)
    assert np.allclose(traj.final_state, [0.0, -1.0], atol=1e-8)


def test_kepler_half_circle():
    traj = flow_adaptive(kepler.kepler_field(), [0.0, 1.0, 1.0, 0.0], np.pi, 1e-10, 1e-10)
    assert np.allclose(traj.final_state, [0.0, -1.0, -1.0, 0.0], atol=1e-6)


def test_toda_equilibrium_stays_put():
    x0 = np.array([0.8, 0.8, 0.8, 0.0, 0.0, 0.0])
    traj = flow_adaptive(toda.periodic_field(3), x0, 10.0)
    assert np.max(np.abs(traj.final_state - x0)) < 1e-10


def test_trajectory_contract():
    x0 = [1.0, 0.0]
    traj = flow_adaptive(oscillator.harmonic_oscillator(), x0, 1.0, sample_count=11)
    assert len(traj) == 11
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
    assert np.all(np.diff(traj.times) > 0)
    assert np.array_equal(traj.states[0], x0)  # initial state is exact
    assert traj.stats.steps_accepted > 0
    assert traj.stats.steps_rejected >= 0


def test_fixed_step_closed_orbit():
    traj = flow_fixed(oscillator.harmonic_oscillator(), [1.0, 0.0], 2 * np.pi, 1e-3)
    assert np.allclose(traj.final_state, [1.0, 0.0], atol=1e-10)


def test_fixed_step_agrees_with_adaptive():
    x0 = random_toda_physical(4, 1, 41)[0]
    sys4 = toda.periodic_field(4)
    a = flow_adaptive(sys4, x0, 5.0, 1e-10, 1e-10, sample_count=2)
    b = flow_fixed(sys4, x0, 5.0, 1e-3)
    assert np.max(np.abs(a.final_state - b.final_state)) < 1e-6


def test_fixed_step_clamps_oversized_dt():
    traj = flow_fixed(oscillator.harmonic_oscillator(), [1.0, 0.0], 0.5, 2.0)
    assert len(traj) == 2
    assert traj.times[-1] == 0.5


def test_fixed_step_lands_exactly_on_t_end():
    # non-divisible horizon: the last step is shortened to land on t_end
    traj = flow_fixed(oscillator.harmonic_oscillator(), [1.0, 0.0], 1.0, 0.3)
    assert traj.times[-1] == 1.0
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj) == 5  # steps at 0.3, 0.6, 0.9, then 0.1


def test_fixed_step_count_guard():
    with pytest.raises(UsageError, match="steps"):
        flow_fixed(oscillator.harmonic_oscillator(), [1.0, 0.0], 1e3, 1e-6)


def test_tolerance_validation():
    sys2 = oscillator.harmonic_oscillator()
    with pytest.raises(UsageError):
        flow_adaptive(sys2, [1.0, 0.0], 1.0, abs_tol=0.0)
    with pytest.raises(UsageError):
        flow_adaptive(sys2, [1.0, 0.0], 1.0, rel_tol=0.1)
    with pytest.raises(UsageError):
        flow_adaptive(sys2, [1.0, 0.0], 1.0, sample_count=1)
    with pytest.raises(UsageError):
        flow_adaptive(sys2, [1.0, 0.0], -1.0)


def test_kepler_collision_raises_integration_error():
    # radial free fall reaches the singularity in finite time
    with pytest.raises(IntegrationError) as err:
        flow_adaptive(kepler.kepler_field(), [1.0, 0.0, -1.0, 0.0], 3.0)
    assert err.value.last_good_time is not None
    assert 0.0 < err.value.last_good_time < 3.0


def test_trajectory_determinism_bit_for_bit():
    x0 = random_toda_physical(4, 1, 43)[0]
    sys4 = toda.periodic_field(4)
    a = flow_adaptive(sys4, x0, 7.0)
    b = flow_adaptive(sys4, x0, 7.0)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


@pytest.mark.parametrize(
    "system,x0,t_end",
    [
        (oscillator.harmonic_oscillator(), [1.0, 0.3], 5.0),
        (kepler.kepler_field(), [0.0, 1.1, 0.9, 0.1], 5.0),
        (toda.periodic_field(4), [0.5, 0.8, 0.3, 0.9, 0.2, -0.4, 0.1, 0.3], 5.0),
        (toda.nonperiodic_field(4), [0.5, 0.8, 0.3, 0.2, -0.4, 0.1, 0.3], 5.0),
    ],
)
def test_tolerance_monotonicity(system, x0, t_end):
    reference = flow_adaptive(system, x0, t_end, 1e-12, 1e-12, sample_count=2)
    loose = flow_adaptive(system, x0, t_end, 1e-5, 1e-5, sample_count=2)
    tight = flow_adaptive(system, x0, t_end, 1e-7, 1e-7, sample_count=2)
    err_loose = np.linalg.norm(loose.final_state - reference.final_state)
    err_tight = np.linalg.norm(tight.final_state - reference.final_state)
    assert err_tight < err_loose


def test_drift_of_constant_quantity_is_zero():
    traj = flow_adaptive(oscillator.harmonic_oscillator(), [1.0, 0.0], 3.0)
    const = ConservedQuantitySet(dim=2, k=1, value=lambda z: np.array([3.0]), labels=("c",))
    report = monitor_drift(traj, const)
    assert report.worst == 0.0


def test_toda_drift_below_1e8_over_ten_units():
    x0 = random_toda_physical(4, 1, 47)[0]
    traj = flow_adaptive(toda.periodic_field(4), x0, 10.0, 1e-10, 1e-10)
    report = monitor_drift(traj, toda.periodic_invariants(4))
    assert report.labels == ("I1", "I2", "I3")
    assert report.worst < 1e-8
    # formal bound: drift below 100 * (abs + rel * |x0|) * accepted steps
    bound = 100.0 * (1e-10 + 1e-10 * np.linalg.norm(x0)) * traj.stats.steps_accepted
    assert report.worst < bound


def test_kepler_circular_drift():
    x0 = kepler.circular_sample(1.0, 0.0)
    traj = flow_adaptive(kepler.kepler_field(), x0, 2 * np.pi, 1e-10, 1e-10)
    q = kepler.kepler_quantities(1.0)
    report = monitor_drift(traj, q)
    assert report.worst < 1e-8
    assert np.all(report.time_of_max >= 0.0)
    bound = 100.0 * (1e-10 + 1e-10 * np.linalg.norm(x0)) * traj.stats.steps_accepted
    assert report.worst < bound


def test_drift_dimension_check():
    traj = flow_adaptive(oscillator.harmonic_oscillator(), [1.0, 0.0], 1.0)
    with pytest.raises(UsageError):
        monitor_drift(traj, toda.periodic_invariants(4))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0])
def test_non_finite_or_non_positive_times_are_rejected(bad):
    osc = oscillator.harmonic_oscillator()
    with pytest.raises(UsageError, match="t_end must be a positive finite number"):
        flow_adaptive(osc, [1.0, 0.0], bad)
    with pytest.raises(UsageError, match="t_end must be a positive finite number"):
        flow_fixed(osc, [1.0, 0.0], bad, 0.1)
    with pytest.raises(UsageError, match=f"dt must be a positive finite number, got {bad}"):
        flow_fixed(osc, [1.0, 0.0], 1.0, bad)
