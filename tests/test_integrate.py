import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp.rk import RK45

from invarsets import (
    ConservedQuantitySet,
    IntegrationError,
    NumericError,
    UsageError,
    flow_adaptive,
    flow_fixed,
    monitor_drift,
)
from invarsets import SystemDefinition, integrate, kepler, oscillator, toda

from conftest import random_toda_physical

SRC = Path(__file__).resolve().parents[1] / "src"

# one start per model, shared by the tolerance and scipy cross-checks
FLOWS = [
    (oscillator.harmonic_oscillator(), [1.0, 0.3], 5.0),
    (kepler.kepler_field(), [0.0, 1.1, 0.9, 0.1], 5.0),
    (toda.periodic_field(4), [0.5, 0.8, 0.3, 0.9, 0.2, -0.4, 0.1, 0.3], 5.0),
    (toda.nonperiodic_field(4), [0.5, 0.8, 0.3, 0.2, -0.4, 0.1, 0.3], 5.0),
]
FLOW_IDS = ["oscillator", "kepler", "toda-periodic", "toda-nonperiodic"]
# an eccentric Kepler orbit at a loose tolerance rejects many steps
ECCENTRIC = (kepler.kepler_field(), [1.0, 0.0, 0.0, 0.35], 20.0)


def _run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=30,
    )


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


@pytest.mark.parametrize("system,x0,t_end", FLOWS)
def test_tolerance_monotonicity(system, x0, t_end):
    reference = flow_adaptive(system, x0, t_end, 1e-12, 1e-12, sample_count=2)
    loose = flow_adaptive(system, x0, t_end, 1e-5, 1e-5, sample_count=2)
    tight = flow_adaptive(system, x0, t_end, 1e-7, 1e-7, sample_count=2)
    err_loose = np.linalg.norm(loose.final_state - reference.final_state)
    err_tight = np.linalg.norm(tight.final_state - reference.final_state)
    assert err_tight < err_loose


def test_tableau_equals_scipy_rk45():
    assert np.array_equal(integrate._A, RK45.A)
    assert np.array_equal(integrate._B, RK45.B)
    assert np.array_equal(integrate._E, RK45.E)
    assert np.array_equal(integrate._P, RK45.P)


# |f0 / scale| overflows in the initial-step norm, so the first step is the
# stepper's floor; scipy warns of its own overflows
OVERFLOWING_NORM = pytest.param(
    kepler.kepler_field(), [1e100, 0.0, 0.0, 1e150], 1.0, 51,
    marks=pytest.mark.filterwarnings(
        "ignore::RuntimeWarning:scipy",
        "ignore::RuntimeWarning:numpy",
    ),
)
# a short horizon with many samples in every step of the dense output
DENSE_SAMPLES = (kepler.kepler_field(), [0.0, 1.1, 0.9, 0.1], 0.5, 2001)


@pytest.mark.parametrize("tol", [1e-10, 1e-6])
@pytest.mark.parametrize(
    "system,x0,t_end,samples",
    [*(case + (51,) for case in FLOWS), ECCENTRIC + (51,), OVERFLOWING_NORM, DENSE_SAMPLES],
    ids=[*FLOW_IDS, "kepler-eccentric", "kepler-overflowing-norm", "kepler-dense-samples"],
)
def test_adaptive_flow_equals_solve_ivp_bit_for_bit(system, x0, t_end, samples, tol):
    traj = flow_adaptive(system, x0, t_end, tol, tol, sample_count=samples)
    ref = solve_ivp(
        lambda t, y: system.field(y), (0.0, t_end), np.array(x0, dtype=float),
        method="RK45", rtol=tol, atol=tol, t_eval=np.linspace(0.0, t_end, samples),
    )
    assert ref.status == 0
    assert np.array_equal(traj.times, ref.t)
    assert np.array_equal(traj.states, ref.y.T)
    assert traj.stats.field_evaluations == ref.nfev


def _scipy_step_counts(system, x0, t_end, tol):
    """Accepted and rejected steps of scipy's RK45, counted one step at a
    time: a step that took r rejections cost 6 * (r + 1) evaluations."""
    solver = RK45(lambda t, y: system.field(y), 0.0, np.array(x0, dtype=float), t_end,
                  rtol=tol, atol=tol)
    accepted = rejected = 0
    while solver.status == "running":
        before = solver.nfev
        solver.step()
        accepted += 1
        rejected += (solver.nfev - before) // 6 - 1
    assert solver.status == "finished"
    return accepted, rejected


def test_rejected_steps_are_counted_exactly():
    system, x0, t_end = ECCENTRIC
    traj = flow_adaptive(system, x0, t_end, 1e-6, 1e-6, sample_count=51)
    accepted, rejected = _scipy_step_counts(system, x0, t_end, 1e-6)
    assert rejected > 0
    assert (traj.stats.steps_accepted, traj.stats.steps_rejected) == (accepted, rejected)


def test_field_turning_nan_mid_flow_is_an_integration_error():
    # the first coordinate is a clock; past t = 1 the field is NaN, which
    # every step rejects until the step underflows (no hang)
    done = _run_python("""
        import numpy as np
        from invarsets import IntegrationError, SystemDefinition, flow_adaptive

        def field(y):
            return np.array([1.0, -y[1]]) if y[0] < 1.0 else np.full(2, np.nan)

        try:
            flow_adaptive(SystemDefinition(2, field, "clock"), [0.0, 1.0], 3.0, sample_count=31)
        except IntegrationError as exc:
            print(exc.last_good_time)
            print(exc)
    """)
    assert done.returncode == 0, done.stderr
    last, message = done.stdout.splitlines()
    assert 0.0 < float(last) < 3.0
    assert float(last) <= 1.0
    assert "stopped at" in message


def test_failure_before_the_first_step_reports_time_zero():
    # finite only at the start, so not one step is accepted
    def field(y):
        return np.array([1.0, 0.0]) if y[0] == 0.0 else np.full(2, np.nan)

    with pytest.raises(IntegrationError, match="stopped at t=0:") as err:
        flow_adaptive(SystemDefinition(2, field, "start-only"), [0.0, 1.0], 1.0)
    assert err.value.last_good_time == 0.0


def test_numeric_error_at_the_start_is_an_integration_error_at_time_zero():
    def field(y):
        raise NumericError("singular everywhere")

    with pytest.raises(IntegrationError, match="field evaluation failed.*singular everywhere") as err:
        flow_adaptive(SystemDefinition(2, field, "nowhere"), [0.0, 1.0], 1.0)
    assert err.value.last_good_time == 0.0


def test_numeric_error_in_the_initial_step_trial_is_an_integration_error():
    # sound at the start only, so the initial-step heuristic's trial
    # evaluation is the first to fail
    def field(y):
        if y[0] != 0.0:
            raise NumericError("singular away from the start")
        return np.array([1.0, 0.0])

    with pytest.raises(IntegrationError, match="field evaluation failed") as err:
        flow_adaptive(SystemDefinition(2, field, "start-only"), [0.0, 1.0], 1.0)
    assert err.value.last_good_time == 0.0


def test_numeric_error_from_the_field_keeps_the_last_sample_time():
    def field(y):
        if y[0] >= 1.0:
            raise NumericError("singular")
        return np.array([1.0, -y[1]])

    with pytest.raises(IntegrationError, match="field evaluation failed") as err:
        flow_adaptive(SystemDefinition(2, field, "clock"), [0.0, 1.0], 3.0, sample_count=31)
    assert 0.0 < err.value.last_good_time <= 1.0


def test_importing_the_cli_does_not_import_scipy():
    done = _run_python("""
        import sys
        import invarsets.cli
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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
