import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients, rk
from scipy.integrate._ivp.rk import DOP853

from invarsets import (
    ConservedQuantitySet,
    IntegrationError,
    IntegratorSettings,
    NumericError,
    UsageError,
    flow_adaptive,
    monitor_drift,
    stack_quantities,
)
from invarsets import SystemDefinition, integrate, kepler, oscillator, toda
from invarsets.coincidence import assemble_system, canonical_symplectic_matrix

from conftest import flow_fixed, random_toda_physical

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
    traj = flow_adaptive(
        kepler.kepler_field(), [0.0, 1.0, 1.0, 0.0], np.pi, integ=IntegratorSettings(1e-10, 1e-10),
    )
    assert np.allclose(traj.final_state, [0.0, -1.0, -1.0, 0.0], atol=1e-6)


def test_toda_equilibrium_stays_put():
    x0 = np.array([0.8, 0.8, 0.8, 0.0, 0.0, 0.0])
    traj = flow_adaptive(toda.periodic_field(3), x0, 10.0)
    assert np.max(np.abs(traj.final_state - x0)) < 1e-10


def test_trajectory_contract():
    x0 = [1.0, 0.0]
    traj = flow_adaptive(oscillator.harmonic_oscillator(), x0, 1.0, integ=IntegratorSettings(sample_count=11))
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
    a = flow_adaptive(sys4, x0, 5.0, integ=IntegratorSettings(1e-10, 1e-10, 2))
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
        flow_adaptive(sys2, [1.0, 0.0], 1.0, integ=IntegratorSettings(abs_tol=0.0))
    with pytest.raises(UsageError):
        flow_adaptive(sys2, [1.0, 0.0], 1.0, integ=IntegratorSettings(rel_tol=0.1))
    with pytest.raises(UsageError):
        flow_adaptive(sys2, [1.0, 0.0], 1.0, integ=IntegratorSettings(sample_count=1))
    with pytest.raises(UsageError, match="sample_count must be an integer >= 2, got 2.7"):
        flow_adaptive(sys2, [1.0, 0.0], 1.0, integ=IntegratorSettings(sample_count=2.7))
    with pytest.raises(UsageError):
        flow_adaptive(sys2, [1.0, 0.0], -1.0)


def test_kepler_collision_raises_integration_error():
    # radial free fall reaches the singularity in finite time
    with pytest.raises(IntegrationError) as err:
        flow_adaptive(kepler.kepler_field(), [1.0, 0.0, -1.0, 0.0], 3.0)
    assert err.value.last_good_time is not None
    assert 0.0 < err.value.last_good_time < 3.0


def test_a_flow_past_the_step_budget_is_an_integration_error(monkeypatch):
    system, x0, t_end = ECCENTRIC
    integ = IntegratorSettings(1e-6, 1e-6)
    stats = flow_adaptive(system, x0, t_end, integ=integ).stats
    attempts = stats.steps_accepted + stats.steps_rejected
    monkeypatch.setattr(integrate, "_MAX_ATTEMPTS", attempts)
    exact = flow_adaptive(system, x0, t_end, integ=integ)  # the budget is spent, not exceeded
    assert exact.stats == stats
    monkeypatch.setattr(integrate, "_MAX_ATTEMPTS", attempts - 1)
    with pytest.raises(IntegrationError, match=f"step budget of {attempts - 1} attempts is spent") as err:
        flow_adaptive(system, x0, t_end, integ=integ)
    assert 0.0 < err.value.last_good_time < t_end


def test_trajectory_determinism_bit_for_bit():
    x0 = random_toda_physical(4, 1, 43)[0]
    sys4 = toda.periodic_field(4)
    a = flow_adaptive(sys4, x0, 7.0)
    b = flow_adaptive(sys4, x0, 7.0)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


@pytest.mark.parametrize("system,x0,t_end", FLOWS)
def test_tolerance_monotonicity(system, x0, t_end):
    reference = flow_adaptive(system, x0, t_end, integ=IntegratorSettings(1e-12, 1e-12, 2))
    loose = flow_adaptive(system, x0, t_end, integ=IntegratorSettings(1e-5, 1e-5, 2))
    tight = flow_adaptive(system, x0, t_end, integ=IntegratorSettings(1e-7, 1e-7, 2))
    err_loose = np.linalg.norm(loose.final_state - reference.final_state)
    err_tight = np.linalg.norm(tight.final_state - reference.final_state)
    assert err_tight < err_loose


def test_tableau_equals_scipy_dop853():
    # A with the rows of the three dense-output stages
    assert np.array_equal(integrate._A, dop853_coefficients.A)
    assert np.array_equal(integrate._B, dop853_coefficients.B)
    assert np.array_equal(integrate._E3, dop853_coefficients.E3)
    assert np.array_equal(integrate._E5, dop853_coefficients.E5)
    assert np.array_equal(integrate._D, dop853_coefficients.D)


def _stage_stack(row, value, n=3):
    K = np.zeros((13, n))
    K[row] = value
    return K


# (stages, h, error norm); stage 0 weighs |E3| about 15 times |E5|
ERROR_NORM_CASES = {
    "all-zero": (np.zeros((13, 3)), 0.1, 0.0),
    # a root squared as numpy squares it: s * s is one ulp off in e5
    "square-rounded-as-numpy": (_stage_stack(0, 1.00013, 1), 1.0, 0.007461337919615616),
    # e5's square underflows to 0 and 0.01 e3 underflows from a subnormal: 0/0
    "zero-e5-subnormal-e3": (_stage_stack(0, 2.4e-161), 0.1, math.nan),
    # e5's dot is one ulp below the largest double, e3's overflows
    "largest-e5-square": (_stage_stack(0, 1.0219330753724579e156, 1), 0.1, 0.0),
    "e3-square-overflows": (_stage_stack(0, 5e155), 0.1, 0.0),
    "both-squares-overflow": (_stage_stack(0, 1e160), 0.1, math.nan),
    "h-e5-overflows": (_stage_stack(0, 1e150), 1e20, math.inf),
    "inf-stage": (_stage_stack(0, math.inf), 0.1, math.nan),
    "inf-in-unweighted-stage": (_stage_stack(3, math.inf), 0.1, math.nan),
    "nan-stage": (_stage_stack(5, math.nan), 0.1, math.nan),
}


@pytest.mark.parametrize("K,h,expected", ERROR_NORM_CASES.values(), ids=ERROR_NORM_CASES.keys())
def test_error_norm_equals_scipy_at_the_edges(K, h, expected):
    scale = np.ones(K.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # as flow_adaptive runs it
        ours = integrate._error_norm(K.T, h, scale)  # no exception escapes
    coefficients = SimpleNamespace(E5=dop853_coefficients.E5, E3=dop853_coefficients.E3)
    with np.errstate(all="ignore"):  # scipy warns of its own overflows
        theirs = DOP853._estimate_error_norm(coefficients, K, h, scale)
    # bit for bit, the sign of zero included, and nan for nan
    assert float(ours).hex() == float(theirs).hex() == float(expected).hex()


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


def _periapsis_start(e):
    """An orbit of semi-major axis 1 and eccentricity ``e``, from periapsis."""
    return [1.0 - e, 0.0, 0.0, math.sqrt((1.0 + e) / (1.0 - e))]


# the most eccentric Kepler orbit of the long-flow benchmark, e = 0.7 from
# periapsis over 8 periods: scipy's DOP853 rejects 29% of its attempts, the
# stepper with its predictive cap 5%
ECCENTRIC_LONG = (kepler.kepler_field(), _periapsis_start(0.7), 16 * np.pi, 101)
# about one sample per step, and held steps that fill several blocks
TODA_LONG = [
    (toda.periodic_field(n), random_toda_physical(n, 1, 12)[0], 15.0, 101) for n in (16, 64)
]
FREE_END_LONG = (toda.nonperiodic_field(4), [0.5, 0.8, 0.3, 0.2, -0.4, 0.1, 0.3], 15.0, 101)
# a point formula that is wrong on a stack, so not declared batched
UNDECLARED = (
    SystemDefinition(2, lambda y: np.array([y[1], -y[0] - y[0] ** 3]), "duffing"), [1.0, 0.0], 30.0, 101
)
_J = canonical_symplectic_matrix(2)
DRIVEN = [
    (assemble_system(lambda x, g: _J @ g, q).system, kepler.circular_sample(1.0, 0.3), 2 * np.pi, 101)
    for q in (kepler.hamiltonian(), kepler.linear_pair_hamiltonian(1.0))
]


def _folded_rk_step(fun, t, y, f, h, A, B, C, K):
    """scipy's ``rk_step`` with the stage sums of the library's stepper: the
    input of stage s, and the new solution, is one product of the state and
    the earlier stages with (1, h * a_s), not ``y + (a_s . K) * h``."""
    W = np.empty((K.shape[0] + 1, y.size))  # the state and the stages
    weights = np.ones((K.shape[0], K.shape[0] + 1))
    np.multiply(np.vstack([A, B]), h, out=weights[:, 1:-1])
    W[0], W[1] = y, f
    for s in range(1, len(B)):
        W[s + 1] = fun(t + C[s] * h, W[: s + 1].T.dot(weights[s, : s + 1]))
    y_new = W[:-1].T.dot(weights[-1, :-1])
    W[-1] = fun(t + h, y_new)
    K[:] = W[1:]
    return y_new, W[-1]


@pytest.fixture
def folded_scipy(monkeypatch):
    """scipy's DOP853, its controller, error norm, initial step and dense
    output unmodified, with the library's stage sums."""
    monkeypatch.setattr(rk, "rk_step", _folded_rk_step)


class CappedDOP853(DOP853):
    """scipy's DOP853 with the library's predictive step cap (Gustafsson,
    ACM TOMS 20, 1994): scipy 1.17's ``RungeKutta._step_impl`` restated, plus,
    on an accepted step that follows a rejection or a step where the cap
    bound, the next step factor min(standard, g) with
    g = 0.9 (h / h_prev) (max(1e-2, e_prev) / e^2)^(1/8) clamped to
    [0.2, 10], none for e = 0 and none on the first accepted step."""

    armed, h_prev, error_prev = False, None, None

    def _step_impl(self):
        t, y = self.t, self.y
        rtol, atol = self.rtol, self.atol
        min_step = 10 * np.abs(np.nextafter(t, self.direction * np.inf) - t)
        h_abs = min(max(self.h_abs, min_step), self.max_step)
        step_rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = t + h_abs * self.direction
            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = rk.rk_step(self.fun, t, y, self.f, h, self.A, self.B, self.C, self.K)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = self._estimate_error_norm(self.K, h, scale)
            if error_norm < 1:
                break
            h_abs *= max(rk.MIN_FACTOR, rk.SAFETY * error_norm ** self.error_exponent)
            step_rejected = True
        factor = rk.MAX_FACTOR if error_norm == 0 else min(rk.MAX_FACTOR, rk.SAFETY * error_norm ** self.error_exponent)
        if step_rejected:
            factor = min(1, factor)
        if (step_rejected or self.armed) and self.h_prev is not None and error_norm != 0:
            e, e_prev = float(error_norm), max(1e-2, float(self.error_prev))
            g = 0.9 * (float(h_abs) / self.h_prev) * (e_prev / (e * e)) ** (1 / 8) if e * e else math.inf
            g = max(rk.MIN_FACTOR, min(rk.MAX_FACTOR, g))
            self.armed = g < factor
            factor = min(factor, g)
        else:
            self.armed = False
        self.h_prev, self.error_prev = float(h_abs), error_norm
        self.h_previous, self.y_old = h, y
        self.t, self.y, self.h_abs, self.f = t_new, y_new, h_abs * factor, f_new
        return True, None


def _scipy_steps(system, x0, t_end, tol, method=CappedDOP853):
    """The step ends and the rejected attempts of scipy's DOP853, or of
    ``method``, stepped one step at a time: a step that took r rejections
    cost 12 * (r + 1) evaluations."""
    solver = method(lambda t, y: system.field(y), 0.0, np.array(x0, dtype=float), t_end,
                    rtol=tol, atol=tol)
    ends, rejected = [], 0
    while solver.status == "running":
        before = solver.nfev
        solver.step()
        ends.append(solver.t)
        rejected += (solver.nfev - before) // 12 - 1
    assert solver.status == "finished"
    return np.array(ends), rejected


def _solve_ivp(system, x0, t_end, samples, tol, method=CappedDOP853):
    return solve_ivp(
        lambda t, y: system.field(y), (0.0, t_end), np.array(x0, dtype=float),
        method=method, rtol=tol, atol=tol, t_eval=np.linspace(0.0, t_end, samples),
    )


def _assert_equals_solve_ivp(system, x0, t_end, samples, tol):
    traj = flow_adaptive(system, x0, t_end, integ=IntegratorSettings(tol, tol, samples))
    ref = _solve_ivp(system, x0, t_end, samples, tol)
    assert ref.status == 0
    assert np.array_equal(traj.times, ref.t)
    assert np.array_equal(traj.states, ref.y.T)
    assert traj.stats.field_evaluations == ref.nfev
    assert traj.stats.nonfinite_attempts == 0  # a clean flow meets no non-finite value


STEPPER_CASES = [
    *(case + (51,) for case in FLOWS), ECCENTRIC + (51,), OVERFLOWING_NORM, DENSE_SAMPLES,
    *TODA_LONG, FREE_END_LONG, UNDECLARED, *DRIVEN, ECCENTRIC_LONG,
]
STEPPER_TOLS = pytest.mark.parametrize("tol", [1e-10, 1e-6])
STEPPER_IDS = [
    *FLOW_IDS, "kepler-eccentric", "kepler-overflowing-norm", "kepler-dense-samples",
    "toda-16-long", "toda-64-long", "toda-nonperiodic-long", "undeclared-field",
    "driven-H", "driven-linear-pair", "kepler-eccentric-long",
]
STEPPER_FLOWS = pytest.mark.parametrize("system,x0,t_end,samples", STEPPER_CASES, ids=STEPPER_IDS)


@pytest.mark.usefixtures("folded_scipy")
@STEPPER_TOLS
@STEPPER_FLOWS
def test_adaptive_flow_equals_solve_ivp_bit_for_bit(system, x0, t_end, samples, tol):
    _assert_equals_solve_ivp(system, x0, t_end, samples, tol)


@STEPPER_TOLS
@STEPPER_FLOWS
def test_adaptive_flow_is_as_accurate_as_unmodified_solve_ivp(system, x0, t_end, samples, tol):
    # where scipy's own DOP853 rejects nothing: its attempts, and samples as
    # close to its 1e-13 solution, relative to max(1, |y|), up to 1% and
    # 1e-13; where it rejects: the capped reference's attempts, and a largest
    # sample error at most twice scipy's, up to 1e-13 (1.77x at worst, on
    # toda-16-long at 1e-6, where the cap takes 9 fewer evaluations)
    traj = flow_adaptive(system, x0, t_end, integ=IntegratorSettings(tol, tol, samples))
    plain, accurate = (_solve_ivp(system, x0, t_end, samples, r, "DOP853") for r in (tol, 1e-13))
    ends, rejected = _scipy_steps(system, x0, t_end, tol, DOP853)
    ref = plain
    if rejected:
        ref, (ends, rejected) = _solve_ivp(system, x0, t_end, samples, tol), _scipy_steps(system, x0, t_end, tol)
    assert traj.stats.field_evaluations == ref.nfev
    assert (traj.stats.steps_accepted, traj.stats.steps_rejected) == (len(ends), rejected)
    exact = accurate.y.T
    size = np.maximum(1.0, np.abs(exact).max(axis=1))
    ours, theirs = (np.abs(states - exact).max(axis=1) / size for states in (traj.states, plain.y.T))
    if ref is plain:
        assert np.all(ours <= 1.01 * theirs + 1e-13)
    else:
        assert ours.max() <= 2 * theirs.max() + 1e-13


def test_stage_sums_differ_from_unmodified_solve_ivp():
    # the folded reference is not scipy's own sums in disguise: some
    # sample of some flow above moves in some bit
    def moved(system, x0, t_end, samples, tol):
        traj = flow_adaptive(system, x0, t_end, integ=IntegratorSettings(tol, tol, samples))
        return not np.array_equal(traj.states, _solve_ivp(system, x0, t_end, samples, tol, "DOP853").y.T)

    cases = [case for case in STEPPER_CASES if case is not OVERFLOWING_NORM]
    assert any(moved(*case, tol) for tol in (1e-10, 1e-6) for case in cases)


@pytest.mark.usefixtures("folded_scipy")
@pytest.mark.parametrize("tol", [1e-10, 1e-6])
def test_sample_on_the_step_end_that_fills_a_block_equals_solve_ivp(tol):
    # 2j + 1 samples over [0, 2 tau] with j a power of two put sample j
    # exactly on tau; choose tau as the end of the step that completes the
    # first block of held steps (steps before t_end do not depend on it)
    system, x0, _ = FLOWS[2]
    ends, j = _scipy_steps(system, x0, 30.0, tol)[0], 64
    for tau in ends:
        grid = np.linspace(0.0, 2 * tau, 2 * j + 1)
        held = np.unique(np.searchsorted(ends, grid[: j + 1], side="left"))
        if held.size == integrate._BLOCK:
            break
    else:
        pytest.fail("no step end completes a block")
    assert grid[j] == tau and tau in _scipy_steps(system, x0, 2 * tau, tol)[0]
    _assert_equals_solve_ivp(system, x0, 2 * tau, 2 * j + 1, tol)


@pytest.mark.usefixtures("folded_scipy")
def test_rejected_steps_are_counted_exactly():
    system, x0, t_end = ECCENTRIC
    traj = flow_adaptive(system, x0, t_end, integ=IntegratorSettings(1e-6, 1e-6, 51))
    ends, rejected = _scipy_steps(system, x0, t_end, 1e-6)
    assert rejected > 0
    assert (traj.stats.steps_accepted, traj.stats.steps_rejected) == (len(ends), rejected)


@pytest.mark.usefixtures("folded_scipy")
@STEPPER_TOLS
@STEPPER_FLOWS
def test_the_cap_moves_exactly_the_flows_that_reject(system, x0, t_end, samples, tol):
    # a flow that scipy's DOP853 steps without a rejection is scipy's own,
    # bit for bit, so a cap applied on every step fails here; each of these
    # flows that rejects moves, so a cap applied on none fails here too
    traj = flow_adaptive(system, x0, t_end, integ=IntegratorSettings(tol, tol, samples))
    plain = _solve_ivp(system, x0, t_end, samples, tol, "DOP853")
    rejected = _scipy_steps(system, x0, t_end, tol, DOP853)[1]
    same = np.array_equal(traj.states, plain.y.T) and traj.stats.field_evaluations == plain.nfev
    assert same == (rejected == 0)


@pytest.mark.parametrize("e", [0.4, 0.55, 0.7])
def test_eccentric_orbits_reject_few_attempts(e):
    # 8 periods from periapsis at 1e-10: scipy's DOP853 rejects 22%, 29% and
    # 29% of its attempts near periapsis, retrying the same step as the error
    # grows; the cap rejects 5-7% and takes 0.86x, 0.77x and 0.77x its
    # field evaluations
    system, x0 = kepler.kepler_field(), _periapsis_start(e)
    stats = flow_adaptive(system, x0, 16 * np.pi, integ=IntegratorSettings(1e-10, 1e-10, 101)).stats
    assert stats.steps_rejected <= 0.1 * (stats.steps_accepted + stats.steps_rejected)
    assert stats.field_evaluations <= 0.87 * _solve_ivp(system, x0, 16 * np.pi, 101, 1e-10, "DOP853").nfev


# the stepper cases whose flows cost more field evaluations than unmodified
# scipy's, (ours, scipy's): after a rejection the cap shortens a step that
# scipy would take at full length, and these smooth flows would have kept it
# (+4.6%, +3.8%, +2.9% and +7.3%); every other case costs the same or less
DEARER = {
    ("toda-nonperiodic", 1e-10): (338, 323),
    ("toda-16-long", 1e-10): (1379, 1328),
    ("toda-nonperiodic-long", 1e-10): (533, 518),
    ("undeclared-field", 1e-10): (3185, 2969),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning:scipy", "ignore::RuntimeWarning:numpy")
def test_the_cases_the_cap_makes_dearer():
    dearer = {}
    for case_id, case in zip(STEPPER_IDS, STEPPER_CASES):
        system, x0, t_end, samples = getattr(case, "values", case)
        for tol in (1e-10, 1e-6):
            ours = flow_adaptive(system, x0, t_end, integ=IntegratorSettings(tol, tol, samples)).stats
            theirs = _solve_ivp(system, x0, t_end, samples, tol, "DOP853").nfev
            if ours.field_evaluations > theirs:
                dearer[case_id, tol] = (ours.field_evaluations, theirs)
    assert dearer == DEARER


def test_field_turning_nan_mid_flow_is_an_integration_error():
    # the first coordinate is a clock; past t = 1 the field is NaN, which
    # every step rejects until the step underflows (no hang)
    done = _run_python("""
        import numpy as np
        from invarsets import IntegrationError, IntegratorSettings, SystemDefinition, flow_adaptive

        def field(y):
            return np.array([1.0, -y[1]]) if y[0] < 1.0 else np.full(2, np.nan)

        try:
            integ = IntegratorSettings(sample_count=31)
            flow_adaptive(SystemDefinition(2, field, "clock"), [0.0, 1.0], 3.0, integ=integ)
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
        flow_adaptive(
            SystemDefinition(2, field, "clock"), [0.0, 1.0], 3.0, integ=IntegratorSettings(sample_count=31),
        )
    assert 0.0 < err.value.last_good_time <= 1.0


def _scipy_last_sample_before_failure(field, x0, t_end, samples):
    """The last sample time a step-by-step dense output reaches before the
    field raises, with the capped DOP853 as the stepper."""
    solver = CappedDOP853(lambda t, y: field(y), 0.0, np.array(x0, dtype=float), t_end, rtol=1e-10, atol=1e-10)
    t_eval, done = np.linspace(0.0, t_end, samples), 0
    with pytest.raises(NumericError):
        while solver.status == "running":
            solver.step()
            stop = int(np.searchsorted(t_eval, solver.t, side="right"))
            if stop > done:
                solver.dense_output()(t_eval[done:stop])
                done = stop
    return float(t_eval[done - 1]) if done else 0.0


@pytest.mark.usefixtures("folded_scipy")
@pytest.mark.parametrize("main_fails", [True, False], ids=["main-stage-fails-later", "block-fills"])
@pytest.mark.parametrize("batched", [True, False])
def test_numeric_error_in_a_held_extra_stage_is_the_earliest_failing_steps(batched, main_fails):
    # plant failures at a stage-14 state of the sixth held step, at the
    # stage-13 state of the tenth, which a stacked pass meets first, and, if
    # main_fails, at the last main-stage state before the first block is
    # finished: the earliest step's failure is reported, as in a step-by-step
    # dense output
    system, x0, _ = FLOWS[2]
    calls = []

    def recording(z):
        calls.append(z.copy())
        return system.field(z)

    flow_adaptive(
        SystemDefinition(8, recording, "recording", batched=True), x0, 15.0,
        integ=IntegratorSettings(sample_count=101),
    )
    first_block = next(i for i, z in enumerate(calls) if z.ndim == 2)
    assert len(calls[first_block]) == integrate._BLOCK
    extra, later_extra, late_main = calls[first_block + 1][5], calls[first_block][9], calls[first_block - 1]

    def planted(z):
        for row in np.reshape(z, (-1, 8)):
            if np.array_equal(row, extra):
                raise NumericError("planted in an extra stage")
            if np.array_equal(row, later_extra):
                raise NumericError("planted in a later step's extra stage")
            if main_fails and np.array_equal(row, late_main):
                raise NumericError("planted in a main stage")
        return system.field(z)

    expected = _scipy_last_sample_before_failure(planted, x0, 15.0, 101)
    with pytest.raises(IntegrationError) as err:
        flow_adaptive(
            SystemDefinition(8, planted, "planted", batched=batched), x0, 15.0,
            integ=IntegratorSettings(sample_count=101),
        )
    assert str(err.value) == "field evaluation failed during integration: planted in an extra stage"
    assert 0.0 < err.value.last_good_time == expected


def _recorded_calls(system, x0, t_end, integ):
    """The states ``system``'s field is called on in a flow, in order, and
    the flow's trajectory or error."""
    calls = []

    def recording(z):
        calls.append(np.array(z, copy=True))
        return system.field(z)

    try:
        return calls, flow_adaptive(replace(system, field=recording), x0, t_end, integ=integ)
    except IntegrationError as exc:
        return calls, exc


def _nan_at(system, states):
    """``system`` whose field gives a NaN row at exactly the given states."""

    def field(z):
        rows = np.array(system.field(z), dtype=float)
        for row, state in zip(rows.reshape(-1, system.dim), np.reshape(z, (-1, system.dim))):
            if any(np.array_equal(state, s) for s in states):
                row[:] = np.nan
        return rows

    return replace(system, field=field)


def test_nan_from_the_initial_step_probe_only_is_counted():
    # max(d1, d2) drops the probe's NaN, so only the explicit test sees it
    system, integ = oscillator.harmonic_oscillator(), IntegratorSettings(sample_count=11)
    calls, clean = _recorded_calls(system, [1.0, 0.3], 5.0, integ)
    traj = flow_adaptive(_nan_at(system, [calls[1]]), [1.0, 0.3], 5.0, integ=integ)
    assert clean.stats.nonfinite_attempts == 0
    assert (traj.stats.nonfinite_attempts, traj.stats.steps_rejected) == (1, 0)
    assert np.isfinite(traj.states).all()


def test_nan_reached_only_by_overshooting_trial_stages_is_counted_per_rejected_attempt():
    # NaN just outside the unit circle: trial steps that overshoot it are
    # rejected for their non-finite error estimate, and the flow completes
    osc = oscillator.harmonic_oscillator()

    def field(z):
        rows = np.array(osc.field(z), dtype=float)
        rows.reshape(-1, 2)[(np.reshape(z, (-1, 2)) ** 2).sum(axis=1) > 1 + 1e-4] = np.nan
        return rows

    traj = flow_adaptive(replace(osc, field=field), [1.0, 0.0], 10.0)
    assert 0 < traj.stats.nonfinite_attempts == traj.stats.steps_rejected
    assert np.isfinite(traj.states).all()
    assert flow_adaptive(osc, [1.0, 0.0], 10.0).stats.nonfinite_attempts == 0


def test_nan_sample_zero_is_counted_though_the_start_replaces_it():
    # three samples: the first step holds sample 0 alone, and a NaN at the
    # state of its first extra stage spoils that sample only
    system, integ = oscillator.harmonic_oscillator(), IntegratorSettings(sample_count=3)
    calls, clean = _recorded_calls(system, [1.0, 0.3], 10.0, integ)
    first_extra = next(z for z in calls if z.ndim == 2)[0]
    traj = flow_adaptive(_nan_at(system, [first_extra]), [1.0, 0.3], 10.0, integ=integ)
    assert traj.stats.nonfinite_attempts == 1
    assert np.array_equal(traj.states, clean.states)


def test_step_failure_counts_the_non_finite_samples_it_leaves():
    # a plunge to the origin underflows the step size; a NaN at the first
    # extra stage of the held steps finished on the way out spoils samples only
    system, x0, integ = kepler.kepler_field(), [0.3, 0.4, -0.3, -0.4], IntegratorSettings(sample_count=61)
    calls, clean = _recorded_calls(system, x0, 2 * np.pi, integ)
    first_extra = next(z for z in calls if z.ndim == 2)[0]
    with pytest.raises(IntegrationError) as err:
        flow_adaptive(_nan_at(system, [first_extra]), x0, 2 * np.pi, integ=integ)
    assert "Required step size" in str(clean) and clean.nonfinite_attempts == 0
    assert (str(err.value), err.value.last_good_time) == (str(clean), clean.last_good_time)
    assert err.value.nonfinite_attempts == 1


def test_step_failures_carry_the_count_and_field_failures_none(monkeypatch):
    system = oscillator.harmonic_oscillator()

    def field(z):
        rows = np.array(system.field(z), dtype=float)
        rows.reshape(-1, 2)[np.reshape(z, (-1, 2))[:, 0] < 0.5] = np.nan
        return rows

    with pytest.raises(IntegrationError, match="Required step size") as err:
        flow_adaptive(replace(system, field=field), [1.0, 0.0], 5.0)
    assert err.value.nonfinite_attempts > 0
    monkeypatch.setattr(integrate, "_MAX_ATTEMPTS", 3)
    with pytest.raises(IntegrationError, match="step budget of 3") as err:
        flow_adaptive(system, [1.0, 0.0], 5.0)
    assert err.value.nonfinite_attempts == 0
    with pytest.raises(IntegrationError, match="field evaluation failed") as err:
        flow_adaptive(SystemDefinition(2, lambda z: np.full(2, np.nan), "nowhere"), [1.0, 0.0], 5.0)
    assert err.value.nonfinite_attempts is None


def test_batched_field_of_the_wrong_shape_on_a_stack_is_a_usage_error():
    # a point formula declared batched: on a stack of three or more rows its
    # result has the shape of two rows
    liar = SystemDefinition(2, lambda z: np.array([z[1], -z[0]]), "liar", batched=True)
    with pytest.raises(UsageError, match=r"field of 'liar' returned shape \(2, 2\), expected \(32, 2\)"):
        flow_adaptive(liar, [1.0, 0.0], 20.0, integ=IntegratorSettings(sample_count=101))


def test_dense_output_memory_is_bounded_by_one_block_whatever_the_sample_count():
    # Toda n = 256: one state is 4 KiB, so 10,001 samples are 41 MB.  Above
    # its states a flow holds one block: its stage stack, its interpolant
    # rows and one pass's gather, each at most a stage stack.
    system, x0 = toda.periodic_field(256), random_toda_physical(256, 1, 5)[0]
    block = integrate._BLOCK * 16 * system.dim * 8
    for samples in (1001, 10001):
        tracemalloc.start()
        try:
            traj = flow_adaptive(system, x0, 1.0, integ=IntegratorSettings(sample_count=samples))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - traj.states.nbytes <= 3 * block, samples


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
    traj = flow_adaptive(toda.periodic_field(4), x0, 10.0, integ=IntegratorSettings(1e-10, 1e-10))
    report = monitor_drift(traj, toda.periodic_invariants(4))
    assert report.labels == ("I1", "I2", "I3")
    assert report.worst < 1e-8
    # formal bound: drift below 100 * (abs + rel * |x0|) * accepted steps
    bound = 100.0 * (1e-10 + 1e-10 * np.linalg.norm(x0)) * traj.stats.steps_accepted
    assert report.worst < bound


def test_kepler_circular_drift():
    x0 = kepler.circular_sample(1.0, 0.0)
    traj = flow_adaptive(kepler.kepler_field(), x0, 2 * np.pi, integ=IntegratorSettings(1e-10, 1e-10))
    q = stack_quantities([kepler.hamiltonian(), kepler.angular_momentum(), kepler.combined_invariant(1.0)])
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


# ---------------------------------------------------------------------------
# the flow of a declared linear system from the matrix exponential, checked
# against scipy's expm, the rotation of the Kepler linear pair and the stepper
# ---------------------------------------------------------------------------


def _seeded_matrix(seed, norm):
    """A seeded 4x4 Gaussian matrix scaled to the 1-norm ``norm``."""
    A = np.random.default_rng(seed).standard_normal((4, 4))
    return A * (norm / np.abs(A).sum(axis=0).max())


EPS = np.finfo(float).eps
EXPM_CASES = {
    # 1-norms around and above theta_13 = 5.37 take the squaring branch, whose
    # rounding grows with the norm (Higham 2005, section 3)
    **{f"gaussian-norm-{norm:g}-seed-{seed}": (_seeded_matrix(seed, norm), 256 * EPS * max(1.0, norm))
       for seed in (0, 1, 2) for norm in (0.01, 1.0, 5.3, 6.0, 40.0, 300.0)},
    "skew-norm-40": ((lambda S: S - S.T)(_seeded_matrix(3, 20.0)), 256 * EPS * 40),
    "nilpotent": (np.triu(_seeded_matrix(4, 6.0), 1), 1e-15),
    "zero": (np.zeros((4, 4)), 0.0),
    "non-normal": (np.diag([-1.0, -2.0, -3.0, -4.0]) + np.diag([1e3, 1e3, 1e3], 1), 1e-13),
    "linear-pair-step": (2 * np.pi / 400 * kepler.linear_pair_field(1.3).matrix, 1e-15),
}


@pytest.mark.parametrize("name", list(EXPM_CASES))
def test_expm_equals_scipy_expm(name):
    from scipy.linalg import expm

    A, rel = EXPM_CASES[name]
    got, want = integrate._expm(A), expm(A)
    assert np.abs(got - want).max() <= rel * np.abs(want).max()
    if name == "zero":
        assert got.tobytes() == np.eye(4).tobytes()  # the constant flow, exactly


def _rotation(a, x0, times):
    """The linear pair's flow in closed form: each of (x1, x2) and (y1, y2)
    turned clockwise at the rate 1/a^3."""
    c, s = np.cos(times / a**3)[:, None], np.sin(times / a**3)[:, None]
    return np.hstack([x0[0] * c + x0[1] * s, x0[1] * c - x0[0] * s, x0[2] * c + x0[3] * s, x0[3] * c - x0[2] * s])


@pytest.mark.parametrize("samples", [401, 10_001])
@pytest.mark.parametrize("seed", range(4))
def test_linear_flow_equals_the_rotation_and_the_stepper(seed, samples):
    rng = np.random.default_rng(seed)
    a, theta = rng.uniform(0.7, 1.4), rng.uniform(0.0, 2 * np.pi)
    pair, x0 = kepler.linear_pair_field(a), kepler.circular_sample(a, theta)
    x0[2:] *= 1.0 + [0.0, 0.0, 0.08, -0.15][seed]  # an off-set push moves the start off the circle
    t_end, scale = 2 * np.pi * a**3 * rng.uniform(0.5, 1.5), np.linalg.norm(x0)
    traj = integrate._linear_flow(pair, x0, t_end, IntegratorSettings(sample_count=samples))
    assert traj.states[0].tobytes() == x0.tobytes()
    assert traj.stats == integrate.IntegratorStats("matrix-exponential", 0, 0, 0)
    stepped = flow_adaptive(pair, x0, t_end, integ=IntegratorSettings(1e-13, 1e-13, samples))
    assert traj.times.tobytes() == stepped.times.tobytes()  # the stepper's grid
    # one rounding of exp(dt L) per sample along the chain of products
    assert np.abs(traj.states - _rotation(a, x0, traj.times)).max() <= 2 * samples * EPS * scale
    assert np.abs(traj.states - stepped.states).max() <= 1e-11 * scale


def test_linear_flow_on_two_samples_and_of_the_zero_matrix():
    x0 = np.array([0.1, -2.0, 3e-300, 7.0])
    pair = kepler.linear_pair_field(1.0)
    traj = integrate._linear_flow(pair, x0, 0.5, IntegratorSettings(sample_count=2))
    assert np.abs(traj.states - _rotation(1.0, x0, traj.times)).max() <= 4 * EPS * np.linalg.norm(x0)
    still = integrate._linear_flow(replace(pair, matrix=np.zeros((4, 4))), x0, 9.0, IntegratorSettings())
    assert still.states.tobytes() == np.tile(x0, (401, 1)).tobytes()


def test_linear_flow_that_overflows_raises_the_steppers_error():
    # |x| = 2.12e308: x1 = |x| cos(t - pi/4) is 1.76e308 at t = pi/16 and
    # overflows at t = pi/8, so the error names pi/16 as the last good time
    pair, integ = kepler.linear_pair_field(1.0), IntegratorSettings(sample_count=17)
    with pytest.raises(IntegrationError, match="^adaptive integration produced non-finite states$") as err:
        integrate._linear_flow(pair, [1.5e308, 1.5e308, 0.0, 0.0], np.pi, integ)
    assert err.value.last_good_time == np.linspace(0.0, np.pi, 17)[1]
    # a step matrix whose 1-norm overflows leaves sample 0 alone
    huge = replace(pair, matrix=1e300 * np.ones((4, 4)))
    with pytest.raises(IntegrationError) as err:
        integrate._linear_flow(huge, [1.0, 0.0, 0.0, 0.0], 1e10, integ)
    assert err.value.last_good_time == 0.0


def test_linear_flow_runs_with_scipy_unimportable():
    scenario = SRC.parent / "scenarios" / "kepler-circular-coincidence.json"
    done = _run_python(f"""
        import sys
        sys.modules["scipy"] = None
        from invarsets.cli import main
        sys.exit(main(["run", {str(scenario)!r}]))
    """)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "settings,message",
    [
        ({"sample_count": 10**400}, "sample_count must be an integer >= 2, got an integer of 1329 bits"),
        ({"sample_count": "401"}, "sample_count must be an integer >= 2, got '401'"),
        ({"sample_count": None}, "sample_count must be an integer >= 2, got None"),
        ({"sample_count": 1e400}, "sample_count must be an integer >= 2, got inf"),
        ({"abs_tol": "1e-10"}, r"abs_tol must lie in \(0, 1e-2\], got '1e-10'"),
        ({"rel_tol": None}, r"rel_tol must lie in \(0, 1e-2\], got None"),
        ({"rel_tol": [1e-10]}, r"rel_tol must lie in \(0, 1e-2\], got \[1e-10\]"),
    ],
    ids=["huge-count", "string-count", "no-count", "inf-count", "string-tol", "no-tol", "list-tol"],
)
def test_integrator_settings_of_the_wrong_kind_are_usage_errors(settings, message):
    with pytest.raises(UsageError, match=f"^{message}$"):
        IntegratorSettings(**settings)
