"""Trajectory generation and conserved-quantity drift monitoring.

The adaptive path is an own Dormand-Prince 5(4) stepper (Dormand and
Prince 1980; Hairer, Norsett and Wanner, *Solving ODEs I*, II.4-II.6) with
Shampine's quartic dense output, sampled on a uniform grid.  Its step
controller is the standard one: safety factor 0.9, step changes clamped to
[0.2, 10], exponent -1/5, the RMS error norm weighted by
``abs_tol + max(|y|, |y_new|) * rel_tol``, the Hairer-Norsett-Wanner
initial-step heuristic, and a failure once a step would fall below ten
spacings of the floats at the current time.  Every constant and every
floating-point operation is the one scipy's ``RK45`` uses, so the two
produce the same trajectories bit for bit.  The fixed path is a
hand-rolled classic RK4 that serves as an independent cross-check of the
adaptive integrator.
Default tolerances are 1e-10 so that downstream theorem checks comparing
residuals at ~1e-7 sit comfortably above the integration error.

Distinct integrations share no state and may run concurrently; a single
integration is sequential, and trajectories are immutable once returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConservedQuantitySet, SystemDefinition, _all_finite, as_state, evaluate_field
from .errors import IntegrationError, NumericError, UsageError

DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-10
DEFAULT_SAMPLE_COUNT = 401
MAX_FIXED_STEPS = 10**7

# Dormand-Prince 5(4): stage matrix, 5th-order weights, error weights (5th
# minus 4th order, with the FSAL stage last) and Shampine's dense-output
# matrix, written with the fractions of scipy's RK45 so that every
# coefficient rounds the same way.  The fields are autonomous, so the stage
# times are not needed.
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_SAFETY = 0.9  # step factor applied to the asymptotic estimate
_MIN_FACTOR = 0.2  # largest decrease of the step in one attempt
_MAX_FACTOR = 10  # largest increase of the step after an accepted one
_ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
_MIN_REL_TOL = 100 * np.finfo(float).eps  # smaller rel_tol is raised to this


@dataclass(frozen=True)
class IntegratorStats:
    method: str
    steps_accepted: int
    steps_rejected: int
    field_evaluations: int
    abs_tol: float | None = None
    rel_tol: float | None = None
    dt: float | None = None


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of an initial-value problem.

    ``times`` is strictly increasing and starts at 0; ``states`` is the
    matching (samples, dim) array with ``states[0]`` equal to the
    requested initial state exactly.
    """

    times: np.ndarray
    states: np.ndarray
    stats: IntegratorStats

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def dim(self) -> int:
        return int(self.states.shape[1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class DriftReport:
    """Per-component maximum deviation of a quantity from its initial value."""

    labels: tuple[str, ...]
    max_drift: np.ndarray
    time_of_max: np.ndarray

    @property
    def worst(self) -> float:
        return float(np.max(self.max_drift))


def _check_horizon(name: str, value: float) -> None:
    # NaN and inf pass a plain "<= 0" test and then never finish integrating
    if not (np.isfinite(value) and value > 0):
        raise UsageError(f"{name} must be a positive finite number, got {value}")


def _check_tolerances(abs_tol: float, rel_tol: float) -> None:
    for name, tol in (("abs_tol", abs_tol), ("rel_tol", rel_tol)):
        if not 0.0 < tol <= 1e-2:
            raise UsageError(f"{name} must lie in (0, 1e-2], got {tol}")


def flow_adaptive(
    system: SystemDefinition,
    x0,
    t_end: float,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
) -> Trajectory:
    """Integrate with the adaptive Dormand-Prince 5(4) pair.

    States are reported at ``sample_count`` uniformly spaced times via the
    integrator's dense interpolant.  Step-size underflow (stiffness or a
    field singularity) and a :class:`NumericError` from the field raise
    :class:`IntegrationError` carrying the last sample time reached.
    """
    _check_horizon("t_end", t_end)
    _check_tolerances(abs_tol, rel_tol)
    if sample_count < 2:
        raise UsageError(f"sample_count must be >= 2, got {sample_count}")
    x0v = as_state(x0, system.dim)

    t_eval = np.linspace(0.0, float(t_end), int(sample_count))
    states, accepted, rejected = _dormand_prince(system, x0v, t_eval, abs_tol, rel_tol)
    states[0] = x0v
    if not _all_finite(states):
        raise IntegrationError("adaptive integration produced non-finite states")

    stats = IntegratorStats(
        method="dormand-prince-5(4)",
        steps_accepted=accepted,
        steps_rejected=rejected,
        # one evaluation at the start, one for the initial step, six per attempt
        field_evaluations=2 + 6 * (accepted + rejected),
        abs_tol=abs_tol,
        rel_tol=rel_tol,
    )
    return Trajectory(times=t_eval, states=states, stats=stats)


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(field, y0, f0, t_end: float, atol: float, rtol: float) -> float:
    """Hairer-Norsett-Wanner starting step (Solving ODEs I, II.4) for an
    error estimator of order 4; one field evaluation.  In numpy scalars, as
    in scipy: an overflowing norm gives step 0, which the stepper raises to
    its floor."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = atol + np.abs(y0) * rtol
        d0 = _rms(y0 / scale)
        d1 = np.float64(_rms(f0 / scale))
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, t_end)
    f1 = np.asarray(field(y0 + h0 * f0), dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d2 = np.float64(_rms((f1 - f0) / scale)) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        return float(min(100 * h0, h1, t_end))


def _dormand_prince(system: SystemDefinition, y, t_eval, abs_tol, rel_tol):
    """Advance ``x' = field(x)`` from ``y`` at time 0 to ``t_eval[-1]`` and
    return the states at ``t_eval`` with the accepted and rejected step
    counts.

    Each step is one Dormand-Prince 5(4) attempt per trial step size, with
    the validated ``evaluate_field(y)`` as the first stage and the last
    stage of every accepted step reused as the first of the next.  The
    samples that fall in an accepted step come from its quartic
    interpolant.
    """
    field = system.field
    t_end = float(t_eval[-1])
    atol, rtol = abs_tol, max(rel_tol, _MIN_REL_TOL)
    states = np.empty((t_eval.size, y.size))
    K = np.empty((7, y.size))
    # stage s sums the earlier stages with row s of A: the same matrix-vector
    # product on the same transposed views as scipy, so the sums are
    # bit-identical
    stages = [(s, K[:s].T, _A[s, :s]) for s in range(1, 6)]
    KB, KE = K[:6].T, K.T

    t = 0.0
    abs_y = np.abs(y)
    accepted = rejected = filled = 0
    next_sample = float(t_eval[0])

    def last_sample() -> float:
        return float(t_eval[filled - 1]) if filled else 0.0

    try:
        K[0] = f0 = evaluate_field(system, y)
        h_abs = _initial_step(field, y, f0, t_end, atol, rtol)
        while t < t_end:
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            step_rejected = False
            while True:
                if h_abs < min_step:
                    raise IntegrationError(
                        f"adaptive integration of '{system.label}' stopped at "
                        f"t={last_sample():.6g}: Required step size is less than spacing "
                        "between numbers.",
                        last_good_time=last_sample(),
                    )
                t_new = min(t + h_abs, t_end)
                h = h_abs = t_new - t
                for s, KT, a in stages:
                    K[s] = field(y + KT.dot(a) * h)
                y_new = y + h * KB.dot(_B)
                K[6] = field(y_new)
                abs_y_new = np.abs(y_new)
                scale = atol + np.maximum(abs_y, abs_y_new) * rtol
                error_norm = _rms(KE.dot(_E) * h / scale)
                if error_norm < 1:
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                rejected += 1
                step_rejected = True

            if error_norm == 0:
                factor = _MAX_FACTOR
            else:
                factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            if step_rejected:
                factor = min(1, factor)
            h_abs *= factor
            accepted += 1

            if next_sample <= t_new:
                stop = int(np.searchsorted(t_eval, t_new, side="right"))
                x = (t_eval[filled:stop] - t) / h
                Q = KE.dot(_P)
                # x, x^2, x^3, x^4 by the products np.cumprod forms, in its order
                x2 = x * x
                x3 = x2 * x
                p = np.array((x, x2, x3, x3 * x))
                states[filled:stop] = (h * np.dot(Q, p) + y[:, None]).T
                filled = stop
                next_sample = float(t_eval[stop]) if stop < t_eval.size else math.inf
            t, y, abs_y = t_new, y_new, abs_y_new
            K[0] = K[6]
    except NumericError as exc:
        raise IntegrationError(
            f"field evaluation failed during integration: {exc}", last_good_time=last_sample()
        ) from exc
    return states, accepted, rejected


def flow_fixed(system: SystemDefinition, x0, t_end: float, dt: float) -> Trajectory:
    """Integrate with fixed-step classic RK4 (global error O(dt^4)).

    A ``dt`` larger than ``t_end`` is clamped to a single step.  Every
    accepted state is recorded.
    """
    _check_horizon("t_end", t_end)
    _check_horizon("dt", dt)
    if t_end / dt > MAX_FIXED_STEPS:
        raise UsageError(f"t_end/dt = {t_end / dt:.3g} exceeds {MAX_FIXED_STEPS:g} steps")
    x0v = as_state(x0, system.dim)
    evaluate_field(system, x0v)

    dt = min(float(dt), float(t_end))
    n_steps = int(np.ceil(t_end / dt))
    times = np.empty(n_steps + 1)
    times[: n_steps + 1] = np.arange(n_steps + 1) * dt
    times[n_steps] = float(t_end)
    if times[n_steps] <= times[n_steps - 1]:  # rounding collapsed the last step
        n_steps -= 1
        times = times[: n_steps + 1]
        times[n_steps] = float(t_end)

    f = system.field
    states = np.empty((n_steps + 1, system.dim))
    states[0] = x0v
    y = x0v.copy()
    for i in range(n_steps):
        h = times[i + 1] - times[i]
        k1 = np.asarray(f(y), dtype=float)
        k2 = np.asarray(f(y + 0.5 * h * k1), dtype=float)
        k3 = np.asarray(f(y + 0.5 * h * k2), dtype=float)
        k4 = np.asarray(f(y + h * k3), dtype=float)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not _all_finite(y):
            raise IntegrationError(
                f"fixed-step integration hit a non-finite state at t={times[i + 1]:.6g}",
                last_good_time=float(times[i]),
            )
        states[i + 1] = y

    stats = IntegratorStats(
        method="rk4",
        steps_accepted=n_steps,
        steps_rejected=0,
        field_evaluations=4 * n_steps,
        dt=dt,
    )
    return Trajectory(times=times, states=states, stats=stats)


def monitor_drift(traj: Trajectory, quantity: ConservedQuantitySet) -> DriftReport:
    """Exact maximum of |F_i(x(t)) - F_i(x(0))| over the trajectory samples,
    from one evaluation of the quantity on the whole stack of samples."""
    if quantity.dim != traj.dim:
        raise UsageError(
            f"quantity dimension {quantity.dim} != trajectory dimension {traj.dim}"
        )
    values = quantity.values_many(traj.states)
    drift = np.abs(values - values[0])
    idx = np.argmax(drift, axis=0)
    return DriftReport(
        labels=quantity.labels,
        max_drift=drift[idx, np.arange(quantity.k)],
        time_of_max=traj.times[idx],
    )
