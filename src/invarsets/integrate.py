"""Trajectory generation and conserved-quantity drift monitoring.

The adaptive path wraps scipy's Dormand-Prince 5(4) pair with dense
sampling on a uniform grid; the fixed path is a hand-rolled classic RK4
that serves as an independent cross-check of the adaptive integrator.
Default tolerances are 1e-10 so that downstream theorem checks comparing
residuals at ~1e-7 sit comfortably above the integration error.

Distinct integrations share no state and may run concurrently; a single
integration is sequential, and trajectories are immutable once returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .core import ConservedQuantitySet, SystemDefinition, as_state, evaluate_field
from .errors import IntegrationError, NumericError, UsageError

DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-10
DEFAULT_SAMPLE_COUNT = 401
MAX_FIXED_STEPS = 10**7


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
    field singularity) raises :class:`IntegrationError` carrying the last
    good time.
    """
    _check_horizon("t_end", t_end)
    _check_tolerances(abs_tol, rel_tol)
    if sample_count < 2:
        raise UsageError(f"sample_count must be >= 2, got {sample_count}")
    x0v = as_state(x0, system.dim)
    evaluate_field(system, x0v)  # validate before handing to the stepper

    t_eval = np.linspace(0.0, float(t_end), int(sample_count))
    try:
        sol = solve_ivp(
            lambda t, y: system.field(y),
            (0.0, float(t_end)),
            x0v,
            method="RK45",
            rtol=rel_tol,
            atol=abs_tol,
            t_eval=t_eval,
            dense_output=True,
        )
    except NumericError as exc:
        raise IntegrationError(f"field evaluation failed during integration: {exc}") from exc
    if sol.status != 0:
        last = float(sol.t[-1]) if sol.t.size else 0.0
        raise IntegrationError(
            f"adaptive integration of '{system.label}' stopped at t={last:.6g}: "
            f"{sol.message}",
            last_good_time=last,
        )

    states = np.ascontiguousarray(sol.y.T)
    states[0] = x0v
    if not np.all(np.isfinite(states)):
        raise IntegrationError("adaptive integration produced non-finite states")

    # DP45 spends 6 field evaluations per attempted step plus 2 at startup.
    accepted = len(sol.sol.ts) - 1
    attempts = max(accepted, int(round((sol.nfev - 2) / 6)))
    stats = IntegratorStats(
        method="dormand-prince-5(4)",
        steps_accepted=accepted,
        steps_rejected=attempts - accepted,
        field_evaluations=int(sol.nfev),
        abs_tol=abs_tol,
        rel_tol=rel_tol,
    )
    return Trajectory(times=t_eval, states=states, stats=stats)


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
        if not np.all(np.isfinite(y)):
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
