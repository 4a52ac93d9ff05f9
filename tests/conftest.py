from dataclasses import replace

import numpy as np
import pytest

from invarsets import ConservedQuantitySet, IntegrationError, SystemDefinition, UsageError, assemble_system
from invarsets import canonical_symplectic_matrix
from invarsets import kepler, oscillator, toda
from invarsets.core import _all_finite, as_state, evaluate_field
from invarsets.integrate import IntegratorStats, Trajectory, _check_horizon

MAX_FIXED_STEPS = 10**7


def flow_fixed(system: SystemDefinition, x0, t_end: float, dt: float) -> Trajectory:
    """Integrate with fixed-step classic RK4 (global error O(dt^4)), the
    independent cross-check of the adaptive stepper.

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
    times = np.arange(n_steps + 1) * dt
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
        method="rk4", steps_accepted=n_steps, steps_rejected=0, field_evaluations=4 * n_steps
    )
    return Trajectory(times=times, states=states, stats=stats)


def squared_radius() -> ConservedQuantitySet:
    """F = x1^2 + x2^2, conserved by the rotation of the harmonic oscillator."""
    return ConservedQuantitySet.scalar(
        2, lambda z: z[0] * z[0] + z[1] * z[1], "r^2", gradient=lambda z: 2.0 * z
    )


def zero_quantity(dim: int) -> ConservedQuantitySet:
    """The identically zero scalar quantity (conserved by any flow)."""
    return ConservedQuantitySet(
        dim=dim,
        k=1,
        value=lambda x: np.zeros(1),
        labels=("0",),
        analytic_gradient=lambda x: np.zeros((1, dim)),
    )


def trace_quantity(n: int, k: int) -> ConservedQuantitySet:
    """The free-end invariant F_k = tr(L^k)/k through the trace oracle: an
    undeclared point callable with finite-difference gradients, which also
    reaches degrees above the closed forms."""
    return ConservedQuantitySet(
        2 * n - 1, 1, lambda z: np.array([toda.trace_invariant_value(n, k, z)]), (f"F{k}",)
    )


_J = canonical_symplectic_matrix(2)


def batched_symplectic_base(x, g):
    """J g for one Kepler gradient or a stack of them, the base the
    coincidence check passes declared ``batched``."""
    return g @ _J.T


def g_driven_system(a: float, flow=True) -> SystemDefinition:
    """The G-driven system of the Kepler coincidence check, x' = J grad(-A/a^3),
    declaring the linear pair's rotation as its flow unless ``flow`` is false."""
    system = assemble_system(batched_symplectic_base, kepler.linear_pair_hamiltonian(a), batched=True).system
    return replace(system, flow=kepler.linear_pair_flow(a) if flow else None)


def random_states(dim, count, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((count, dim))


def random_toda_physical(n, count, seed, periodic=True):
    """Seeded lattice states in the physical regime (all X_i > 0).

    Orbits from such states stay bounded, which matters for integration
    runs; rank/derivative probes are free to use sign-unrestricted states.
    """
    rng = np.random.default_rng(seed)
    n_x = n if periodic else n - 1
    X = rng.uniform(0.2, 1.2, size=(count, n_x))
    u = 0.6 * rng.standard_normal((count, n))
    return np.concatenate([X, u], axis=1)


def random_kepler_states(count, seed, min_radius=0.4):
    """Seeded Kepler states with positions bounded away from the origin."""
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < count:
        z = rng.standard_normal(4)
        if np.hypot(z[0], z[1]) >= min_radius:
            states.append(z)
    return np.array(states)


def builtin_gradient_cases():
    """(label, quantity, state sampler) for every built-in analytic gradient."""
    cases = []
    for n in (3, 4, 5):
        for m in (1, 2, 3):
            cases.append(
                (
                    f"periodic-I{m}-n{n}",
                    toda.periodic_invariants(n, (m,)),
                    lambda count, seed, _n=n: random_states(2 * _n, count, seed),
                )
            )
            cases.append(
                (
                    f"nonperiodic-F{m}-n{n}",
                    toda.nonperiodic_invariants(n, (m,)),
                    lambda count, seed, _n=n: random_states(2 * _n - 1, count, seed),
                )
            )
    cases.append(("kepler-H", kepler.hamiltonian(), lambda c, s: random_kepler_states(c, s)))
    cases.append(("kepler-A", kepler.angular_momentum(), lambda c, s: random_kepler_states(c, s)))
    cases.append(
        ("kepler-K", kepler.combined_invariant(1.0), lambda c, s: random_kepler_states(c, s))
    )
    cases.append(
        ("oscillator-r2", squared_radius(), lambda c, s: random_states(2, c, s))
    )
    cases.append(
        (
            "oscillator-circle3",
            oscillator.unit_circle_power(3),
            lambda c, s: random_states(2, c, s),
        )
    )
    return cases


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
