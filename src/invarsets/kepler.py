"""Planar central-force (Kepler) problem in normalized units.

State (x1, x2, y1, y2): position and velocity of a unit mass around a unit
gravitational parameter.  Conserved quantities: the energy H, the angular
momentum A, and for any a > 0 the combination K = H + A/a^3 whose gradient
vanishes exactly on the clockwise circular orbits of radius a^2.  On that
family the Kepler field agrees with the linear field generated canonically
by -A/a^3, which is the companion system used in flow-coincidence checks.
"""

from __future__ import annotations

import numpy as np

from .core import ConservedQuantitySet, SystemDefinition, stack_quantities
from .errors import NumericError, UsageError


def valid_radius(a: float) -> bool:
    """Is ``a`` a usable radius parameter: positive, with a^3 and 1/a^3
    finite and non-zero?"""
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        cube = np.float64(a) ** 3
        return bool(a > 0 and 0.0 < cube < np.inf and 0.0 < 1.0 / cube < np.inf)


def _radius(a: float) -> None:
    if not valid_radius(a):
        raise UsageError(
            f"radius parameter a must be positive, with a^3 and 1/a^3 finite and non-zero, got {a}"
        )


def kepler_field() -> SystemDefinition:
    """(x1', x2', y1', y2') = (y1, y2, -x1/|x|^3, -x2/|x|^3)."""

    def field(z):
        x1, x2, y1, y2 = z
        r2 = x1 * x1 + x2 * x2
        if r2 == 0.0:
            raise NumericError("Kepler field is singular at the origin")
        r3 = r2 * np.sqrt(r2)
        return np.array([y1, y2, -x1 / r3, -x2 / r3])

    return SystemDefinition(
        dim=4, field=field, label="kepler", component_names=("x1", "x2", "y1", "y2")
    )


def hamiltonian() -> ConservedQuantitySet:
    """Total energy H = |y|^2/2 - 1/|x|."""

    def value(z):
        x1, x2, y1, y2 = z
        r = np.sqrt(x1 * x1 + x2 * x2)
        if r == 0.0:
            raise NumericError("energy is singular at the origin")
        return 0.5 * (y1 * y1 + y2 * y2) - 1.0 / r

    def grad(z):
        x1, x2, y1, y2 = z
        r2 = x1 * x1 + x2 * x2
        if r2 == 0.0:
            raise NumericError("energy gradient is singular at the origin")
        r3 = r2 * np.sqrt(r2)
        return np.array([x1 / r3, x2 / r3, y1, y2])

    return ConservedQuantitySet.scalar(4, value, "H", gradient=grad, smoothness_order=64)


def angular_momentum() -> ConservedQuantitySet:
    """A = x1 y2 - x2 y1."""

    def partial(z, alpha):
        if len(alpha) == 1:
            x1, x2, y1, y2 = z
            return np.array([(y2, -y1, -x2, x1)[alpha[0]]])
        if len(alpha) == 2:
            a, b = sorted(alpha)
            if (a, b) == (0, 3):
                return np.array([1.0])
            if (a, b) == (1, 2):
                return np.array([-1.0])
            return np.zeros(1)
        return np.zeros(1)

    return ConservedQuantitySet.scalar(
        4,
        lambda z: z[0] * z[3] - z[1] * z[2],
        "A",
        gradient=lambda z: np.array([z[3], -z[2], -z[1], z[0]]),
        partial=partial,
        smoothness_order=64,
    )


def combined_invariant(a: float) -> ConservedQuantitySet:
    """K = H + A/a^3; its gradient vanishes exactly on the radius-a^2
    clockwise circular orbits."""
    _radius(a)
    H, A = hamiltonian(), angular_momentum()
    inv_a3 = 1.0 / a**3

    def value(z):
        return float(H.value(z)[0]) + inv_a3 * float(A.value(z)[0])

    def grad(z):
        return H.analytic_gradient(z) + inv_a3 * A.analytic_gradient(z)

    return ConservedQuantitySet.scalar(
        4, value, f"K(a={a:g})", gradient=lambda z: grad(z)[0], smoothness_order=64
    )


def linear_pair_hamiltonian(a: float) -> ConservedQuantitySet:
    """-A/a^3: the quadratic generator whose canonical flow is
    :func:`linear_pair_field`.  Satisfies H - (-A/a^3) = K."""
    _radius(a)
    A = angular_momentum()
    c = -1.0 / a**3

    def partial(z, alpha):
        return c * A.analytic_partial(z, alpha)

    return ConservedQuantitySet.scalar(
        4,
        lambda z: c * float(A.value(z)[0]),
        f"-A/a^3(a={a:g})",
        gradient=lambda z: c * A.analytic_gradient(z)[0],
        partial=partial,
        smoothness_order=64,
    )


def kepler_quantities(a: float) -> ConservedQuantitySet:
    """The stack (H, A, K(a)) with analytic gradients."""
    return stack_quantities([hamiltonian(), angular_momentum(), combined_invariant(a)])


def circular_sample(a: float, theta: float) -> np.ndarray:
    """A point of the clockwise circular family:
    x = a^2 (sin t, cos t), y = (cos t, -sin t)/a at phase t = theta.

    Satisfies x.y = 0, |x| = a^2, |y| = 1/a, and grad K(a) = 0 to
    round-off; the flow through it is the circle itself with period
    2*pi*a^3.
    """
    _radius(a)
    s, c = np.sin(theta), np.cos(theta)
    return np.array([a * a * s, a * a * c, c / a, -s / a])


def linear_pair_field(a: float) -> SystemDefinition:
    """The linear field (x2, -x1, y2, -y1)/a^3.

    This is the canonical flow of -A/a^3; it matches the Kepler field at
    every point of the radius-a^2 circular family and nowhere else.
    """
    _radius(a)
    inv_a3 = 1.0 / a**3

    def field(z):
        x1, x2, y1, y2 = z
        return np.array([x2 * inv_a3, -x1 * inv_a3, y2 * inv_a3, -y1 * inv_a3])

    return SystemDefinition(
        dim=4,
        field=field,
        label=f"kepler-linear-pair(a={a:g})",
        component_names=("x1", "x2", "y1", "y2"),
    )
