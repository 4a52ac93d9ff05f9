"""Planar central-force (Kepler) problem in normalized units.

State (x1, x2, y1, y2): position and velocity of a unit mass around a unit
gravitational parameter.  Conserved quantities: the energy H, the angular
momentum A, and for any a > 0 the combination K = H + A/a^3 whose gradient
vanishes exactly on the clockwise circular orbits of radius a^2.  On that
family the Kepler field agrees with the linear field generated canonically
by -A/a^3, which is the companion system used in flow-coincidence checks.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConservedQuantitySet, SystemDefinition
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


def _componentwise(formula):
    """``formula`` on the components (x1, x2, y1, y2) of one state, as
    Python floats, whose arithmetic is the cheapest, or of a stack
    ``(..., 4)``, transposed and with overflow as silent as a float's.  A
    vector result is built with ``np.array`` on the components.  The two
    fields take a stack through it but a state in their own frame, the same
    operations two frames fewer: 0.79 against 0.97 us per Kepler point call
    (timeit, best of 9, shared 2-core x86-64 VM)."""

    def fn(z):
        if z.ndim == 1:
            return formula(*z.tolist())
        with np.errstate(over="ignore", invalid="ignore"):
            return formula(*z.T).T

    return fn


def _cubed_radius(x1, x2, what: str):
    """|x|^3 = r2 * sqrt(r2) of floats or arrays; zero (at the origin, or
    underflowing) is singular."""
    r2 = x1 * x1 + x2 * x2
    point = type(r2) is float
    r3 = r2 * (math.sqrt(r2) if point else np.sqrt(r2))
    if r3 == 0.0 if point else not r3.all():
        raise NumericError(f"{what} is singular at the origin (|x|^3 is zero or underflows)")
    return r3


def kepler_field() -> SystemDefinition:
    """(x1', x2', y1', y2') = (y1, y2, -x1/|x|^3, -x2/|x|^3)."""

    @_componentwise
    def stacked(x1, x2, y1, y2):
        r3 = _cubed_radius(x1, x2, "Kepler field")
        return np.array([y1, y2, -x1 / r3, -x2 / r3])

    def field(z):
        if z.ndim != 1:
            return stacked(z)
        x1, x2, y1, y2 = z.tolist()
        r2 = x1 * x1 + x2 * x2
        r3 = r2 * math.sqrt(r2)  # as _cubed_radius on floats
        if r3 == 0.0:
            raise NumericError("Kepler field is singular at the origin (|x|^3 is zero or underflows)")
        return np.array([y1, y2, -x1 / r3, -x2 / r3])

    return SystemDefinition(
        dim=4, field=field, label="kepler", component_names=("x1", "x2", "y1", "y2"), batched=True
    )


def _energy(x1, x2, y1, y2):
    r2 = x1 * x1 + x2 * x2
    r = math.sqrt(r2) if type(r2) is float else np.sqrt(r2)
    if not np.all(r):
        raise NumericError("energy is singular at the origin")
    return 0.5 * (y1 * y1 + y2 * y2) - 1.0 / r


def _energy_gradient(x1, x2, y1, y2):
    r3 = _cubed_radius(x1, x2, "energy gradient")
    return np.array([x1 / r3, x2 / r3, y1, y2])


def _momentum(x1, x2, y1, y2):
    return x1 * y2 - x2 * y1


def _momentum_gradient(x1, x2, y1, y2):
    return np.array([y2, -y1, -x2, x1])


def hamiltonian() -> ConservedQuantitySet:
    """Total energy H = |y|^2/2 - 1/|x|."""
    return ConservedQuantitySet.scalar(
        4, _componentwise(_energy), "H", gradient=_componentwise(_energy_gradient),
        smoothness_order=64, batched=True,
    )


def angular_momentum() -> ConservedQuantitySet:
    """A = x1 y2 - x2 y1."""
    return ConservedQuantitySet.scalar(
        4, _componentwise(_momentum), "A", gradient=_componentwise(_momentum_gradient),
        smoothness_order=64, batched=True,
    )


def combined_invariant(a: float) -> ConservedQuantitySet:
    """K = H + A/a^3; its gradient vanishes exactly on the radius-a^2
    clockwise circular orbits."""
    _radius(a)
    inv_a3 = 1.0 / a**3

    @_componentwise
    def value(*z):
        return _energy(*z) + inv_a3 * _momentum(*z)

    @_componentwise
    def grad(*z):
        return _energy_gradient(*z) + inv_a3 * _momentum_gradient(*z)

    return ConservedQuantitySet.scalar(
        4, value, f"K(a={a:g})", gradient=grad, smoothness_order=64, batched=True
    )


def linear_pair_hamiltonian(a: float) -> ConservedQuantitySet:
    """-A/a^3: the quadratic generator whose canonical flow is
    :func:`linear_pair_field`.  Satisfies H - (-A/a^3) = K."""
    _radius(a)
    c = -1.0 / a**3

    @_componentwise
    def value(x1, x2, y1, y2):
        return c * (x1 * y2 - x2 * y1)

    @_componentwise
    def grad(x1, x2, y1, y2):
        return np.array([c * y2, c * -y1, c * -x2, c * x1])

    return ConservedQuantitySet.scalar(
        4, value, f"-A/a^3(a={a:g})", gradient=grad, smoothness_order=64, batched=True
    )


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
    """The linear field (x2, -x1, y2, -y1)/a^3, declared as its ``matrix`` L.

    This is the canonical flow of -A/a^3; it matches the Kepler field at
    every point of the radius-a^2 circular family and nowhere else.
    """
    _radius(a)
    inv_a3 = 1.0 / a**3
    L = inv_a3 * np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])

    @_componentwise
    def stacked(x1, x2, y1, y2):
        return np.array([x2 * inv_a3, -x1 * inv_a3, y2 * inv_a3, -y1 * inv_a3])

    def field(z):
        if z.ndim != 1:
            return stacked(z)
        x1, x2, y1, y2 = z.tolist()
        return np.array([x2 * inv_a3, -x1 * inv_a3, y2 * inv_a3, -y1 * inv_a3])

    return SystemDefinition(
        dim=4,
        field=field,
        label=f"kepler-linear-pair(a={a:g})",
        component_names=("x1", "x2", "y1", "y2"),
        batched=True,
        matrix=L,
    )
