"""Planar harmonic oscillator and companion quantities used in examples
and tests of the vanishing-set machinery."""

from __future__ import annotations

import numpy as np

from .core import ConservedQuantitySet, SystemDefinition
from .errors import UsageError


def harmonic_oscillator() -> SystemDefinition:
    """(x1', x2') = (x2, -x1): uniform rotation of the plane."""

    def field(z):
        zt = z.T  # components first, for a point or a stack
        return np.array([zt[1], -zt[0]]).T

    return SystemDefinition(
        dim=2, field=field, label="harmonic-oscillator", component_names=("x1", "x2"), batched=True
    )


def unit_circle_power(power: int = 3) -> ConservedQuantitySet:
    """F = (x1^2 + x2^2 - 1)^power, conserved by the rotation.

    All partial derivatives up to order power - 1 vanish on the unit
    circle, while some order-power partials do not, which makes this the
    canonical probe for derivative-vanishing sets.
    """
    if power < 1:
        raise UsageError(f"power must be >= 1, got {power}")

    def value(z, _p=power):
        g = z[0] * z[0] + z[1] * z[1] - 1.0
        return g**_p

    def grad(z, _p=power):
        g = z[0] * z[0] + z[1] * z[1] - 1.0
        return 2.0 * _p * g ** (_p - 1) * z

    return ConservedQuantitySet.scalar(2, value, f"(r^2-1)^{power}", gradient=grad)
