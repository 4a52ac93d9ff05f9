"""Planar central-force (Kepler) problem in normalized units.

State (x1, x2, y1, y2): position and velocity of a unit mass around a unit
gravitational parameter.  Conserved quantities: the energy H, the angular
momentum A, and for any a > 0 the combination K = H + A/a^3 whose gradient
vanishes exactly on the clockwise circular orbits of radius a^2.  On that
family the Kepler field agrees with the linear field generated canonically
by -A/a^3, which is the companion system used in flow-coincidence checks.
Both flows are exact here: :func:`kepler_flow`, Kepler's equation on
every orbit with A != 0 (in universal variables where H >= 0 or nearly),
which :func:`kepler_field` declares, and :func:`linear_pair_flow`, a
rotation; a check takes them as the ``flow`` of a system.
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
    """``formula`` on the components (x1, x2, y1, y2) of a state or a stack
    ``(..., 4)``, transposed, with overflow silent.  A vector result is built
    with ``np.array`` on the components."""

    def fn(z):
        with np.errstate(over="ignore", invalid="ignore"):
            return formula(*z.T).T

    return fn


def _cubed_radius(x1, x2, what: str):
    """|x|^3 = r2 * sqrt(r2); zero (at the origin, or underflowing) is singular."""
    r2 = x1 * x1 + x2 * x2
    r3 = r2 * np.sqrt(r2)
    if not r3.all():
        raise NumericError(f"{what} is singular at the origin (|x|^3 is zero or underflows)")
    return r3


_NEWTON_STEPS = 30  # Danby's starter converges in at most 11 up to e = 1 - 1e-6
_UNIVERSAL_BELOW = 0.1  # alpha r0 = 2 - r0 |v|^2 below which dE - e sin dE loses digits (measured)
_UNIVERSAL_STEPS = 100  # steps on the universal anomaly; 3-5 settle most starts, 33 the worst of 4,000 random


def kepler_flow(x0: np.ndarray, times: np.ndarray) -> np.ndarray | None:
    """The Kepler flow from ``x0`` at ``times`` wherever A != 0, else None:
    Lagrange's f and g (Battin, *An Introduction to the Mathematics and
    Methods of Astrodynamics*, 4; Danby, *Fundamentals of Celestial
    Mechanics*, 6).  On an ellipse with alpha r0 >= 0.1 (alpha = -2H) they
    come from the change dE of eccentric anomaly, by one vectorised Newton
    iteration on Kepler's equation from Danby's starter over the times reduced
    modulo the period; elsewhere from :func:`_universal`.  None too if a
    residual stays above a few ulps.  A time that reduces to 0 gives ``x0``
    exactly."""
    x1, x2, y1, y2 = x0.tolist()
    r0, momentum = math.sqrt(x1 * x1 + x2 * x2), x1 * y2 - x2 * y1
    energy = 0.5 * (y1 * y1 + y2 * y2) - 1.0 / r0 if r0 else math.inf
    if not (energy < math.inf and momentum):
        return None
    if not -2.0 * energy * r0 >= _UNIVERSAL_BELOW:
        return _universal(x0, times, r0, x1 * y1 + x2 * y2, np.float64(-2.0 * energy), momentum)
    a = -0.5 / energy  # semi-major axis
    root_a = math.sqrt(a)
    period = 2.0 * math.pi * (a * root_a)
    if not 0 < period < math.inf:  # an orbit too small or too large for floats
        return None
    n = 1.0 / (a * root_a)  # mean motion
    ec, es = 1.0 - r0 / a, (x1 * y1 + x2 * y2) / root_a  # e cos E0, e sin E0
    e = math.hypot(ec, es)
    tau = np.mod(times, period)
    mean = n * tau
    dE = mean - es + 0.85 * e * np.sign(np.sin(mean + math.atan2(es, ec) - es))
    for _ in range(_NEWTON_STEPS):
        s, c = np.sin(dE), np.cos(dE)
        residual = dE - ec * s + es * (1.0 - c) - mean
        if (np.abs(residual) <= 8 * np.finfo(float).eps * (np.abs(dE) + mean + 2 * e)).all():
            break
        dE = dE - residual / (1.0 - ec * c + es * s)
    else:
        return None
    one_minus_cos, r_over_a = 2.0 * np.sin(0.5 * dE) ** 2, 1.0 - ec * c + es * s
    f, g = 1.0 - (a / r0) * one_minus_cos, tau - (dE - s) / n
    df, dg = -s / (root_a * r_over_a * r0), 1.0 - one_minus_cos / r_over_a
    states = np.stack([f * x1 + g * y1, f * x2 + g * y2, df * x1 + dg * y1, df * x2 + dg * y2], axis=1)
    states[tau == 0] = x0
    return states


def _stumpff(z, alpha):
    """Stumpff's C(z) = 2 (sin(s/2) / s)^2 and S(z) = (s - sin s) / s^3, s = sqrt(z), on z of the sign
    of ``alpha`` (sinh and -z for z < 0); C(0) = 1/2, and S from its Taylor series where |z| < 1."""
    if not alpha:  # a parabola: z = 0
        return 0.5, 1.0 / 6.0
    s, trig, series = np.sqrt(np.abs(z)), np.sin if alpha > 0 else np.sinh, 0.0
    for k in range(8, -1, -1):  # the sum of (-z)^k / (2k + 3)!
        series = series * -z + 1.0 / math.factorial(2 * k + 3)
    c = np.where(s > 0, 2.0 * (trig(0.5 * s) / s) ** 2, 0.5)
    return c, np.where(np.abs(z) < 1, series, (s - trig(s)) / (s * z))


def _universal(x0, times, r0, sigma, alpha, momentum):
    """:func:`kepler_flow` in the universal anomaly chi, from |x0| = r0, x0 . v0 = sigma and alpha = 2/r0 - |v0|^2:
    t = sigma chi^2 C + (1 - alpha r0) chi^3 S + r0 chi, z = alpha chi^2, rises at the rate r >= q, the
    periapsis distance A^2 / (1 + e), so chi lies between 0 and t/q, and on an ellipse, the times reduced
    to within half a period of 0, within 2 pi / sqrt(alpha).  Laguerre's step (Conway, Celest. Mech. 39,
    1986) is taken where it stays in that bracket and is at most half the step before last, else the
    bracket is bisected.  None where chi settles neither to a few ulps of the equation's terms nor of
    itself, or a state is not finite."""
    eps = np.finfo(float).eps
    with np.errstate(all="ignore"):
        tau, beta, chi_max, period = times, 1.0 - alpha * r0, np.inf, 2.0 * np.pi / (alpha * np.sqrt(alpha))
        if 0 < period < np.inf:
            tau, chi_max = times - period * np.round(times / period), 2.0 * np.pi / np.sqrt(alpha)
        q = momentum * momentum / (1.0 + np.sqrt(max(0.0, 1.0 - alpha * momentum * momentum)))
        lo, hi, size = np.clip(tau / q, -chi_max, 0.0), np.clip(tau / q, 0.0, chi_max), np.abs(tau)
        guess = np.minimum(size / r0, np.cbrt(6.0 * size / beta))  # the radial and the cubic term alone
        if alpha < 0:  # and the hyperbola's exponential
            guess = np.minimum(guess, np.log1p(2.0 * (-alpha) ** 1.5 * size / beta) / np.sqrt(-alpha))
        chi = np.clip(np.copysign(guess, tau), lo, hi)
        before = last = hi - lo
        for _ in range(_UNIVERSAL_STEPS):
            chi2 = chi * chi
            z = alpha * chi2
            c, s = _stumpff(z, alpha)
            u, w = chi * (1.0 - z * s), 1.0 - z * c
            terms = (sigma * chi2 * c, beta * chi2 * chi * s, r0 * chi)
            residual, r = sum(terms) - tau, chi2 * c + sigma * u + r0 * w  # and r = dt/dchi
            settled = np.abs(residual) / (sum(map(np.abs, terms)) + size) <= 8 * eps  # nan where they overflow
            if (settled | (hi - lo <= 2 * eps * np.abs(chi))).all():
                break
            residual = np.where(np.isfinite(residual), residual, chi)  # an overflow lies beyond the root
            lo, hi = np.where(residual < 0, chi, lo), np.where(residual > 0, chi, hi)
            newton = residual / r  # and Laguerre's step of order 5, with d2t/dchi2 = (1 - alpha r0) u + sigma w
            step = -5.0 * newton / (1.0 + np.sqrt(np.abs(16.0 - 20.0 * newton * (beta * u + sigma * w) / r)))
            take = (lo <= chi + step) & (chi + step <= hi) & (np.abs(step) <= 0.5 * np.abs(before)) & (step != 0)
            new = np.where(settled, chi, np.where(take, chi + step, 0.5 * (lo + hi)))  # a settled chi stays
            before, last, chi = last, new - chi, new
        else:
            return None
        f, g, df, dg = 1.0 - chi2 * c / r0, terms[0] + r0 * u, -u / (r * r0), 1.0 - chi2 * c / r
        states = (np.stack([f, g, df, dg], axis=1).reshape(-1, 2, 2) @ x0.reshape(2, 2)).reshape(-1, 4)
    states[tau == 0] = x0
    return states if np.isfinite(states).all() else None


def kepler_field() -> SystemDefinition:
    """(x1', x2', y1', y2') = (y1, y2, -x1/|x|^3, -x2/|x|^3), declaring its
    exact flow :func:`kepler_flow`: a check steps it only from a radial
    start (A = 0) or where the flow returns None."""

    @_componentwise
    def field(x1, x2, y1, y2):
        r3 = _cubed_radius(x1, x2, "Kepler field")
        return np.array([y1, y2, -x1 / r3, -x2 / r3])

    return SystemDefinition(
        dim=4, field=field, label="kepler", component_names=("x1", "x2", "y1", "y2"), batched=True, flow=kepler_flow
    )


def _energy(x1, x2, y1, y2):
    r = np.sqrt(x1 * x1 + x2 * x2)
    if not r.all():
        raise NumericError("energy is singular at the origin")
    return 0.5 * (y1 * y1 + y2 * y2) - 1.0 / r


def _energy_gradient(x1, x2, y1, y2):
    r3 = _cubed_radius(x1, x2, "energy gradient")
    return np.array([x1 / r3, x2 / r3, y1, y2])


def _momentum(x1, x2, y1, y2):
    return x1 * y2 - x2 * y1


def _momentum_gradient(x1, x2, y1, y2):
    return np.array([y2, -y1, -x2, x1])


def _quantity(label: str, value, gradient) -> ConservedQuantitySet:
    """The batched scalar quantity with ``value`` and ``gradient`` formulas on
    the components."""
    return ConservedQuantitySet.scalar(4, _componentwise(value), label, gradient=_componentwise(gradient), batched=True)


def hamiltonian() -> ConservedQuantitySet:
    """Total energy H = |y|^2/2 - 1/|x|."""
    return _quantity("H", _energy, _energy_gradient)


def angular_momentum() -> ConservedQuantitySet:
    """A = x1 y2 - x2 y1."""
    return _quantity("A", _momentum, _momentum_gradient)


def combined_invariant(a: float) -> ConservedQuantitySet:
    """K = H + A/a^3; its gradient vanishes exactly on the radius-a^2
    clockwise circular orbits."""
    _radius(a)
    inv_a3 = 1.0 / a**3
    return _quantity(
        f"K(a={a:g})",
        lambda *z: _energy(*z) + inv_a3 * _momentum(*z),
        lambda *z: _energy_gradient(*z) + inv_a3 * _momentum_gradient(*z),
    )


def linear_pair_hamiltonian(a: float) -> ConservedQuantitySet:
    """-A/a^3: the quadratic generator whose canonical flow is
    :func:`linear_pair_flow`.  Satisfies H - (-A/a^3) = K."""
    _radius(a)
    c = -1.0 / a**3
    return _quantity(f"-A/a^3(a={a:g})", lambda *z: c * _momentum(*z), lambda *z: c * _momentum_gradient(*z))


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


def linear_pair_flow(a: float):
    """The canonical flow of -A/a^3, of the linear field (x2, -x1, y2, -y1)/a^3,
    which matches the Kepler field at every point of the radius-a^2 circular
    family and nowhere else: a ``SystemDefinition.flow`` that turns (x1, x2)
    and (y1, y2) each clockwise at the rate 1/a^3, from every start."""
    _radius(a)
    rate = 1.0 / a**3

    def flow(x0, times):  # (cos, sin) of the angle times (x0, x0 turned a quarter clockwise)
        x1, x2, y1, y2 = x0
        with np.errstate(over="ignore", invalid="ignore"):  # a far-out start's overflow is the caller's check
            angle = times * rate
            return np.stack([np.cos(angle), np.sin(angle)], axis=1) @ np.array([x0, [x2, -x1, y2, -y1]])

    return flow
