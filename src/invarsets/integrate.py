"""Trajectory generation and conserved-quantity drift monitoring.

The adaptive path is an own Dormand-Prince 8(5,3) stepper (Dormand and
Prince 1981; Hairer, Norsett and Wanner, *Solving ODEs I*, II.10, the
DOP853 code) with its 7th-degree dense output, sampled on a uniform grid.
Dense output is finished per block of held steps, the accepted steps that
hold samples: their three extra stages are one field call each on the
block's stack (one per row for a field not declared ``batched``), and
their interpolants are evaluated in one pass.
Its step controller is the standard one: safety factor 0.9, step changes
clamped to [0.2, 10], exponent -1/8, the blended 5th/3rd-order error norm
weighted by ``abs_tol + max(|y|, |y_new|) * rel_tol``, the
Hairer-Norsett-Wanner initial-step heuristic, and a failure once a step
would fall below ten spacings of the floats at the current time or after
100,000 step attempts (a fast oscillation would otherwise run on).  After
a rejection it adds Gustafsson's predictive cap (ACM TOMS 20, 1994;
Hairer and Wanner, *Solving ODEs II*, IV.8, RADAU5's ``PRED``): on the
accepted step that follows, and on each accepted step after one where the
cap bound, the next step factor is the smaller of the standard one and
0.9 (h / h_prev) (max(1e-2, e_prev) / e^2)^(1/8) clamped to [0.2, 10],
from this step's size and error and the previous accepted step's, so the
step shrinks ahead of an error that keeps growing (an eccentric orbit
towards periapsis) instead of being retried at full length and rejected
every other attempt.  The cap only shortens steps and waits for a
rejection, so a flow that rejects nothing is stepped as without it.
Every other constant is the one scipy's ``DOP853`` uses, and so is every
floating-point operation but the stage sums, whose rounding the method
leaves open: the input of stage s is one product of the state and the
earlier stages with ``(1, h a_s)``, and the new solution one with
``(1, h B)``, a single BLAS call each where scipy's ``y + (a_s . K) h``
takes three.  The dense output keeps scipy's form, three calls per block
of held steps.  The tolerances enter the error scale as 0-d arrays: a
Python float costs a ufunc call 0.2-0.4 us more under NumPy 2.  The error
norm is taken on Python floats, cheaper than numpy scalars, with numpy's
scalar results (inf on overflow, nan at 0/0).
The default tolerances of :class:`IntegratorSettings` are 1e-10 so that
downstream theorem checks comparing residuals at ~1e-7 sit comfortably
above the integration error.  A system that declares its ``matrix`` L
has the flow exp(t L) x0 on the same grid (``_linear_flow``).

Distinct integrations share no state and may run concurrently; a single
integration is sequential, and trajectories are immutable once returned.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .core import ConservedQuantitySet, SystemDefinition, _all_finite, as_state, evaluate_field
from .errors import IntegrationError, NumericError, UsageError

# Dormand-Prince 8(5,3), as in Hairer's DOP853: rows 1-11 of the stage
# matrix A give the twelve stages of a step and row 12 is the 8th-order
# weights B, whose stage is the first of the next step; rows 13-15 are the
# three extra stages of the dense output and D the last four rows of its
# 7th-degree interpolant.  E5 and E3 weigh the thirteen stages into the
# 5th- and 3rd-order error estimates.  Every double is the one scipy's
# DOP853 uses.  The fields are autonomous, so the stage times are not
# needed.
_A = np.zeros((16, 16))
_A[1, [0]] = 0.05260015195876773
_A[2, [0, 1]] = 0.0197250569845379, 0.0591751709536137
_A[3, [0, 2]] = 0.02958758547680685, 0.08876275643042054
_A[4, [0, 2, 3]] = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
_A[5, [0, 3, 4]] = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
_A[6, [0, 3, 4, 5]] = 0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125
_A[7, [0, 3, 4, 5, 6]] = (
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
    0.008273789163814023,
)
_A[8, [0, 3, 4, 5, 6, 7]] = (
    0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996,
)
_A[9, [0, 3, 4, 5, 6, 7, 8]] = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627,
)
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196,
)
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
    0.6433927460157636,
)
_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
)
_A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = (
    0.056167502283047954, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
    0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298,
)
_A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = (
    0.03183464816350214, 0.028300909672366776, 0.053541988307438566, -0.05492374857139099,
    -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325,
)
_A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = (
    -0.42889630158379194, -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987,
)
_B = _A[12, :12]  # the stage-13 row: the 8th-order solution is FSAL
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= 0.2440944881889764, 0.7338466882816118, 0.022058823529411766
_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
)
_D = np.zeros((4, 16))
_D[0, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = (
    -8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
    2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
    -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894,
)
_D[1, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = (
    10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
    -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
    15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408,
)
_D[2, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = (
    19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
    -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
    -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279,
)
_D[3, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = (
    -25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
    93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114,
    96.32455395918828, -39.17726167561544, -149.72683625798564,
)
_SAFETY = 0.9  # step factor applied to the asymptotic estimate
_MIN_FACTOR = 0.2  # largest decrease of the step in one attempt
_MAX_FACTOR = 10  # largest increase of the step after an accepted one
_ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order + 1)
_PRED_EXPONENT = 1 / 8  # of the predictive cap's error ratio
_PRED_ERROR_FLOOR = 1e-2  # the previous accepted step's error, at least this, in the cap
_MIN_REL_TOL = 100 * np.finfo(float).eps  # smaller rel_tol is raised to this
_BLOCK = 32  # held steps finished together: bounds the stacked buffers
_ROWS = 16 * _BLOCK  # samples interpolated per pass: a gather no larger than the stage stack
_MAX_ATTEMPTS = 100_000  # step attempts per flow, accepted or rejected (NMAX of Hairer's DOP853)


@dataclass(frozen=True)
class IntegratorStats:
    """Counts of one flow.  ``nonfinite_attempts`` counts where a non-finite
    value met the stepper without failing the flow: a rejected attempt whose
    error estimate is not finite, an initial-step probe that is not finite,
    and an interpolated sample 0 that is not (the start replaces it)."""

    method: str
    steps_accepted: int
    steps_rejected: int
    field_evaluations: int
    nonfinite_attempts: int = 0


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


@dataclass(frozen=True)
class IntegratorSettings:
    """How a flow is integrated: the error tolerances of every step, each in
    (0, 1e-2], and the number of uniform samples, an integer >= 2.  The
    defaults are the library's and a scenario's "integ" section's."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    sample_count: int = 401

    def __post_init__(self):
        for name, rule in (("abs_tol", "lie in (0, 1e-2]"), ("rel_tol", "lie in (0, 1e-2]"),
                           ("sample_count", "be an integer >= 2")):
            value = getattr(self, name)
            # a string or None is no setting, nor a number beyond the doubles
            if isinstance(value, (int, float, np.number)) and -1e308 < value < 1e308 and (
                    value >= 2 and float(value).is_integer() if name == "sample_count" else 0.0 < value <= 1e-2):
                continue
            huge = isinstance(value, int) and value.bit_length() > 64  # possibly too long to print
            got = (f"an integer of {value.bit_length()} bits" if huge
                   else value if isinstance(value, (float, np.number)) else repr(value))
            raise UsageError(f"{name} must {rule}, got {got}")


def flow_adaptive(
    system: SystemDefinition, x0, t_end: float, *, integ: IntegratorSettings = IntegratorSettings()
) -> Trajectory:
    """Integrate with the adaptive Dormand-Prince 8(5,3) pair, at the
    tolerances of ``integ``.

    States are reported at ``integ.sample_count`` uniformly spaced times via
    the integrator's dense interpolant.  Step-size underflow (stiffness or a
    field singularity), a spent step budget, a :class:`NumericError` from
    the field and a non-finite sample raise :class:`IntegrationError`
    carrying the last sample time reached; overflow and invalid-value
    warnings are silenced.  The error of an underflow or a spent budget
    carries ``nonfinite_attempts`` (see :class:`IntegratorStats`), with the
    non-finite samples it left among them.
    """
    _check_horizon("t_end", t_end)
    x0v = as_state(x0, system.dim)

    t_eval = np.linspace(0.0, float(t_end), int(integ.sample_count))
    with np.errstate(over="ignore", invalid="ignore"):
        states, accepted, rejected, dense, nonfinite = _dop853(system, x0v, t_eval, integ.abs_tol, integ.rel_tol)
    finite = _all_finite(states)  # sample 0 as interpolated
    states[0] = x0v
    if not finite:
        _check_samples(states, t_eval)

    stats = IntegratorStats(
        method="dormand-prince-8(5,3)",
        steps_accepted=accepted,
        steps_rejected=rejected,
        # one evaluation at the start, one for the initial step, twelve per
        # attempt and three per dense output
        field_evaluations=2 + 12 * (accepted + rejected) + 3 * dense,
        nonfinite_attempts=nonfinite + (not finite),
    )
    return Trajectory(times=t_eval, states=states, stats=stats)


def _check_samples(states: np.ndarray, t_eval: np.ndarray) -> None:
    """Raise at the first non-finite sample, after sample 0, which is the start."""
    if not _all_finite(states):
        bad = int(np.flatnonzero(~np.isfinite(states).all(axis=1))[0])
        raise IntegrationError("adaptive integration produced non-finite states", last_good_time=float(t_eval[bad - 1]))


# Higham's [13/13] Pade coefficients b_0..b_13 (SIAM J. Matrix Anal. Appl. 26, 2005), as weights of the powers
# (I, A^2, A^4, A^6) in the two parts of U and of V, and theta_13, the largest 1-norm the approximant takes unscaled
_B13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0, 129060195264000.0,
        10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0, 0.0)
_PADE13 = np.array(_B13)[[[14, 9, 11, 13], [1, 3, 5, 7], [14, 8, 10, 12], [0, 2, 4, 6]]]
_THETA13 = 5.371920351148152


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A): the [13/13] Pade approximant of A halved s times to a 1-norm of at most theta_13, one solve,
    then s squarings (Higham, "The scaling and squaring method for the matrix exponential revisited")."""
    norm = float(np.abs(A).sum(axis=0).max())
    if not 0 < norm < math.inf:  # exp(0) is I exactly, where the solve would round
        return np.eye(len(A)) if norm == 0 else np.full_like(A, np.nan)
    s = max(0, math.ceil(math.log2(norm / _THETA13)))
    A = A / 2.0**s
    A2 = A @ A
    A4 = A2 @ A2
    powers = np.stack([np.eye(len(A)), A2, A4, A4 @ A2])
    U1, U2, V1, V2 = (_PADE13 @ powers.reshape(4, -1)).reshape(powers.shape)  # one product for the four sums
    U = A @ (powers[3] @ U1 + U2)
    V = powers[3] @ V1 + V2
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


def _linear_flow(system: SystemDefinition, x0, t_end: float, integ: IntegratorSettings) -> Trajectory:
    """exp(t L) x0 for a system that declares its ``matrix`` L, on the grid of
    :func:`flow_adaptive`: one exp(dt L), then samples k..2k-1 are the first k
    times exp(k dt L), log2(samples) products.  Sample 0 is ``x0``, and a
    non-finite sample raises the stepper's :class:`IntegrationError`."""
    _check_horizon("t_end", t_end)
    x0v = as_state(x0, system.dim)
    t_eval = np.linspace(0.0, float(t_end), int(integ.sample_count))
    states = np.empty((t_eval.size, x0v.size))
    states[0] = x0v
    with np.errstate(over="ignore", invalid="ignore"):
        P, k = _expm(t_eval[1] * system.matrix), 1
        while k < len(states):
            m = min(k, len(states) - k)
            np.matmul(states[:m], P.T, out=states[k : k + m])
            P, k = P @ P, 2 * k
    _check_samples(states, t_eval)
    return Trajectory(times=t_eval, states=states, stats=IntegratorStats("matrix-exponential", 0, 0, 0))


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _error_norm(KT: np.ndarray, h: float, scale: np.ndarray) -> float:
    """scipy's ``DOP853._estimate_error_norm`` of the stages ``KT.T``, on
    Python floats with numpy's scalar results.  A squared norm is
    ``np.linalg.norm(x) ** 2``, the rounded root squared: Python's ``**``
    rounds as numpy's does (``s * s`` does not) and cannot overflow, as the
    root of a finite double is at most sqrt(DBL_MAX), rounded down.  A zero
    e5 with a 0.01 e3 that underflows is numpy's 0/0: nan, not an exception."""
    err5, err3 = KT.dot(_E5) / scale, KT.dot(_E3) / scale
    e5, e3 = math.sqrt(err5.dot(err5)) ** 2, math.sqrt(err3.dot(err3)) ** 2
    if not (e5 or e3):
        return 0.0
    root = math.sqrt((e5 + 0.01 * e3) * scale.size)
    return h * e5 / root if root else math.nan


def _initial_step(field, y0, f0, t_end: float, atol: float, rtol: float) -> tuple[float, bool]:
    """Hairer-Norsett-Wanner starting step (Solving ODEs I, II.4) for an
    error estimator of order 7; one field evaluation, and whether it is
    finite (``max(d1, d2)`` drops a NaN).  In numpy scalars, as in scipy: an
    overflowing norm gives step 0, which the stepper raises to its floor."""
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
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        return float(min(100 * h0, h1, t_end)), _all_finite(f1)


def _dop853(system: SystemDefinition, y, t_eval, abs_tol, rel_tol):
    """Advance ``x' = field(x)`` from ``y`` at time 0 to ``t_eval[-1]`` and
    return the states at ``t_eval``, the accepted and rejected step counts,
    the number of steps that built a dense output and the non-finite count
    of :class:`IntegratorStats`, sample 0 aside.

    Each step is one twelve-stage DOP853 attempt per trial step size, with
    the validated ``evaluate_field(y)`` as the first stage and the
    8th-order solution's stage of every accepted step reused as the first
    of the next.  The predictive cap is armed by an accepted step that
    follows a rejection, bar the first accepted step, which has no
    predecessor, and stays armed while it binds.  An accepted step that
    holds samples is held: its stages, ends, time, size and sample range
    are recorded, and :func:`_finish` reads its samples off its
    interpolant with up to ``_BLOCK - 1`` other held steps.  Held steps
    are finished before any error leaves, so an earlier step's failure
    comes first, as in a step-by-step dense output.  A non-finite stage
    row spoils the attempt's error estimate, directly or through later
    stages, or (the last and the extra stages) samples.
    """
    field = system.field
    times = t_eval.tolist()
    t_end = times[-1]
    atol, rtol = abs_tol, max(rel_tol, _MIN_REL_TOL)
    atol_0d, rtol_0d = np.array(atol), np.array(rtol)
    n = y.size
    states = np.empty((t_eval.size, n))
    W = np.empty((14, n))  # a copy of y (held steps keep y, so never a view), then K
    K = W[1:]  # the twelve stages and the new solution's
    # row s of C is (1, h * row s of A) and row 12 is (1, h * B), so stage s's
    # input and the new solution are one product each: W's first rows times a row
    C = np.ones((13, 14))
    A, hA = _A[:13, :13], C[:, 1:]
    stages = [(s + 1, W[: s + 1].T.dot, C[s, : s + 1]) for s in range(1, 12)]
    WB, cB, KE = W[:13].T, C[12, :13], K.T
    block = np.empty((_BLOCK, 16, n))  # the held steps' stages and three extra
    held = []  # (t, h, y, y_new, first sample, stop) per held step

    t = 0.0
    abs_y = np.abs(y)
    accepted = rejected = dense = filled = nonfinite = 0
    armed, h_prev, error_prev = False, 0.0, 0.0  # the predictive cap and the last accepted step
    next_sample = times[0]
    stopped = None  # the step failure under way

    def last_sample() -> float:
        return times[filled - 1] if filled else 0.0

    try:
        W[0] = y
        K[0] = f0 = evaluate_field(system, y)
        h_abs, finite = _initial_step(field, y, f0, t_end, atol, rtol)
        nonfinite += not finite
        while t < t_end:
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            step_rejected = False
            while True:
                if h_abs < min_step or accepted + rejected == _MAX_ATTEMPTS:
                    reason = (
                        "Required step size is less than spacing between numbers." if h_abs < min_step
                        else f"the step budget of {_MAX_ATTEMPTS} attempts is spent "
                        "(steps too short for the horizon: a fast oscillation?)"
                    )
                    stopped = IntegrationError(
                        f"adaptive integration of '{system.label}' stopped at t={last_sample():.6g}: {reason}",
                        last_good_time=last_sample(),
                    )
                    raise stopped
                t_new = min(t + h_abs, t_end)
                h = h_abs = t_new - t
                np.multiply(A, h, out=hA)
                for s, dot, c in stages:
                    W[s] = field(dot(c))
                y_new = WB.dot(cB)
                K[12] = field(y_new)
                abs_y_new = np.abs(y_new)
                scale = atol_0d + np.maximum(abs_y, abs_y_new) * rtol_0d
                error_norm = _error_norm(KE, h, scale)
                if error_norm < 1:
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                rejected += 1
                nonfinite += not error_norm < math.inf
                step_rejected = True

            if error_norm == 0:
                factor = _MAX_FACTOR
            else:
                factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            if step_rejected:
                factor = min(1, factor)
            if (step_rejected or armed) and accepted:
                # Gustafsson's predictive cap; the standard factor exceeds 0.9,
                # so a cap that binds is the clamped one and 10 never binds
                cap, squared = _MAX_FACTOR, error_norm * error_norm  # 0 for e = 0 or an underflow: no cap
                if squared:
                    cap = _SAFETY * (h / h_prev) * (max(_PRED_ERROR_FLOOR, error_prev) / squared) ** _PRED_EXPONENT
                armed = cap < factor
                if armed:
                    factor = max(_MIN_FACTOR, cap)
            h_abs *= factor
            h_prev, error_prev = h, error_norm
            accepted += 1

            if next_sample <= t_new:
                stop = bisect.bisect_right(times, t_new)
                block[len(held), :13] = K
                held.append((t, h, y, y_new, filled, stop))
                dense += 1
                filled = stop
                next_sample = times[stop] if stop < len(times) else math.inf
                if len(held) == _BLOCK:
                    full, held = held, []
                    _finish(system, block, full, t_eval, states)
            t, y, abs_y = t_new, y_new, abs_y_new
            W[0], K[0] = y, K[12]
    except NumericError as exc:
        raise _field_failure(exc, last_sample()) from exc
    finally:  # a failure of a held step replaces a later one
        _finish(system, block, held, t_eval, states)
        if stopped is not None:
            stopped.nonfinite_attempts = nonfinite + (not _all_finite(states[:filled]))
    return states, accepted, rejected, dense, nonfinite


def _field_failure(exc: NumericError, time: float) -> IntegrationError:
    return IntegrationError(f"field evaluation failed during integration: {exc}", last_good_time=time)


def _finish(system: SystemDefinition, block, held, t_eval, states) -> None:
    """Write the samples of the ``held`` steps, whose first thirteen stages
    are rows 0-12 of ``block``, as ``Dop853DenseOutput`` computes them: the
    three extra stages as one field call each on the stack of held steps,
    then Horner's rule in place in ``states``, ``_ROWS`` samples at a time.
    A :class:`NumericError` in an extra stage sends the steps through one at
    a time, so it is the :class:`IntegrationError` of the first that fails.
    """
    m = len(held)
    if not m:
        return
    t, h, y, y_new, first, stop = (np.array(column) for column in zip(*held))
    K, hc = block[:m], h[:, None]
    for s in range(13, 16):
        try:
            K[:, s] = system.fields(y + np.matmul(_A[s, :s], K[:, :s]) * hc)
        except NumericError as exc:
            if m == 1:
                raise _field_failure(exc, float(t_eval[first[0] - 1]) if first[0] else 0.0) from exc
            for j in range(m):
                _finish(system, block[j:], held[j : j + 1], t_eval, states)
            return
    dy = y_new - y
    D = np.matmul(_D, K)
    D *= h[:, None, None]
    # from the top row down, as Dop853DenseOutput
    rows = (D[:, 3], D[:, 2], D[:, 1], D[:, 0], 2 * dy - hc * (K[:, 12] + K[:, 0]), hc * K[:, 0] - dy, dy)
    step = np.repeat(np.arange(m), stop - first)  # the held step of each sample
    x = ((t_eval[first[0] : stop[-1]] - t[step]) / h[step])[:, None]
    samples = states[first[0] : stop[-1]]
    for a in range(0, step.size, _ROWS):
        i, out, xa = step[a : a + _ROWS], samples[a : a + _ROWS], x[a : a + _ROWS]
        factors = (xa, 1 - xa)
        out.fill(0.0)
        for r, f in enumerate(rows):
            out += f.take(i, axis=0)  # fancy indexing's rows at about half the cost
            out *= factors[r % 2]
        out += y.take(i, axis=0)


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
