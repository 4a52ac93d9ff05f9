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
weighted by ``tol + max(|y|, |y_new|) * tol``, the
Hairer-Norsett-Wanner initial-step heuristic, and a failure once a step
would fall below ten spacings of the floats at the current time, after
100,000 step attempts, or at a thousandth attempt whose pace projects ten
times that budget to the horizon (a fast oscillation would run on).  After
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
of held steps.  The tolerance enters the error scale as a 0-d array: a
Python float costs a ufunc call 0.2-0.4 us more under NumPy 2.  The error
norm is taken on Python floats, cheaper than numpy scalars, with numpy's
scalar results (inf on overflow, nan at 0/0).
The default tolerance of :class:`IntegratorSettings` is 1e-10 so that
downstream theorem checks comparing residuals at ~1e-7 sit comfortably
above the integration error.  A system that declares a ``flow`` map has
that map's states on the same grid instead, checked against its field
(``_flow``, the one way a check takes a flow).

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
_MIN_TOL = 2.22e-14  # 100 machine epsilons, rounded down to the digits its refusal prints
_BLOCK = 32  # held steps finished together: bounds the stacked buffers
_ROWS = 16 * _BLOCK  # samples interpolated per pass: a gather no larger than the stage stack
_MAX_ATTEMPTS = 100_000  # step attempts per flow, accepted or rejected (NMAX of Hairer's DOP853)
_CHECKPOINT = 1_000  # attempts between projections of the budget
_PROJECTION = 10  # a pace that projects more than this times _MAX_ATTEMPTS ends the flow


@dataclass(frozen=True)
class IntegratorStats:
    """Counts of one flow."""

    method: str
    steps_accepted: int
    steps_rejected: int
    field_evaluations: int


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
    """How a flow is integrated: the tolerance ``tol`` of every step, in [2.22e-14, 1e-2] (refused
    outside, never raised), which scales each error component by ``tol + max(|y|, |y_new|) * tol``,
    and the number of uniform samples, an integer >= 2; also a scenario's "integ" defaults."""

    tol: float = 1e-10
    sample_count: int = 401

    def __post_init__(self):
        for name, rule in (("tol", f"lie in [{_MIN_TOL}, 1e-2]"), ("sample_count", "be an integer >= 2")):
            value = getattr(self, name)
            # a string or None is no setting, nor a number beyond the doubles
            if isinstance(value, (int, float, np.number)) and -1e308 < value < 1e308 and (
                    value >= 2 and float(value).is_integer() if name == "sample_count" else _MIN_TOL <= value <= 1e-2):
                continue
            huge = isinstance(value, int) and value.bit_length() > 64  # possibly too long to print
            got = (f"an integer of {value.bit_length()} bits" if huge
                   else value if isinstance(value, (float, np.number)) else repr(value))
            raise UsageError(f"{name} must {rule}, got {got}")


def flow_adaptive(
    system: SystemDefinition, x0, t_end: float, *, integ: IntegratorSettings = IntegratorSettings()
) -> Trajectory:
    """Integrate with the adaptive Dormand-Prince 8(5,3) pair at the tolerance of ``integ``.

    States are reported at ``integ.sample_count`` uniformly spaced times via
    the integrator's dense interpolant.  Step-size underflow (stiffness or a
    field singularity), a spent step budget, a :class:`NumericError` from
    the field and a non-finite sample raise :class:`IntegrationError`
    carrying the last sample time reached; overflow and invalid-value
    warnings are silenced.
    """
    _check_horizon("t_end", t_end)
    x0v = as_state(x0, system.dim)

    t_eval = np.linspace(0.0, float(t_end), int(integ.sample_count))
    with np.errstate(over="ignore", invalid="ignore"):
        states, accepted, rejected, dense = _dop853(system, x0v, t_eval, integ.tol)
    states[0] = x0v
    _check_samples(states, t_eval)

    stats = IntegratorStats(
        method="dormand-prince-8(5,3)",
        steps_accepted=accepted,
        steps_rejected=rejected,
        # one evaluation at the start, one for the initial step, twelve per
        # attempt and three per dense output
        field_evaluations=2 + 12 * (accepted + rejected) + 3 * dense,
    )
    return Trajectory(times=t_eval, states=states, stats=stats)


def _check_samples(states: np.ndarray, t_eval: np.ndarray, what: str = "adaptive integration") -> None:
    """Raise at the first non-finite sample, after sample 0, which is the start."""
    if not _all_finite(states):
        bad = int(np.flatnonzero(~np.isfinite(states).all(axis=1))[0])
        raise IntegrationError(f"{what} produced non-finite states", last_good_time=float(t_eval[bad - 1]))


_DELTA = 1e-3  # the premise's time step, in units of the flow's local time scale


def _row_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of an ``(m, n)`` stack, finite wherever the row's entries are: a
    row whose squares overflow is first scaled by the power of two of its largest entry, which is exact."""
    norms = np.linalg.norm(a, axis=1)
    big = np.flatnonzero(np.isinf(norms))
    if big.size:
        _, e = np.frexp(np.abs(a[big]).max(axis=1))
        norms[big] = np.ldexp(np.linalg.norm(np.ldexp(a[big], -e[:, None]), axis=1), e)
    return norms


def _flow(system: SystemDefinition, x0, t_end: float, integ: IntegratorSettings, tol: float,
          fields=None, names=None) -> tuple[Trajectory, str | None]:
    """The flow of ``system`` from ``x0`` on the grid of :func:`flow_adaptive`,
    and why its premise fails (None when it holds): every check takes its flow here.

    Where ``system.flow`` covers ``x0`` the flow is that map's states, sample
    0 ``x0``: a result of another shape is a :class:`UsageError` and a
    non-finite sample an :class:`IntegrationError` naming the declared flow.
    Its premise is that its velocity, the fourth-order centred time
    difference from one call on the four shifted grids, is within ``tol``
    (every check passes ``core.PREMISE_TOL``) of the field's rows relative
    to max(1, |row|) on every sample; the rows are ``fields(states)``, by
    default ``system.fields``.  The step at
    sample i is ``_DELTA`` |x_i| / |row_i| (or ``_DELTA``), rounded down to a
    power of two so that the shifted times round only where they cross one:
    r^(3/2) on a Kepler orbit, where one periapsis step read the rounding at
    apoapsis over 1e-8 at e = 0.99, and a^3 on the rotation.  ``names`` name
    the flow and its field in the failure, by default ``'<label>'`` and
    ``field``.  Elsewhere the flow is :func:`flow_adaptive`'s, with no premise.
    """
    _check_horizon("t_end", t_end)
    x0v = as_state(x0, system.dim)
    times = np.linspace(0.0, float(t_end), int(integ.sample_count))
    states = None if system.flow is None else system.flow(x0v, times)
    if states is None:
        return flow_adaptive(system, x0v, t_end, integ=integ), None
    states = np.array(states, dtype=float)
    if states.shape != (times.size, x0v.size):
        raise UsageError(f"flow of '{system.label}' returned shape {states.shape}, expected {(times.size, x0v.size)}")
    states[0] = x0v  # a map off x0 then fails the premise at sample 0
    _check_samples(states, times, f"declared flow of '{system.label}'")
    traj = Trajectory(times=times, states=states, stats=IntegratorStats("declared-flow", 0, 0, 0))
    rows = (fields or system.fields)(states)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norms = _row_norms(rows)
        scale = _row_norms(states) / norms
        delta = _DELTA * np.where((0 < scale) & (scale < np.inf), scale, 1.0)
        delta = np.ldexp(1.0, np.frexp(delta)[1] - 1)
        shifted = system.flow(x0v, (times + delta * np.array([[2.0], [1.0], [-1.0], [-2.0]])).ravel())
        p2, p1, m1, m2 = (np.nan,) * 4 if shifted is None else np.reshape(shifted, (4, *states.shape))
        velocity = (8 * (p1 - m1) - (p2 - m2)) / (12 * delta[:, None])
        residual = _row_norms(velocity - rows) / np.maximum(1.0, norms)
    off = ~(residual <= tol)
    if not off.any():
        return traj, None
    i = int(np.argmax(off))
    flow, field = names or (f"'{system.label}'", "field")
    return traj, (f"the declared flow of {flow} differs from its {field} at sample {i} "
                  f"(t={times[i]:.6g}, residual {residual[i]:.3e})")


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


def _initial_step(field, y0, f0, t_end: float, tol: float) -> float:
    """Hairer-Norsett-Wanner starting step (Solving ODEs I, II.4) for an
    error estimator of order 7; one field evaluation.  In numpy scalars, as
    in scipy: an overflowing norm gives step 0, which the stepper raises to
    its floor."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = tol + np.abs(y0) * tol
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
        return float(min(100 * h0, h1, t_end))


def _dop853(system: SystemDefinition, y, t_eval, tol):
    """Advance ``x' = field(x)`` from ``y`` at time 0 to ``t_eval[-1]`` and
    return the states at ``t_eval``, the accepted and rejected step counts
    and the number of steps that built a dense output.

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
    tol_0d = np.array(tol)
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
    accepted = rejected = dense = filled = 0
    checkpoint = min(_CHECKPOINT, _MAX_ATTEMPTS)  # the attempt count of the next budget check
    armed, h_prev, error_prev = False, 0.0, 0.0  # the predictive cap and the last accepted step
    next_sample = times[0]

    def last_sample() -> float:
        return times[filled - 1] if filled else 0.0

    try:
        W[0] = y
        K[0] = f0 = evaluate_field(system, y)
        h_abs = _initial_step(field, y, f0, t_end, tol)
        while t < t_end:
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            step_rejected = False
            while True:
                if h_abs < min_step or accepted + rejected == checkpoint:
                    if h_abs < min_step:
                        reason = "Required step size is less than spacing between numbers."
                    elif checkpoint == _MAX_ATTEMPTS:
                        reason = (f"the step budget of {_MAX_ATTEMPTS} attempts is spent "
                                  "(steps too short for the horizon: a fast oscillation?)")
                    elif checkpoint * t_end > _PROJECTION * _MAX_ATTEMPTS * t:  # attempts * t_end / t
                        reason = (f"{checkpoint} attempts reached t={t:.6g}, a pace that projects over "
                                  f"{_PROJECTION} times the step budget of {_MAX_ATTEMPTS} attempts")
                    else:
                        checkpoint, reason = min(checkpoint + _CHECKPOINT, _MAX_ATTEMPTS), ""
                    if reason:
                        raise IntegrationError(
                            f"adaptive integration of '{system.label}' stopped at t={last_sample():.6g}: {reason}",
                            last_good_time=last_sample(),
                        )
                t_new = min(t + h_abs, t_end)
                h = h_abs = t_new - t
                np.multiply(A, h, out=hA)
                for s, dot, c in stages:
                    W[s] = field(dot(c))
                y_new = WB.dot(cB)
                K[12] = field(y_new)
                abs_y_new = np.abs(y_new)
                scale = tol_0d + np.maximum(abs_y, abs_y_new) * tol_0d
                error_norm = _error_norm(KE, h, scale)
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
    return states, accepted, rejected, dense


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
