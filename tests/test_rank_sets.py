import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from invarsets import (
    ConservedQuantitySet,
    UsageError,
    jacobians,
    rank_levels,
    vanishing_memberships,
)
from invarsets import kepler, oscillator, toda
from invarsets.core import TOLERANCES
from invarsets.rank_sets import BORDERLINE_MARGIN, _decide, _margins, singular_values

from conftest import random_states, squared_radius

RANK_TOL = TOLERANCES["rank"]


def test_zero_matrix_has_rank_zero():
    decision = _decide(np.zeros((1, 2, 2)), RANK_TOL, np.array([0.0]))
    assert decision.ranks[0] == 0
    assert decision.margins[0] == np.inf


def test_constant_gradient_row_has_rank_one():
    J = jacobians(toda.periodic_invariants(4, (1,)), random_states(8, 1, 3))
    assert _decide(J, RANK_TOL, np.array([0.0])).ranks[0] == 1


def test_generic_stack_has_full_rank():
    q = toda.periodic_invariants(4)
    decisions = rank_levels(q, random_states(8, 20, 5))
    assert np.all(decisions.ranks == 3)
    assert np.all(decisions.margins >= BORDERLINE_MARGIN)


def test_rank_is_scale_robust():
    q = toda.periodic_invariants(4)
    J = jacobians(q, random_states(8, 1, 7))
    base = _decide(J, RANK_TOL, np.array([0.0])).ranks[0]
    assert _decide(J * 1e6, RANK_TOL, np.array([0.0])).ranks[0] == base
    assert _decide(J * 1e-6, RANK_TOL, np.array([0.0])).ranks[0] == base


def test_rank_margin_reflects_distance_to_threshold():
    # crafted singular values 1, 1e-4, 1e-12 with tau = 1e-8: rank 2, and
    # the margin is min(1e-4/1e-8, 1e-8/1e-12) = 1e4
    m = np.diag([1.0, 1e-4, 1e-12])
    decision = _decide(m[None], 1e-8, np.array([0.0]))
    assert decision.ranks[0] == 2
    assert decision.margins[0] == pytest.approx(1e4, rel=1e-10)
    # a singular value within a factor 10 of the threshold is borderline
    close = _decide(np.diag([1.0, 5e-8])[None], 1e-8, np.array([0.0]))
    assert close.margins[0] < BORDERLINE_MARGIN


def test_rank_threshold_is_strictly_greater():
    # a singular value exactly at the threshold is dropped (deterministic tie-break)
    decision = _decide(np.diag([1.0, 1e-8])[None], 1e-8, np.array([0.0]))
    assert decision.ranks[0] == 1


def test_dropped_subnormal_singular_value_raises_no_overflow_warning():
    # threshold / sigma overflows to inf, the intended ratio of a dropped
    # value, so the margin is the kept value's 1e10 / (1e-8 * 1e10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decision = _decide(np.diag([1e10, 1e-307])[None], RANK_TOL, np.array([0.0]))
    assert decision.ranks[0] == 1
    assert decision.margins[0] == pytest.approx(1e8, rel=1e-12)


def test_rank_tolerance_validation():
    q = toda.periodic_invariants(4)
    states = random_states(8, 1, 7)
    with pytest.raises(UsageError):
        rank_levels(q, states, tol=0.0)
    with pytest.raises(UsageError):
        rank_levels(q, states, tol=1.0)
    with pytest.raises(UsageError):
        rank_levels(q, states[0])  # a single state is a stack of one, not a vector
    with pytest.raises(UsageError):
        rank_levels(q, np.full((1, 8), np.nan))


def test_classification_examples_from_explicit_sets():
    # scalar I3 at the odd-n zero state: every gradient entry vanishes
    assert rank_levels(toda.periodic_invariants(3, (3,)), np.zeros((1, 6))).ranks[0] == 0
    # the alternating two-parameter family drops the stack rank to 2
    pattern = np.array([[0.3, 0.7, 0.3, 0.7, 0.5, -0.2, 0.5, -0.2]])
    decision = rank_levels(toda.periodic_invariants(4), pattern)
    assert decision.ranks[0] == 2
    assert decision.margins[0] >= 10


def test_rank_level_kepler_circular_is_zero():
    q = kepler.combined_invariant(1.0)
    decision = rank_levels(q, kepler.circular_sample(1.0, 0.0)[None])
    assert decision.ranks[0] == 0
    assert decision.margins[0] >= 10


def test_vanishing_membership_squared_norm():
    q = squared_radius()
    origin = np.zeros((1, 2))
    assert vanishing_memberships(q, origin, 1).verdicts[0]
    assert not vanishing_memberships(q, origin, 2).verdicts[0]  # second derivative is 2*I


def test_vanishing_membership_cubic():
    q = ConservedQuantitySet.scalar(2, lambda z: z[0] ** 3, "x1^3")
    origin = np.zeros((1, 2))
    assert vanishing_memberships(q, origin, 2).verdicts[0]
    assert not vanishing_memberships(q, origin, 3).verdicts[0]


def test_vanishing_membership_linear_never():
    q = toda.periodic_invariants(4, (1,))
    members = vanishing_memberships(q, random_states(8, 5, 11), 1)
    assert not np.any(members.verdicts)
    assert np.all(members.residuals > 0)


def test_vanishing_residual_sign_convention():
    q = squared_radius()
    members = vanishing_memberships(q, np.array([[0.0, 0.0], [1.0, 0.0]]), 1)
    assert members.residuals[0] < 0 and members.verdicts[0]
    assert members.residuals[1] > 0 and not members.verdicts[1]


def test_critical_set_membership():
    # a critical point of q has Jacobian rank below the maximum k
    q = toda.periodic_invariants(4)
    pattern = [0.3, 0.7, 0.3, 0.7, 0.5, -0.2, 0.5, -0.2]
    ranks = rank_levels(q, np.vstack([pattern, random_states(8, 1, 13)])).ranks
    assert list(ranks < q.k) == [True, False]
    # a constant full-rank row is never critical
    row = toda.periodic_invariants(4, (1,))
    assert rank_levels(row, random_states(8, 1, 15)).ranks[0] == row.k


def test_critical_residual_sign_convention():
    # the k-th singular value sits below the rank threshold exactly at
    # critical points
    q = toda.periodic_invariants(4)
    pattern = [0.3, 0.7, 0.3, 0.7, 0.5, -0.2, 0.5, -0.2]
    xs = np.vstack([pattern, random_states(8, 1, 17)])
    decisions = rank_levels(q, xs)
    # the documented rule: max(tol * sigma_1, tol * max(1, |x|))
    sv = singular_values(jacobians(q, xs))
    thresholds = np.maximum(RANK_TOL * sv[:, 0], RANK_TOL * np.maximum(1.0, np.linalg.norm(xs, axis=1)))
    below = sv[:, q.k - 1] < thresholds
    assert list(below) == [True, False]
    assert list(decisions.ranks < q.k) == [True, False]


def test_classification_is_a_partition():
    # one and only one rank comes back, and it is reproducible bit-for-bit
    q = toda.periodic_invariants(4)
    xs = random_states(8, 1, 19)
    a = rank_levels(q, xs)
    b = rank_levels(q, xs)
    assert a.ranks.shape == (1,) and a.ranks[0] == b.ranks[0]
    assert a.margins.tobytes() == b.margins.tobytes()
    assert singular_values(jacobians(q, xs)).tobytes() == singular_values(jacobians(q, xs)).tobytes()


def _vanishing_probes():
    """(quantity, states) mixes of inside and outside points."""
    circle3 = oscillator.unit_circle_power(3)
    thetas = np.linspace(0, 2 * np.pi, 7)
    on_circle = np.array([[np.cos(t), np.sin(t)] for t in thetas])
    probes = [
        (circle3, np.vstack([on_circle, random_states(2, 30, 23)])),
        (squared_radius(), np.vstack([np.zeros((1, 2)), random_states(2, 30, 29)])),
        (toda.periodic_invariants(4, (3,)), np.vstack([np.zeros((1, 8)), random_states(8, 40, 31)])),
    ]
    return probes


def test_vanishing_nesting_property():
    # membership at order r implies membership at order r - 1
    for quantity, states in _vanishing_probes():
        for r in (2, 3):
            inside = vanishing_memberships(quantity, states, r).verdicts
            assert np.all(vanishing_memberships(quantity, states, r - 1).verdicts[inside])


def test_rank_zero_iff_first_order_vanishing():
    # matched tolerances: rank floor tau * max(1, |x|) vs vanishing tol = tau
    tau = 1e-8
    for quantity, states in _vanishing_probes():
        rank0 = rank_levels(quantity, states, tau).ranks == 0
        vanish1 = vanishing_memberships(quantity, states, 1, tol=tau).verdicts
        assert np.array_equal(rank0, vanish1)


def test_vanishing_order_cap_usage_error():
    q = ConservedQuantitySet.scalar(2, lambda z: z[0] ** 6, "x^6")
    with pytest.raises(UsageError):
        vanishing_memberships(q, np.zeros((1, 2)), 5)


# -- the one margin rule, against the three formulas it replaced --------------


def _rank_rule(sv, cut):
    kept = sv > cut
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return kept, np.where(kept, sv / cut, np.where(sv > 0.0, cut / sv, np.inf))


def _vanishing_rule(worst, thresholds):
    verdicts = worst <= thresholds
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inside = np.where(worst > 0.0, thresholds / worst, np.inf)
        return verdicts, np.where(verdicts, inside, worst / thresholds)


def _set_rule(residuals, tol):
    inside = residuals <= tol
    with np.errstate(divide="ignore", over="ignore"):
        inside_margins = np.where(residuals > 0.0, tol / residuals, np.inf)
    with np.errstate(over="ignore"):
        return inside, np.where(inside, inside_margins, residuals / tol)


NON_NEGATIVE = st.sampled_from([0.0, 5e-324, 1e-300, 1e-8, 1.0, 1e300, 1.7e308]) | st.floats(0.0, 1e308)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(1, 5), r=st.integers(1, 4))
def test_margin_rule_reproduces_each_formula_it_replaced(data, m, r):
    cut = data.draw(arrays(float, (m, 1), elements=NON_NEGATIVE | st.just(np.inf)))
    values = data.draw(arrays(float, (m, r), elements=NON_NEGATIVE))
    at = data.draw(arrays(bool, (m, r)))
    values = np.where(at & np.isfinite(cut), cut, values)  # values exactly at the threshold
    tol = data.draw(st.floats(5e-324, 1e308) | st.just(np.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside, margins = _margins(values, cut)
        rows_inside, row_margins = _margins(values[:, 0], cut[:, 0])
        set_inside, set_margins = _margins(values, tol)
    kept, ratios = _rank_rule(values, cut)
    assert (~inside).tobytes() == kept.tobytes() and margins.tobytes() == ratios.tobytes()
    verdicts, vanishing = _vanishing_rule(values[:, 0], cut[:, 0])
    assert rows_inside.tobytes() == verdicts.tobytes() and row_margins.tobytes() == vanishing.tobytes()
    old_inside, old_margins = _set_rule(values, tol)
    assert set_inside.tobytes() == old_inside.tobytes() and set_margins.tobytes() == old_margins.tobytes()
