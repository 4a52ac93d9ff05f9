import warnings

import numpy as np
import pytest

from invarsets import (
    ConservedQuantitySet,
    UsageError,
    in_critical_set,
    in_vanishing_set,
    jacobian,
    numerical_rank,
    rank_level,
)
from invarsets import kepler, oscillator, toda

from conftest import random_states


def test_zero_matrix_has_rank_zero():
    decision = numerical_rank(np.zeros((2, 2)))
    assert decision.rank == 0
    assert decision.margin == np.inf


def test_constant_gradient_row_has_rank_one():
    J = jacobian(toda.henon_closed_form(4, 1), random_states(8, 1, 3)[0])
    assert numerical_rank(J).rank == 1


def test_generic_stack_has_full_rank():
    q = toda.periodic_invariants(4)
    for x in random_states(8, 20, 5):
        decision = rank_level(q, x)
        assert decision.rank == 3
        assert not decision.borderline


def test_rank_is_scale_robust():
    q = toda.periodic_invariants(4)
    J = jacobian(q, random_states(8, 1, 7)[0])
    base = numerical_rank(J).rank
    assert numerical_rank(J * 1e6).rank == base
    assert numerical_rank(J * 1e-6).rank == base


def test_rank_margin_reflects_distance_to_threshold():
    # crafted singular values 1, 1e-4, 1e-12 with tau = 1e-8: rank 2, and
    # the margin is min(1e-4/1e-8, 1e-8/1e-12) = 1e4
    m = np.diag([1.0, 1e-4, 1e-12])
    decision = numerical_rank(m, rel_tol=1e-8)
    assert decision.rank == 2
    assert decision.margin == pytest.approx(1e4, rel=1e-10)
    # a singular value within a factor 10 of the threshold is borderline
    assert numerical_rank(np.diag([1.0, 5e-8]), rel_tol=1e-8).borderline


def test_rank_threshold_is_strictly_greater():
    # a singular value exactly at the threshold is dropped (deterministic tie-break)
    decision = numerical_rank(np.diag([1.0, 1e-8]), rel_tol=1e-8)
    assert decision.rank == 1


def test_dropped_subnormal_singular_value_raises_no_overflow_warning():
    # threshold / sigma overflows to inf, the intended ratio of a dropped
    # value, so the margin is the kept value's 1e10 / (1e-8 * 1e10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decision = numerical_rank(np.diag([1e10, 1e-307]))
    assert decision.rank == 1
    assert decision.margin == pytest.approx(1e8, rel=1e-12)


def test_rank_tolerance_validation():
    with pytest.raises(UsageError):
        numerical_rank(np.eye(2), rel_tol=0.0)
    with pytest.raises(UsageError):
        numerical_rank(np.eye(2), rel_tol=1.0)
    with pytest.raises(UsageError):
        numerical_rank(np.array([1.0, 2.0]))
    with pytest.raises(UsageError):
        numerical_rank(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_classification_examples_from_explicit_sets():
    # scalar I3 at the odd-n zero state: every gradient entry vanishes
    assert rank_level(toda.henon_closed_form(3, 3), np.zeros(6)).rank == 0
    # the alternating two-parameter family drops the stack rank to 2
    pattern = np.array([0.3, 0.7, 0.3, 0.7, 0.5, -0.2, 0.5, -0.2])
    decision = rank_level(toda.periodic_invariants(4), pattern)
    assert decision.rank == 2
    assert decision.margin >= 10


def test_rank_level_kepler_circular_is_zero():
    q = kepler.combined_invariant(1.0)
    decision = rank_level(q, kepler.circular_sample(1.0, 0.0))
    assert decision.rank == 0
    assert decision.margin >= 10


def test_vanishing_membership_squared_norm():
    q = oscillator.squared_radius()
    origin = np.zeros(2)
    assert in_vanishing_set(q, origin, 1).verdict is True
    assert in_vanishing_set(q, origin, 2).verdict is False  # second derivative is 2*I


def test_vanishing_membership_cubic():
    q = ConservedQuantitySet.scalar(2, lambda z: z[0] ** 3, "x1^3")
    origin = np.zeros(2)
    assert in_vanishing_set(q, origin, 2).verdict is True
    assert in_vanishing_set(q, origin, 3).verdict is False


def test_vanishing_membership_linear_never():
    q = toda.henon_closed_form(4, 1)
    for x in random_states(8, 5, 11):
        member = in_vanishing_set(q, x, 1)
        assert member.verdict is False
        assert member.residual > 0


def test_vanishing_residual_sign_convention():
    q = oscillator.squared_radius()
    inside = in_vanishing_set(q, np.zeros(2), 1)
    outside = in_vanishing_set(q, np.array([1.0, 0.0]), 1)
    assert inside.residual < 0 and inside.verdict
    assert outside.residual > 0 and not outside.verdict


def test_critical_set_membership():
    q = toda.periodic_invariants(4)
    pattern = np.array([0.3, 0.7, 0.3, 0.7, 0.5, -0.2, 0.5, -0.2])
    assert in_critical_set(q, pattern).verdict is True
    assert in_critical_set(q, random_states(8, 1, 13)[0]).verdict is False
    # a constant full-rank row is never critical
    assert in_critical_set(toda.henon_closed_form(4, 1), random_states(8, 1, 15)[0]).verdict is False


def test_critical_residual_sign_convention():
    q = toda.periodic_invariants(4)
    pattern = np.array([0.3, 0.7, 0.3, 0.7, 0.5, -0.2, 0.5, -0.2])
    assert in_critical_set(q, pattern).residual < 0
    assert in_critical_set(q, random_states(8, 1, 17)[0]).residual > 0


def test_classification_is_a_partition():
    # one and only one rank comes back, and it is reproducible bit-for-bit
    q = toda.periodic_invariants(4)
    x = random_states(8, 1, 19)[0]
    a = rank_level(q, x)
    b = rank_level(q, x)
    assert a.rank == b.rank
    assert a.singular_values == b.singular_values


def _vanishing_probes():
    """(quantity, states) mixes of inside and outside points."""
    circle3 = oscillator.unit_circle_power(3)
    thetas = np.linspace(0, 2 * np.pi, 7)
    on_circle = np.array([[np.cos(t), np.sin(t)] for t in thetas])
    probes = [
        (circle3, np.vstack([on_circle, random_states(2, 30, 23)])),
        (oscillator.squared_radius(), np.vstack([np.zeros((1, 2)), random_states(2, 30, 29)])),
        (toda.henon_closed_form(4, 3), np.vstack([np.zeros((1, 8)), random_states(8, 40, 31)])),
    ]
    return probes


def test_vanishing_nesting_property():
    # membership at order r implies membership at order r - 1
    for quantity, states in _vanishing_probes():
        for x in states:
            for r in (2, 3):
                if in_vanishing_set(quantity, x, r).verdict:
                    assert in_vanishing_set(quantity, x, r - 1).verdict


def test_rank_zero_iff_first_order_vanishing():
    # matched tolerances: rank floor tau * max(1, |x|) vs abs_tol = tau
    tau = 1e-8
    for quantity, states in _vanishing_probes():
        for x in states:
            rank0 = rank_level(quantity, x, tau).rank == 0
            vanish1 = in_vanishing_set(quantity, x, 1, abs_tol=tau).verdict
            assert rank0 == vanish1


def test_vanishing_order_cap_usage_error():
    q = ConservedQuantitySet.scalar(2, lambda z: z[0] ** 6, "x^6")
    with pytest.raises(UsageError):
        in_vanishing_set(q, np.zeros(2), 5)
