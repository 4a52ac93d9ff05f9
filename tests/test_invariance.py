import re
from dataclasses import replace

import numpy as np
import pytest

from invarsets import (
    ConservedQuantitySet,
    IntegratorSettings,
    IntegratorStats,
    SystemDefinition,
    UsageError,
    flow_adaptive,
    rank_levels,
    stack_quantities,
    vanishing_memberships,
    verify_coincidence,
    verify_critical_invariance,
    verify_rank_invariance,
    verify_set_persistence,
    verify_vanishing_invariance,
)
from invarsets import kepler, oscillator, report, toda

from conftest import batched_symplectic_base, random_toda_physical

PATTERN_START = np.array([0.3, 0.7, 0.3, 0.7, 0.5, -0.2, 0.5, -0.2])


def test_rank_invariance_on_pattern_family():
    report = verify_rank_invariance(
        toda.periodic_field(4), toda.periodic_invariants(4), PATTERN_START, 10.0,
        integ=IntegratorSettings(sample_count=101),
    )
    assert report.verdict == "pass"
    assert report.initial_rank == 2
    assert np.all(report.sample_values == 2)
    assert report.min_margin >= 10
    assert report.drift.worst < 1e-8


def test_rank_invariance_generic_start():
    x0 = random_toda_physical(4, 1, 3)[0]
    report = verify_rank_invariance(
        toda.periodic_field(4), toda.periodic_invariants(4), x0, 10.0,
        integ=IntegratorSettings(sample_count=101),
    )
    assert report.verdict == "pass"
    assert report.initial_rank == 3
    assert np.all(report.sample_values == 3)


def test_rank_invariance_kepler_circular_rank_zero():
    report = verify_rank_invariance(
        kepler.kepler_field(),
        kepler.combined_invariant(1.0),
        kepler.circular_sample(1.0, 0.0),
        2 * np.pi,
        integ=IntegratorSettings(tol=1e-12, sample_count=101),
    )
    assert report.verdict == "pass"
    assert report.initial_rank == 0
    assert np.all(report.sample_values == 0)
    assert report.min_margin >= 10


def test_rank_invariance_nonconserved_probe_is_hypothesis_error():
    probe = ConservedQuantitySet.scalar(
        8, lambda z: z[0], "x1", gradient=lambda z: np.eye(8)[0]
    )
    report = verify_rank_invariance(toda.periodic_field(4), probe, PATTERN_START, 10.0)
    assert report.verdict == "hypothesis-error"
    assert "not conserved" in report.message
    assert report.trajectory is None


def test_vanishing_invariance_circle_order_two():
    report = verify_vanishing_invariance(
        oscillator.harmonic_oscillator(),
        oscillator.unit_circle_power(3),
        [1.0, 0.0],
        t_end=2 * np.pi,
        order=2,
        integ=IntegratorSettings(sample_count=101),
        tolerances={"vanishing": 1e-4},
    )
    assert report.verdict == "pass"
    assert report.worst_value <= 0.0  # residuals stay below threshold


def test_vanishing_invariance_order_three_hypothesis_error():
    report = verify_vanishing_invariance(
        oscillator.harmonic_oscillator(),
        oscillator.unit_circle_power(3),
        [1.0, 0.0],
        t_end=2 * np.pi,
        order=3,
        tolerances={"vanishing": 1e-4},
    )
    assert report.verdict == "hypothesis-error"
    assert "not in the order-3" in report.message


def test_vanishing_invariance_constant_quantity_trivially_passes():
    const = ConservedQuantitySet(
        dim=2,
        k=1,
        value=lambda z: np.array([2.5]),
        labels=("c",),
        analytic_gradient=lambda z: np.zeros((1, 2)),
    )
    report = verify_vanishing_invariance(
        oscillator.harmonic_oscillator(), const, [0.4, -0.2], t_end=3.0, order=4,
        integ=IntegratorSettings(sample_count=51),
    )
    assert report.verdict == "pass"


def test_set_persistence_even_pattern_families():
    report = verify_set_persistence(
        toda.periodic_field(4),
        lambda zs: toda.explicit_set_residual("M1_I13", 4, zs),
        toda.explicit_set_sample("M1_I13", 4, {"X1": 0.4, "X2": 0.9, "u": 0.6}),
        10.0,
        quantity=toda.periodic_invariants(4, (1, 3)),
        tolerances={"residual": 1e-7},
    )
    assert report.verdict == "pass"
    assert report.worst_value < 1e-7
    assert report.drift.worst < 1e-8


def test_set_persistence_nonperiodic_pattern():
    report = verify_set_persistence(
        toda.nonperiodic_field(4),
        lambda zs: toda.explicit_set_residual("M2_F123", 4, zs),
        np.array([0.5, 0.0, 0.5, 0.2, -0.1, 0.2, -0.1]),
        10.0,
        tolerances={"residual": 1e-7},
    )
    assert report.verdict == "pass"


def test_set_persistence_trivial_residual():
    report = verify_set_persistence(
        oscillator.harmonic_oscillator(), lambda zs: np.zeros(len(zs)), [1.0, 0.0], 5.0,
        tolerances={"residual": 1e-9},
    )
    assert report.verdict == "pass"
    assert report.min_margin == np.inf


def test_set_persistence_off_family_start_is_hypothesis_error():
    report = verify_set_persistence(
        toda.periodic_field(4),
        lambda zs: toda.explicit_set_residual("M2_I123", 4, zs),
        random_toda_physical(4, 1, 11)[0],
        5.0,
        tolerances={"residual": 1e-7},
    )
    assert report.verdict == "hypothesis-error"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_set_persistence_non_finite_start_residual_is_hypothesis_error(bad):
    # nan compares false both ways, so only "not r0 <= tol" refuses it
    report = verify_set_persistence(
        toda.periodic_field(4), lambda zs: np.full(len(zs), bad), PATTERN_START, 1.0,
    )
    assert report.verdict == "hypothesis-error"
    assert report.message.startswith("start violates the set residual")


def test_set_persistence_refuses_a_drift_quantity_of_another_dimension_before_integrating():
    # the flow was integrated in full before monitor_drift refused the mismatch
    calls = []
    lattice = toda.periodic_field(4)
    counted = replace(lattice, field=lambda x: calls.append(1) or lattice.field(x))
    x0 = toda.explicit_set_sample("M1_I13", 4, {"X1": 0.4, "X2": 0.9, "u": 0.6})
    with pytest.raises(UsageError) as err:
        verify_set_persistence(
            counted, lambda zs: toda.explicit_set_residual("M1_I13", 4, zs), x0, 10.0,
            quantity=toda.periodic_invariants(5),
        )
    assert str(err.value) == "quantity dimension 10 != system dimension 8"
    assert calls == []


def test_set_persistence_residual_shrinks_with_tolerance():
    x0 = toda.explicit_set_sample("M0_I3", 4, {"X1": 0.0, "u": 0.8})
    resid = lambda zs: toda.explicit_set_residual("M0_I3", 4, zs)
    loose = verify_set_persistence(
        toda.periodic_field(4), resid, x0, 10.0, integ=IntegratorSettings(tol=1e-6),
        tolerances={"residual": 1e-4},
    )
    tight = verify_set_persistence(
        toda.periodic_field(4), resid, x0, 10.0, integ=IntegratorSettings(tol=1e-8),
        tolerances={"residual": 1e-4},
    )
    assert loose.verdict == "pass" and tight.verdict == "pass"
    assert tight.worst_value <= loose.worst_value / 10.0


def test_critical_invariance_pattern_family():
    report = verify_critical_invariance(
        toda.periodic_field(4), toda.periodic_invariants(4), PATTERN_START, 10.0,
        integ=IntegratorSettings(sample_count=101),
    )
    assert report.verdict == "pass"
    assert report.initial_rank == 2


def test_critical_invariance_generic_start_is_hypothesis_error():
    report = verify_critical_invariance(
        toda.periodic_field(4),
        toda.periodic_invariants(4),
        random_toda_physical(4, 1, 13)[0],
        5.0,
    )
    assert report.verdict == "hypothesis-error"
    assert "not a critical point" in report.message


def test_critical_invariance_kepler_energy_momentum_pair():
    from invarsets import stack_quantities

    pair = stack_quantities([kepler.hamiltonian(), kepler.angular_momentum()])
    report = verify_critical_invariance(
        kepler.kepler_field(),
        pair,
        kepler.circular_sample(1.0, 0.0),
        2 * np.pi,
        integ=IntegratorSettings(tol=1e-12, sample_count=101),
    )
    assert report.verdict == "pass"
    assert report.initial_rank == 1  # gradients are parallel on the circle
    assert np.all(report.sample_values == 1)


def _half_square_probe():
    # residual x1*x2 vanishes at (1, 0), so this non-conserved quantity
    # slips past the pointwise hypothesis gate
    return ConservedQuantitySet.scalar(
        2, lambda z: 0.5 * z[0] ** 2, "x1^2/2", gradient=lambda z: np.array([z[0], 0.0])
    )


def test_rank_change_along_flow_is_reported_as_fail():
    # the gradient (x1, 0) has rank 1 at the start but rank 0 exactly at
    # the quarter turn; with a sample landing there the verifier must fail
    report = verify_rank_invariance(
        oscillator.harmonic_oscillator(), _half_square_probe(), [1.0, 0.0], np.pi,
        integ=IntegratorSettings(sample_count=3),
    )
    assert report.verdict == "fail"
    assert list(report.sample_values) == [1, 0, 1]
    assert report.min_margin >= 10  # the drop is decisive, not a tolerance artifact


def test_near_threshold_rank_is_reported_borderline():
    # stop just short of the quarter turn: the surviving singular value
    # sits within a factor 10 of the rank threshold
    report = verify_rank_invariance(
        oscillator.harmonic_oscillator(),
        _half_square_probe(),
        [1.0, 0.0],
        np.pi / 2 - 5e-8,
        integ=IntegratorSettings(sample_count=2),
    )
    assert report.verdict == "borderline"
    assert report.min_margin < 10


def test_nonconserved_probe_never_silently_passes():
    # every verifier must refuse a verdict when the "conserved" quantity is not
    probe = ConservedQuantitySet.scalar(
        8, lambda z: z[0], "x1", gradient=lambda z: np.eye(8)[0]
    )
    sys4 = toda.periodic_field(4)
    reports = [
        verify_rank_invariance(sys4, probe, PATTERN_START, 5.0),
        verify_vanishing_invariance(sys4, probe, PATTERN_START, 5.0, order=1),
        verify_critical_invariance(sys4, probe, PATTERN_START, 5.0),
    ]
    for report in reports:
        assert report.verdict == "hypothesis-error"


def test_equilibrium_is_flagged_and_trivially_invariant():
    x0 = toda.explicit_set_sample("M2_I123", 5, {"X": 0.6, "u": 0.3})
    report = verify_rank_invariance(
        toda.periodic_field(5), toda.periodic_invariants(5), x0, 5.0,
        integ=IntegratorSettings(sample_count=51),
    )
    assert report.verdict == "pass"
    assert report.equilibrium is True


def _quarter_turn_probe():
    # gradient (0, x2): zero at the start (1, 0), unit at the quarter turn,
    # and the residual x2 * -x1 vanishes at (1, 0), so the premise holds
    return ConservedQuantitySet.scalar(
        2, lambda z: 0.5 * z[1] ** 2, "x2^2/2", gradient=lambda z: np.array([0.0, z[1]])
    )


def test_vanishing_membership_lost_along_flow_is_fail():
    report = verify_vanishing_invariance(
        oscillator.harmonic_oscillator(), _quarter_turn_probe(), [1.0, 0.0], np.pi, order=1,
        integ=IntegratorSettings(sample_count=3),
    )
    assert report.verdict == "fail"
    assert report.min_margin >= 10


def test_criticality_lost_along_flow_is_fail():
    report = verify_critical_invariance(
        oscillator.harmonic_oscillator(), _quarter_turn_probe(), [1.0, 0.0], np.pi,
        integ=IntegratorSettings(sample_count=3),
    )
    assert report.verdict == "fail"
    assert report.initial_rank == 0
    assert list(report.sample_values) == [0, 1, 0]


def test_set_left_decisively_along_flow_is_fail():
    # |x2| reaches 1 at the quarter turn, 10^6 times the tolerance: each
    # sample's margin is tol/r inside and r/tol outside, so this is a fail
    report = verify_set_persistence(
        oscillator.harmonic_oscillator(), lambda zs: np.abs(zs[:, 1]), [1.0, 0.0], np.pi,
        integ=IntegratorSettings(sample_count=3), tolerances={"residual": 1e-6},
    )
    assert report.verdict == "fail"
    assert report.worst_value == pytest.approx(1.0)
    assert report.min_margin >= 10


def test_set_left_decisively_after_crossing_the_band_is_fail():
    # |x2| = sin t climbs past tol = 0.05: the first sample outside sits in
    # the band (margin 7.7), the later ones 14-20 times over tol; a sample
    # outside with margin >= 10 is a fail, however close another came
    report = verify_set_persistence(
        oscillator.harmonic_oscillator(), lambda zs: np.abs(zs[:, 1]), [1.0, 0.0], np.pi / 2,
        integ=IntegratorSettings(sample_count=5), tolerances={"residual": 0.05},
    )
    assert report.verdict == "fail"
    assert report.min_margin == pytest.approx(np.sin(np.pi / 8) / 0.05)
    assert report.min_margin < 10


def _start_preserving_mutation(system, x0, eps):
    """``system``'s field plus eps B (x - x0), B a Gaussian matrix (seed 0)
    over sqrt(dim): the perturbation vanishes at the start, so every start
    premise still holds."""
    B = np.random.default_rng(0).standard_normal((system.dim, system.dim)) / np.sqrt(system.dim)
    return SystemDefinition(
        dim=system.dim, label=f"{system.label}+mutation",
        field=lambda x: system.field(x) + eps * ((np.asarray(x, float) - x0) @ B.T),
    )


@pytest.mark.parametrize("eps", [1e-6, 1e-3])
def test_mutated_field_leaves_the_pattern_family_as_a_fail(eps):
    # the shipped toda-periodic-persist-M1I13 check on a mutated field: the
    # run crosses the borderline band on its way out of the family, and
    # ends far outside it (4.2e4 times tol at eps = 1e-3)
    x0 = M1_I13_START
    report = verify_set_persistence(
        _start_preserving_mutation(toda.periodic_field(4), x0, eps),
        lambda zs: toda.explicit_set_residual("M1_I13", 4, zs), x0, 10.0,
        integ=IntegratorSettings(tol=1e-10, sample_count=401),
        tolerances={"residual": 1e-7},
    )
    assert report.verdict == "fail"
    assert report.min_margin < 10 < report.worst_value / 1e-7


@pytest.mark.parametrize("tol", [2.0, 0.5], ids=["inside", "outside"])
def test_set_residual_near_tolerance_is_borderline(tol):
    # the quarter-turn residual 1 sits within a factor 10 of tol, on either side
    report = verify_set_persistence(
        oscillator.harmonic_oscillator(), lambda zs: np.abs(zs[:, 1]), [1.0, 0.0], np.pi,
        integ=IntegratorSettings(sample_count=3), tolerances={"residual": tol},
    )
    assert report.verdict == "borderline"
    assert report.min_margin == pytest.approx(2.0)


# One case per verifier: the call with its subject, x0 and t_end, and the
# system of the flow it integrates (for coincidence, the F-driven flow,
# whose closed form is the Kepler field).
M1_I13_START = toda.explicit_set_sample("M1_I13", 4, {"X1": 0.4, "X2": 0.9, "u": 0.6})
VERIFIER_CASES = {
    "rank": (
        lambda **kw: verify_rank_invariance(
            toda.periodic_field(4), toda.periodic_invariants(4), PATTERN_START, 2.0, **kw
        ),
        toda.periodic_field(4), PATTERN_START, 2.0,
    ),
    "critical": (
        lambda **kw: verify_critical_invariance(
            toda.periodic_field(4), toda.periodic_invariants(4), PATTERN_START, 2.0, **kw
        ),
        toda.periodic_field(4), PATTERN_START, 2.0,
    ),
    "vanishing": (
        lambda **kw: verify_vanishing_invariance(
            oscillator.harmonic_oscillator(), oscillator.unit_circle_power(3), [1.0, 0.0], 2.0,
            order=2, **{"tolerances": {"vanishing": 1e-4}, **kw},
        ),
        oscillator.harmonic_oscillator(), [1.0, 0.0], 2.0,
    ),
    "set": (
        lambda **kw: verify_set_persistence(
            toda.periodic_field(4), lambda zs: toda.explicit_set_residual("M1_I13", 4, zs), M1_I13_START, 2.0,
            **kw,
        ),
        toda.periodic_field(4), M1_I13_START, 2.0,
    ),
    "coincidence": (
        lambda **kw: verify_coincidence(
            batched_symplectic_base, kepler.hamiltonian(), kepler.linear_pair_hamiltonian(1.0),
            kepler.circular_sample(1.0, 0.3), 2.0, batched=True, **kw,
        ),
        kepler.kepler_field(), kepler.circular_sample(1.0, 0.3), 2.0,
    ),
}


@pytest.mark.parametrize("case", list(VERIFIER_CASES))
def test_integ_reaches_the_integrator_of_every_verifier(case):
    verify, system, x0, t_end = VERIFIER_CASES[case]
    integ = IntegratorSettings(tol=1e-6, sample_count=11)
    traj = verify(integ=integ).trajectory
    assert len(traj) == 11
    expected = flow_adaptive(system, x0, t_end, integ=integ).stats.field_evaluations
    assert traj.stats.field_evaluations == expected
    assert expected != flow_adaptive(system, x0, t_end).stats.field_evaluations


def test_an_integrator_tolerance_under_its_old_name_is_refused():
    # abs_tol once set the vanishing threshold here, silently
    with pytest.raises(TypeError, match="abs_tol"):
        verify_vanishing_invariance(
            oscillator.harmonic_oscillator(), oscillator.unit_circle_power(3), [1.0, 0.0], 2.0,
            order=2, abs_tol=1e-12,
        )


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "call,message",
    [
        # these gave a hypothesis-error or a verdict from a threshold no scenario admits
        (lambda: VERIFIER_CASES["vanishing"][0](tolerances={"vanishing": NAN}),
         '"tolerances.vanishing" must be positive and finite, got nan'),
        (lambda: VERIFIER_CASES["coincidence"][0](tolerances={"deviation": INF}),
         '"tolerances.deviation" must be positive and finite, got inf'),
        (lambda: VERIFIER_CASES["set"][0](tolerances={"residual": 0.0}),
         '"tolerances.residual" must be positive and finite, got 0.0'),
        (lambda: VERIFIER_CASES["critical"][0](tolerances={"rank": 1.0}),
         '"tolerances.rank" must lie in (0, 1), got 1.0'),
        (lambda: VERIFIER_CASES["rank"][0](tolerances={"rank": NAN}),
         '"tolerances.rank" must lie in (0, 1), got nan'),
        (lambda: vanishing_memberships(oscillator.unit_circle_power(3), np.ones((2, 2)), 1, tol=NAN),
         '"tol" must be positive and finite, got nan'),
        (lambda: rank_levels(toda.periodic_invariants(4), PATTERN_START[None], tol=NAN),
         '"tol" must lie in (0, 1), got nan'),
        # a name the verifier does not read, as in a scenario
        (lambda: VERIFIER_CASES["set"][0](tolerances={"deviation": 1e-6}),
         'unknown tolerance "deviation"; this check reads residual'),
        # the premise tolerances of earlier releases: every premise is held to PREMISE_TOL
        (lambda: VERIFIER_CASES["rank"][0](tolerances={"conservation": 1e-8}),
         'unknown tolerance "conservation"; this check reads rank'),
        (lambda: VERIFIER_CASES["critical"][0](tolerances={"conservation": 1e-8}),
         'unknown tolerance "conservation"; this check reads rank'),
        (lambda: VERIFIER_CASES["vanishing"][0](tolerances={"conservation": 1e-8}),
         'unknown tolerance "conservation"; this check reads vanishing'),
        (lambda: VERIFIER_CASES["coincidence"][0](tolerances={"hypothesis": 1e-8}),
         'unknown tolerance "hypothesis"; this check reads deviation'),
    ],
    ids=[
        "vanishing-nan", "deviation-inf", "residual-zero",
        "rank-one", "rank-nan", "memberships-nan", "rank-levels-nan", "unknown-name",
        "conservation-on-rank", "conservation-on-critical", "conservation-on-vanishing", "hypothesis-on-coincidence",
    ],
)
def test_every_tolerance_is_checked_by_the_scenario_rule(call, message):
    with pytest.raises(UsageError) as err:
        call()
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# a flow the system declares: every verifier takes it, checked against the
# field at the premise tolerance PREMISE_TOL, and a wrong map never passes
# ---------------------------------------------------------------------------


def _declared_kepler(map_=kepler.kepler_flow):
    return replace(kepler.kepler_field(), flow=map_)


def _kepler_verdicts(system):
    """Each verifier on the circle of radius 1 from phase 0.3, over one period."""
    x0, t_end, K = kepler.circular_sample(1.0, 0.3), 2 * np.pi, kepler.combined_invariant(1.0)
    HA = stack_quantities([kepler.hamiltonian(), kepler.angular_momentum()])
    radius = lambda zs: np.abs(np.hypot(zs[:, 0], zs[:, 1]) - 1.0)  # noqa: E731
    return {
        "rank": verify_rank_invariance(system, K, x0, t_end),
        "critical": verify_critical_invariance(system, HA, x0, t_end),
        "vanishing": verify_vanishing_invariance(system, K, x0, t_end, order=1),
        "set": verify_set_persistence(system, radius, x0, t_end, quantity=K),
    }


def test_every_verifier_takes_the_flow_a_system_declares():
    calls, system = [], _declared_kepler()
    counted = replace(system, field=lambda z: calls.append(z.shape) or system.field(z))
    stepped = _kepler_verdicts(replace(kepler.kepler_field(), flow=None))
    for name, rep in _kepler_verdicts(counted).items():
        assert rep.verdict == stepped[name].verdict == "pass", (name, rep.message)
        assert rep.trajectory.stats == IntegratorStats("declared-flow", 0, 0, 0), name
        assert stepped[name].trajectory.stats.method == "dormand-prince-8(5,3)", name
        assert np.abs(rep.trajectory.states - stepped[name].trajectory.states).max() <= 1e-8, name
    # the field is not stepped: per verifier, it is read at the start and by
    # the flow's premise on the stack (set persistence reads the start last)
    assert calls == [(4,), (401, 4)] * 3 + [(401, 4), (4,)]


def test_declared_map_off_its_field_is_a_hypothesis_error_naming_it():
    wrong = _declared_kepler(lambda x0, times: kepler.kepler_flow(x0, times * (1 + 1e-6)))
    for name, rep in _kepler_verdicts(wrong).items():
        match = re.fullmatch(
            r"the declared flow of 'kepler' differs from its field at sample 0 \(t=0, residual (\S+)\)", rep.message
        )
        assert rep.verdict == "hypothesis-error" and match, (name, rep.message)
        assert float(match[1]) == pytest.approx(1e-6, rel=1e-3)
        assert rep.trajectory.stats.method == "declared-flow"  # the samples are still classified as evidence


@pytest.mark.parametrize("scale,verdict", [(1.0, "pass"), (1 + 1e-6, "hypothesis-error")])
def test_drift_check_takes_a_declared_flow(monkeypatch, scale, verdict):
    # the drift check of a model whose field declares its flow reads that
    # flow, and a map off the field is a hypothesis error, not a drift
    field = kepler.kepler_field
    monkeypatch.setattr(kepler, "kepler_field", lambda: replace(
        field(), flow=lambda x0, times: kepler.kepler_flow(x0, times * scale)))
    config = {
        "model": {"kind": "kepler"}, "check": "drift", "quantity": "HA",
        "initial_state": {"circular": {"theta": 0.3}}, "t_end": 2 * np.pi,
    }
    rep = report.run_scenario(config)
    assert rep.verdict == verdict
    assert rep.flow[0].stats.method == "declared-flow"
    assert rep.evidence["worst_drift"] <= 1e-12
    if verdict != "pass":
        assert rep.evidence["message"].startswith("the declared flow of 'kepler' differs from its field at sample 0")
