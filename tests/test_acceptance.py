"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and then asserts, so the suite doubles as a checklist.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import numpy as np

from invarsets import (
    ConservedQuantitySet,
    IntegratorSettings,
    canonical_symplectic_matrix,
    evaluate_field,
    flow_adaptive,
    jacobians,
    rank_levels,
    verify_coincidence,
    verify_rank_invariance,
    verify_set_persistence,
    verify_vanishing_invariance,
    vanishing_memberships,
)
from invarsets import kepler, oscillator, toda

from conftest import builtin_gradient_cases, random_states


def _report(number, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number}: {name}{suffix}"


# criterion 3 sample parameters; the even-case values sit on contracting
# branches so the orbits stay bounded over the full run
EVEN_PARAMS = {
    "M0_I3": {"X1": 0.0, "u": 0.8},
    "M1_I13": {"X1": 0.4, "X2": 0.9, "u": 0.6},
    "M1_I23": {"X1": -0.16, "u1": -0.4, "u2": 0.4},
    "M2_I123": {"X1": 0.3, "X2": 0.7, "u1": 0.5, "u2": -0.2},
    "M0_F3": {"u": -0.6},
    "M1_F13": {"X": 0.5, "u": 0.6},
    "M1_F23": {"u1": 0.3, "u2": 0.2},
    "M2_F123": {"X": 0.5, "u1": 0.2, "u2": -0.1},
}
ODD_PARAMS = {
    "M0_I3": {},
    "M1_I13": {"X": 0.7},
    "M1_I23": {"u": 0.4},
    "M2_I123": {"X": 0.6, "u": 0.3},
    "M0_F3": {},
    "M1_F13": {},
    "M1_F23": {"u1": 0.7},
    "M2_F123": {"u1": 0.5, "u2": -0.3},
}


def _system_for(set_id, n):
    if toda.EXPLICIT_SETS[set_id].lattice == "periodic":
        return toda.periodic_field(n)
    return toda.nonperiodic_field(n)


def test_criterion_1_kepler_coincidence():
    base = lambda x, g: canonical_symplectic_matrix(2) @ g
    ok = True
    details = []
    for a in (1.0, 1.5):
        x0 = kepler.circular_sample(a, 0.0)
        period = 2 * np.pi * a**3
        report = verify_coincidence(
            base,
            kepler.hamiltonian(),
            kepler.linear_pair_hamiltonian(a),
            x0,
            period,
            integ=IntegratorSettings(tol=1e-10),
            tolerances={"deviation": 1e-6},
        )
        closure = float(np.linalg.norm(report.trajectory.final_state - x0))
        ok = ok and report.verdict == "pass" and report.worst_value < 1e-6 and closure < 1e-6
        details.append(f"a={a}: dev={report.worst_value:.2e} closure={closure:.2e}")
    control = verify_coincidence(
        base,
        kepler.hamiltonian(),
        kepler.linear_pair_hamiltonian(1.0),
        np.array([0.0, 2.0, 1.0, 0.0]),
        2 * np.pi,
        integ=IntegratorSettings(tol=1e-10),
    )
    ok = ok and control.verdict == "hypothesis-error" and control.worst_value > 1e-3
    details.append(f"control dev={control.worst_value:.2e}")
    _report(1, "kepler circular coincidence + off-set control", ok, "; ".join(details))


def test_criterion_2_rank_invariance():
    sys4 = toda.periodic_field(4)
    q = toda.periodic_invariants(4)
    pattern = np.array([0.3, 0.7, 0.3, 0.7, 0.5, -0.2, 0.5, -0.2])
    rep_p = verify_rank_invariance(sys4, q, pattern, 10.0, integ=IntegratorSettings(sample_count=401))
    generic = np.array([0.9, 0.4, 0.7, 1.1, 0.3, -0.5, 0.2, 0.4])
    rep_g = verify_rank_invariance(sys4, q, generic, 10.0, integ=IntegratorSettings(sample_count=401))
    ok = (
        rep_p.verdict == "pass"
        and rep_p.initial_rank == 2
        and bool(np.all(rep_p.sample_values == 2))
        and rep_p.min_margin >= 10
        and rep_g.verdict == "pass"
        and bool(np.all(rep_g.sample_values == 3))
        and rep_p.drift.worst < 1e-8
        and rep_g.drift.worst < 1e-8
    )
    _report(
        2,
        "rank constancy along periodic flows",
        ok,
        f"pattern margin={rep_p.min_margin:.1f} drift={max(rep_p.drift.worst, rep_g.drift.worst):.2e}",
    )


def test_criterion_3_explicit_set_persistence():
    ok = True
    worst = 0.0
    for n, params_table in ((4, EVEN_PARAMS), (5, ODD_PARAMS)):
        for set_id, params in params_table.items():
            system = _system_for(set_id, n)
            x0 = toda.explicit_set_sample(set_id, n, params)
            rep = verify_set_persistence(
                system,
                lambda zs, _id=set_id, _n=n: toda.explicit_set_residual(_id, _n, zs),
                x0,
                10.0,
                quantity=toda.explicit_set_quantity(set_id, n),
                tolerances={"residual": 1e-7},
            )
            ok = ok and rep.verdict == "pass" and rep.worst_value < 1e-7
            worst = max(worst, rep.worst_value)
            if n == 5 and toda.EXPLICIT_SETS[set_id].lattice == "periodic":
                field_norm = float(np.linalg.norm(evaluate_field(system, x0)))
                ok = ok and field_norm < 1e-12
    _report(3, "explicit families persist along flows", ok, f"worst residual={worst:.2e}")


def test_criterion_4_reduced_dynamics_equivalence():
    ok = True
    details = []
    cases = (
        ("M2_I123", toda.periodic_field(4), np.array([0.3, 0.7, 0.5, -0.2])),
        ("M2_F123", toda.nonperiodic_field(4), np.array([0.5, 0.2, -0.1])),
    )
    for set_id, full_system, z0 in cases:
        red = toda.reduced_dynamics(set_id)
        x0 = red.lift(z0, 4)
        full = flow_adaptive(full_system, x0, 10.0, integ=IntegratorSettings(tol=1e-10, sample_count=401))
        reduced = flow_adaptive(red.system, z0, 10.0, integ=IntegratorSettings(tol=1e-10, sample_count=401))
        lifted = np.array([red.lift(z, 4) for z in reduced.states])
        gap = float(np.max(np.linalg.norm(full.states - lifted, axis=1)))
        ok = ok and gap < 1e-7
        details.append(f"{set_id}: gap={gap:.2e}")
    _report(4, "reduced two-particle dynamics match the lifted flow", ok, "; ".join(details))


def test_criterion_5_henon_oracle_equality():
    ok = True
    worst = 0.0
    for n in (3, 4, 5, 6):
        states = random_states(2 * n, 100, 900 + n)
        for m in (1, 2, 3):
            closed = toda.periodic_invariants(n, (m,))
            enum = toda.henon_invariant_oracle(n, m)
            for a, b in zip(closed.values_many(states)[:, 0], enum.values_many(states)[:, 0]):
                rel = abs(a - b) / max(1.0, abs(a))
                worst = max(worst, rel)
                ok = ok and rel <= 1e-12
    _report(5, "closed forms equal the combinatorial enumeration", ok, f"worst rel={worst:.2e}")


def test_criterion_6_flaschka_consistency():
    ok = True
    worst_val, worst_grad, worst_lax = 0.0, 0.0, 0.0
    for n in (3, 4, 5):
        states = random_states(2 * n - 1, 50, 950 + n)
        for k in (1, 2, 3):
            q = toda.nonperiodic_invariants(n, (k,))
            fd_only = ConservedQuantitySet(dim=2 * n - 1, k=1, value=q.value, labels=q.labels)
            rows = zip(q.values_many(states)[:, 0], states, jacobians(q, states), jacobians(fd_only, states))
            for a, x, g, fd in rows:
                b = toda.trace_invariant_value(n, k, x)
                worst_val = max(worst_val, abs(a - b) / max(1.0, abs(a)))
                scale = max(1.0, float(np.max(np.abs(g))))
                worst_grad = max(worst_grad, float(np.max(np.abs(g - fd))) / scale)
        for x in states:
            worst_lax = max(worst_lax, toda.lax_commutator_residual(n, x))
    ok = worst_val <= 1e-12 and worst_lax < 1e-12 and worst_grad <= 1e-6
    _report(
        6,
        "trace invariants: closed forms, commutator, gradients",
        ok,
        f"value={worst_val:.2e} lax={worst_lax:.2e} grad={worst_grad:.2e}",
    )


def test_criterion_7_emptiness_probes():
    ok = True
    checked = 0
    for n in (4, 5):
        params_table = EVEN_PARAMS if n % 2 == 0 else ODD_PARAMS
        for lattice in ("periodic", "nonperiodic"):
            dim = 2 * n if lattice == "periodic" else 2 * n - 1
            probes = list(random_states(dim, 1000, 7000 + 10 * n))
            probes += [
                toda.explicit_set_sample(set_id, n, params)
                for set_id, params in params_table.items()
                if toda.EXPLICIT_SETS[set_id].lattice == lattice
            ]
            for desc in toda.EXPLICIT_SETS.values():
                if not desc.empty or desc.lattice != lattice:
                    continue
                quantity = toda.explicit_set_quantity(desc.set_id, n)
                if np.any(rank_levels(quantity, np.array(probes), 1e-8).ranks == desc.rank):
                    ok = False
                checked += 1
    _report(7, "provably empty families are never hit", ok, f"{checked} (set, n) combinations")


def test_criterion_8_vanishing_set_machinery():
    circle3 = oscillator.unit_circle_power(3)
    sys2 = oscillator.harmonic_oscillator()
    rep = verify_vanishing_invariance(
        sys2, circle3, [1.0, 0.0], t_end=2 * np.pi, order=2, tolerances={"vanishing": 1e-4},
    )
    ok = rep.verdict == "pass"

    # nesting and the rank-0 equivalence over mixed probes
    thetas = np.linspace(0, 2 * np.pi, 9)
    probes = np.vstack(
        [[np.array([np.cos(t), np.sin(t)]) for t in thetas], random_states(2, 100, 800)]
    )
    inside2 = vanishing_memberships(circle3, probes, 2).verdicts
    ok = ok and bool(np.all(vanishing_memberships(circle3, probes, 1).verdicts[inside2]))
    rank0 = rank_levels(circle3, probes, 1e-8).ranks == 0
    vanish1 = vanishing_memberships(circle3, probes, 1, tol=1e-8).verdicts
    ok = ok and bool(np.array_equal(rank0, vanish1))
    _report(8, "vanishing-order machinery on the circle probe", ok)


def test_criterion_9_gradient_agreement():
    ok = True
    worst = 0.0
    for label, quantity, sampler in builtin_gradient_cases():
        fd_only = ConservedQuantitySet(
            dim=quantity.dim, k=quantity.k, value=quantity.value, labels=quantity.labels
        )
        xs = sampler(50, abs(hash(label)) % 2**31)
        for exact, approx in zip(jacobians(quantity, xs), jacobians(fd_only, xs)):
            scale = max(1.0, float(np.max(np.abs(exact))))
            rel = float(np.max(np.abs(exact - approx))) / scale
            worst = max(worst, rel)
            ok = ok and rel < 1e-6
    _report(9, "analytic gradients agree with finite differences", ok, f"worst rel={worst:.2e}")
