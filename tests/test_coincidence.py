import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invarsets import (
    ConservedQuantitySet,
    IntegrationError,
    IntegratorSettings,
    IntegratorStats,
    NumericError,
    SystemDefinition,
    UsageError,
    agreement_residual,
    assemble_system,
    canonical_symplectic_matrix,
    conservation_rates,
    evaluate_field,
    flow_adaptive,
    jacobians,
    stack_quantities,
    verify_coincidence,
)
from invarsets import integrate, kepler, oscillator, report, toda
from invarsets.differentiate import _partial_stack

from conftest import batched_symplectic_base, g_driven_system, random_kepler_states, random_toda_physical, squared_radius
from conftest import zero_quantity


def _symplectic_base():
    block = canonical_symplectic_matrix(2)
    return lambda x, g: block @ g


def _poisson_system(structure, quantity):
    """x' = Pi grad F(x) for a constant matrix Pi, as a driven system."""
    return assemble_system(lambda x, g: structure @ g, quantity).system


def _flat_gradients(quantity, xs):
    """The order-1 entries of ``_partial_stack`` on an ``(m, dim)`` stack as
    ``(m, k * dim)`` rows, the k gradients one after another."""
    entries = _partial_stack(quantity, np.asarray(xs, dtype=float), 1)
    return np.stack([entries[(j,)] for j in range(quantity.dim)], axis=-1).reshape(len(xs), -1)


# ---------------------------------------------------------------------------
# flat gradients
# ---------------------------------------------------------------------------


def test_stack_scalar_first_order_is_gradient():
    q = ConservedQuantitySet.scalar(
        2, lambda z: z[0] * z[1], "xy", gradient=lambda z: np.array([z[1], z[0]])
    )
    assert np.array_equal(_flat_gradients(q, [[2.0, 3.0]])[0], [3.0, 2.0])


def test_stack_vector_first_order_lexicographic():
    q = ConservedQuantitySet(
        dim=2,
        k=2,
        value=lambda z: np.array([z[0], z[1] ** 2]),
        labels=("a", "b"),
        analytic_gradient=lambda z: np.array([[1.0, 0.0], [0.0, 2.0 * z[1]]]),
    )
    assert np.array_equal(_flat_gradients(q, [[0.0, 1.0]])[0], [1.0, 0.0, 0.0, 2.0])


# ---------------------------------------------------------------------------
# agreement residual
# ---------------------------------------------------------------------------


def test_agreement_identical_quantities():
    q = kepler.hamiltonian()
    assert agreement_residual(q, q, random_kepler_states(1, 1)[0]) == 0.0


def test_agreement_kepler_pair_on_and_off_circle():
    H = kepler.hamiltonian()
    G = kepler.linear_pair_hamiltonian(1.0)
    assert agreement_residual(H, G, np.array([0.0, 1.0, 1.0, 0.0])) < 1e-9
    off = agreement_residual(H, G, np.array([0.0, 2.0, 1.0, 0.0]))
    assert off == pytest.approx(1.0, abs=1e-6)


def test_agreement_residual_that_overflows_is_inf_without_a_warning():
    x0 = np.array([1.5e308, 1e308, 1.5e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert agreement_residual(kepler.hamiltonian(), kepler.linear_pair_hamiltonian(1.0), x0) == np.inf
        fast = _assert_declared_keeps_the_driven_report(x0, 1.0, 2 * np.pi)
    assert fast.verdict == "hypothesis-error" and fast.agreement_residual == np.inf
    # |x0| overflows too, so no tolerance is finite there
    assert fast.message.startswith("the agreement premise has no finite tolerance at the start: ")


def test_agreement_shape_mismatch():
    with pytest.raises(UsageError):
        agreement_residual(kepler.hamiltonian(), squared_radius(), [0, 1, 1, 0])


# ---------------------------------------------------------------------------
# dual-flow coincidence
# ---------------------------------------------------------------------------


def test_kepler_circular_coincidence_passes():
    report = verify_coincidence(
        _symplectic_base(),
        kepler.hamiltonian(),
        kepler.linear_pair_hamiltonian(1.0),
        kepler.circular_sample(1.0, 0.0),
        2 * np.pi,
        tolerances={"deviation": 1e-6},
    )
    assert report.verdict == "pass"
    assert report.worst_value < 1e-6
    assert report.agreement_residual < 1e-9
    assert report.difference_drift < 1e-8


def test_identical_quantities_coincide_exactly():
    q = kepler.hamiltonian()
    report = verify_coincidence(
        _symplectic_base(), q, q, kepler.circular_sample(1.0, 0.7), 3.0,
        integ=IntegratorSettings(sample_count=51),
    )
    assert report.verdict == "pass"
    assert report.worst_value == 0.0


def test_off_circle_start_reports_hypothesis_error_with_deviation():
    report = verify_coincidence(
        _symplectic_base(),
        kepler.hamiltonian(),
        kepler.linear_pair_hamiltonian(1.0),
        np.array([0.0, 2.0, 1.0, 0.0]),
        2 * np.pi,
    )
    assert report.verdict == "hypothesis-error"
    assert "off the agreement set" in report.message
    assert report.worst_value > 1e-3  # diagnostic recorded even without a verdict


@pytest.mark.parametrize(
    "integ_tol, verdict, message",
    [(1e-10, "pass", "flows coincide"), (1e-6, "borderline", "flows deviate by"), (1e-4, "fail", "flows deviate by")],
)
def test_driven_coincidence_follows_the_one_verdict_rule(integ_tol, verdict, message):
    # no declared flows, so both driven fields are stepped and the deviation
    # is the stepper's error: 8.9e-10, 9.7e-6 and 1.2e-3 against tol 1e-6.
    # At 1e-4 the flows cross the borderline band before they part by more
    # than 10 tol, and the decisive part makes it a fail
    rec = verify_coincidence(
        batched_symplectic_base, kepler.hamiltonian(), kepler.linear_pair_hamiltonian(1.0),
        kepler.circular_sample(1.0, 0.0), 2 * np.pi, batched=True,
        integ=IntegratorSettings(abs_tol=integ_tol, rel_tol=integ_tol),
    )
    assert rec.verdict == verdict
    assert rec.message.startswith(message)
    # the record: one deviation per sample, the first 0 (margin inf), and
    # the smallest margin tol / d inside or d / tol outside over the others
    d = rec.sample_values
    assert d.shape == (401,) and d[0] == 0.0
    assert rec.worst_value == d.max()
    assert rec.worst_time == rec.trajectory.times[np.argmax(d)]
    assert rec.min_margin == np.where(d[1:] <= 1e-6, 1e-6 / d[1:], d[1:] / 1e-6).min()
    if verdict == "fail":
        assert rec.min_margin < 10 < rec.worst_value / 1e-6


def test_coincidence_record_keeps_the_worst_sample_under_a_broken_premise():
    # off the agreement set the verdict is a hypothesis error, and the
    # deviation evidence of the flows is still recorded
    x0 = kepler.circular_sample(1.0, 0.0)
    x0[2:] *= 1.1
    report = verify_coincidence(
        _symplectic_base(), kepler.hamiltonian(), kepler.linear_pair_hamiltonian(1.0), x0, 2.0,
        integ=IntegratorSettings(sample_count=41),
    )
    assert report.verdict == "hypothesis-error"
    assert report.message.startswith("start is off the agreement set")
    assert report.sample_values.shape == (41,) and report.sample_values[0] == 0.0
    assert report.worst_value == report.sample_values.max() > 1e-6
    assert report.min_margin < np.inf


def _radially_coupled_base(c):
    # the rotation minus c (x . g) x: for g the gradient of (r^2-1)^3 the
    # push is -6c (r^2-1)^2 r^2 x, inward off the circle and zero to second
    # order on it, so the driven flows part only off the circle
    return lambda x, g: np.array([x[1], -x[0]]) - c * float(x @ g) * x


def test_cubic_power_driven_coincidence_on_circle():
    report = verify_coincidence(
        _radially_coupled_base(0.1),
        zero_quantity(2),
        oscillator.unit_circle_power(3),
        np.array([1.0, 0.0]),
        2 * np.pi,
        tolerances={"deviation": 1e-8},
    )
    assert report.verdict == "pass"
    assert report.message.startswith("flows coincide")
    assert report.agreement_residual == 0.0
    assert report.worst_value < 1e-8


def test_cubic_power_driven_coincidence_off_circle_control():
    report = verify_coincidence(
        _radially_coupled_base(0.1),
        zero_quantity(2),
        oscillator.unit_circle_power(3),
        np.array([1.3, 0.0]),
        1.0,
    )
    assert report.verdict == "hypothesis-error"
    assert report.message.startswith("start is off the agreement set")
    # |grad (r^2-1)^3| = 6 (r^2-1)^2 r at r = 1.3
    assert report.agreement_residual == pytest.approx(6 * 0.69**2 * 1.3, rel=1e-12)


def test_vector_valued_coincidence_smoke():
    from invarsets import stack_quantities

    pair = stack_quantities([kepler.hamiltonian(), kepler.angular_momentum()])
    base = lambda x, s: canonical_symplectic_matrix(2) @ s[:4]  # driven by row 1
    report = verify_coincidence(
        base, pair, pair, kepler.circular_sample(1.0, 0.2), 2.0, integ=IntegratorSettings(sample_count=51),
    )
    assert report.verdict == "pass"
    assert report.worst_value == 0.0


# ---------------------------------------------------------------------------
# Poisson assembly
# ---------------------------------------------------------------------------


_COMPONENT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e150, 1e150))
_KEPLER_STATES = st.lists(st.lists(_COMPONENT, min_size=4, max_size=4), min_size=1, max_size=6)


def _linear_pair_closed_form(a):
    """The linear field (x2, -x1, y2, -y1)/a^3 written out, the closed form
    of the G-driven field J grad(-A/a^3)."""
    rate = 1.0 / a**3

    def field(z):
        x1, x2, y1, y2 = np.moveaxis(z, -1, 0)
        with np.errstate(over="ignore"):
            return np.stack([x2, -x1, y2, -y1], axis=-1) * rate

    return SystemDefinition(4, field, "linear-pair", batched=True)


def _assert_closed_form_identity(closed, driven, xs):
    """``closed`` equals ``driven`` on the stack ``xs`` and at each of its
    states: equal as floats, so in every bit but a zero's sign, and in every
    bit where the closed row holds no zero; where one raises, so does the
    other."""
    try:
        expected = driven.system.fields(xs)
    except NumericError:
        with pytest.raises(NumericError):
            closed.fields(xs)
        expected = None
    rows = None if expected is None else closed.fields(xs)
    for i, x in enumerate(xs):
        try:
            row = driven.system.field(x)
        except NumericError:
            with pytest.raises(NumericError):
                closed.field(x)
            continue
        point = closed.field(x)
        for got in (point,) if expected is None else (point, rows[i], expected[i]):
            assert np.array_equal(got, row)
            if point.all():
                assert got.tobytes() == row.tobytes()


@settings(max_examples=150, deadline=None)
@given(xs=_KEPLER_STATES, a=st.sampled_from([0.9, 1.0, 1.5]))
def test_poisson_system_reproduces_kepler_field(xs, a):
    # J grad H is the Kepler field and J grad(-A/a^3) the linear pair's, on
    # points and on stacks, through a point base and the report's batched
    # one; a point base J @ g may part from them in a zero's sign (it sums
    # J's zero products to +0 where the closed forms negate to -0)
    J = canonical_symplectic_matrix(2)
    out = evaluate_field(_poisson_system(J, kepler.hamiltonian()), np.array([0.0, 1.0, 1.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0, 0.0, -1.0], atol=0)
    xs = np.array(xs)
    for base, batched in ((lambda x, g: J @ g, False), (batched_symplectic_base, True)):
        for closed, quantity in (
            (kepler.kepler_field(), kepler.hamiltonian()),
            (_linear_pair_closed_form(a), kepler.linear_pair_hamiltonian(a)),
        ):
            _assert_closed_form_identity(closed, assemble_system(base, quantity, batched=batched), xs)


_EDGE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0, 1e300, -1e300, 1.5e308, -1.5e308])
_EDGE_STATES = st.lists(
    st.lists(st.one_of(_EDGE, st.floats(allow_nan=False, allow_infinity=False)), min_size=4, max_size=4),
    min_size=1,
    max_size=6,
)


def _row_or_none(fn, z):
    try:
        return fn(z)
    except NumericError:
        return None


@settings(max_examples=300, deadline=None)
@given(xs=_EDGE_STATES, a=st.sampled_from([0.0013, 0.9, 1.0, 1.5, 40.0]))
def test_report_base_gives_the_closed_forms_by_value(xs, a):
    # J grad H and J grad(-A/a^3) through the report's base are the Kepler
    # field and the linear pair field in value on every finite row, on a
    # stack and on each of its states (J's zero products sum to +0 where a
    # closed form negates to -0); a row that overflows is non-finite in
    # both, and both raise at the same states.  The driven field gives those
    # values wherever they are finite and raises wherever they are not
    xs = np.array(xs)
    for closed, q in (
        (kepler.kepler_field(), kepler.hamiltonian()),
        (_linear_pair_closed_form(a), kepler.linear_pair_hamiltonian(a)),
    ):
        driven = assemble_system(batched_symplectic_base, q, batched=True).system
        j_grad = lambda z: batched_symplectic_base(z, q.analytic_gradient(z)[..., 0, :])
        for z in (xs, *xs):
            expected = _row_or_none(closed.field, z)
            with np.errstate(invalid="ignore"):  # an infinite gradient entry times J's zeros
                got = _row_or_none(j_grad, z)
            assert (got is None) == (expected is None)
            if expected is None:
                continue
            finite = np.isfinite(expected).all(axis=-1)
            assert np.array_equal(np.isfinite(got).all(axis=-1), finite)
            assert np.array_equal(got[finite], expected[finite])
            if finite.all():
                assert np.array_equal(driven.field(z), expected)
            else:
                with pytest.raises(NumericError):
                    driven.field(z)


def test_poisson_zero_structure_gives_equilibria():
    system = _poisson_system(np.zeros((4, 4)), kepler.hamiltonian())
    out = evaluate_field(system, random_kepler_states(1, 7)[0])
    assert np.array_equal(out, np.zeros(4))


def test_poisson_conserves_its_driver():
    system = _poisson_system(canonical_symplectic_matrix(2), kepler.hamiltonian())
    xs = random_kepler_states(20, 9)
    res = conservation_rates(kepler.hamiltonian(), system, xs)
    assert np.all(np.abs(res[:, 0]) < 1e-12 * np.maximum(1.0, np.linalg.norm(xs, axis=1)))


def test_mutual_conservation_symmetry_under_fixed_structure():
    # with one antisymmetric pairing, F conserved along the G-flow iff
    # G conserved along the F-flow; the two residuals are exact negatives
    block = canonical_symplectic_matrix(2)
    F, G = kepler.hamiltonian(), kepler.linear_pair_hamiltonian(1.0)
    sys_f = _poisson_system(block, F)
    sys_g = _poisson_system(block, G)
    xs = random_kepler_states(50, 21)
    for x, r1, r2 in zip(xs, conservation_rates(F, sys_g, xs)[:, 0], conservation_rates(G, sys_f, xs)[:, 0]):
        assert abs(r1 + r2) < 1e-12 * max(1.0, abs(r1))
        assert abs(r1) < 1e-10 * max(1.0, np.linalg.norm(x))


def test_quadratic_driver_yields_linear_system():
    system = _poisson_system(canonical_symplectic_matrix(2), kepler.linear_pair_hamiltonian(1.4))
    f = lambda s: evaluate_field(system, s)
    z = random_kepler_states(1, 23)[0]
    w = random_kepler_states(1, 29)[0]
    assert np.allclose(f(2.5 * z), 2.5 * f(z), rtol=1e-13)
    assert np.allclose(f(z + w), f(z) + f(w), rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# perturbed pairs: x' = h(x) is driven by the zero quantity and
# x' = h(x) + g(grad G(x)) by G, so with g(0) = 0 their flows coincide from
# wherever grad G vanishes
# ---------------------------------------------------------------------------


def _perturbed_base(system, perturbation):
    return lambda x, g: evaluate_field(system, x) + np.asarray(perturbation(g), dtype=float)


def _perturbed_pair_coincidence(perturbation, x0, t_end, **kwargs):
    system, G = oscillator.harmonic_oscillator(), oscillator.unit_circle_power(2)
    base = _perturbed_base(system, perturbation)
    return verify_coincidence(base, zero_quantity(2), G, x0, t_end, **kwargs)


def test_perturbed_pair_flows_coincide_on_circle_short_horizon():
    # the outward-pushing perturbation makes the circle repelling for the
    # perturbed flow (radial error grows like e^{8t}), so round-off limits
    # the certifiable horizon; t = 1 keeps the amplification ~3e3
    report = _perturbed_pair_coincidence(
        lambda g: g, [1.0, 0.0], 1.0, integ=IntegratorSettings(1e-12, 1e-12), tolerances={"deviation": 1e-8}
    )
    assert report.verdict == "pass"
    assert report.worst_value < 1e-8


def test_perturbed_pair_stable_orientation_full_period():
    # the inward-pushing orientation makes the circle attracting, so the
    # coincidence is certifiable over a full period
    report = _perturbed_pair_coincidence(
        lambda g: -g, [1.0, 0.0], 2 * np.pi, tolerances={"deviation": 1e-8}
    )
    assert report.verdict == "pass"
    assert report.worst_value < 1e-8


def test_perturbed_pair_off_circle_is_hypothesis_error():
    report = _perturbed_pair_coincidence(lambda g: g, [2.0, 0.0], 2 * np.pi)
    assert report.verdict == "hypothesis-error"


def test_perturbed_pair_zero_perturbation_identical_systems():
    system, G = oscillator.harmonic_oscillator(), oscillator.unit_circle_power(2)
    perturbed = assemble_system(_perturbed_base(system, lambda g: np.zeros(2)), G).system
    x = np.array([0.3, 0.4])
    assert np.array_equal(evaluate_field(system, x), evaluate_field(perturbed, x))


def test_perturbed_pair_fields():
    system, G = oscillator.harmonic_oscillator(), oscillator.unit_circle_power(2)
    base = _perturbed_base(system, lambda g: g)
    unperturbed = assemble_system(base, zero_quantity(2)).system
    perturbed = assemble_system(base, G).system
    x = np.array([2.0, 0.0])
    g = jacobians(G, x[None])[0, 0]
    assert np.array_equal(evaluate_field(unperturbed, x), evaluate_field(system, x))
    assert np.allclose(evaluate_field(perturbed, x), evaluate_field(system, x) + g, atol=0)


def test_zero_quantity_stack_is_zero():
    assert np.array_equal(_flat_gradients(zero_quantity(3), [[1.0, 2.0, 3.0]])[0], np.zeros(3))


def test_assembled_system_label():
    driven = assemble_system(_symplectic_base(), kepler.hamiltonian())
    assert "H" in driven.system.label


# ---------------------------------------------------------------------------
# stacked driven field and conservation scan: each equals its point rows
# ---------------------------------------------------------------------------

STACK_SETTINGS = settings(max_examples=15, deadline=None)


def _order1_cases():
    """(label, quantity) for each way the partial builder can produce order 1."""
    H, A = kepler.hamiltonian(), kepler.angular_momentum()
    return [
        ("analytic-gradient", H),
        ("analytic-gradient-linear-pair", kepler.linear_pair_hamiltonian(1.2)),
        ("fd-only", ConservedQuantitySet(dim=4, k=1, value=H.value, labels=("H-fd",))),
        ("stacked", stack_quantities([H, A, kepler.combined_invariant(1.1)])),
        (
            "stacked-fd",
            stack_quantities([H, ConservedQuantitySet(dim=4, k=1, value=A.value, labels=("A-fd",))]),
        ),
    ]


@STACK_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 9))
def test_order1_block_equals_partial_tensor_flatten(seed, count):
    xs = random_kepler_states(count, seed)
    for label, q in _order1_cases():
        seen = []

        def base(x, g, _seen=seen):
            _seen.append(g.copy())
            return np.zeros(4)

        assemble_system(base, q).system.fields(xs)
        assert len(seen) == count, label
        for x, g in zip(xs, seen):
            expected = _flat_gradients(q, x[None])[0]
            assert np.array_equal(g, expected), label


def test_assemble_system_takes_label_and_batched_by_keyword_only():
    # a driving order passed where it once went is refused, not taken as a label
    with pytest.raises(TypeError):
        assemble_system(_symplectic_base(), kepler.hamiltonian(), 2)
    with pytest.raises(TypeError):
        assemble_system(_symplectic_base(), kepler.hamiltonian(), order=1)


def test_order1_block_from_the_jacobian_keeps_the_order_checks():
    def never(x):
        raise AssertionError("evaluated before the order checks")

    dim, message = 5001, "order 1 on dimension 5001 needs 5001 partials per state"
    q = ConservedQuantitySet(dim=dim, k=1, value=never, labels=("q",), analytic_gradient=never)
    with pytest.raises(UsageError, match=re.escape(message)):
        assemble_system(lambda x, g: x, q).system.fields(np.zeros((1, dim)))
    with pytest.raises(UsageError, match=re.escape(message)):
        agreement_residual(q, q, np.zeros(dim))


def _summed_symplectic_base(dof):
    """J applied to the sum of the k gradient blocks of the flat stack."""
    block = canonical_symplectic_matrix(dof)
    return lambda x, s: block @ s.reshape(-1, 2 * dof).sum(axis=0)


@STACK_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 9))
def test_stacked_driven_field_rows_equal_point_field(seed, count):
    # one case per derivative rule; a point call is a batch of one
    kepler_states = random_kepler_states(count, seed)
    toda_states = random_toda_physical(3, count, seed)
    pair = stack_quantities([kepler.hamiltonian(), kepler.angular_momentum()])
    cases = [
        (assemble_system(_symplectic_base(), kepler.hamiltonian()), kepler_states),
        (assemble_system(_symplectic_base(), kepler.linear_pair_hamiltonian(0.9)), kepler_states),
        (assemble_system(lambda x, s: s[:4] - s[4:], pair), kepler_states),
        (assemble_system(_summed_symplectic_base(3), toda.periodic_invariants(3)), toda_states),
    ]
    cases += [(assemble_system(_summed_symplectic_base(2), q), kepler_states) for _, q in _order1_cases()]
    # declared bases: the coincidence check's
    cases += [
        (assemble_system(batched_symplectic_base, q, batched=True), kepler_states)
        for q in (kepler.hamiltonian(), kepler.linear_pair_hamiltonian(0.9))
    ]
    assert cases[3][0].quantity.batched
    for driven, xs in cases:
        rows = driven.system.fields(xs)
        assert rows.shape == xs.shape
        for x, row in zip(xs, rows):
            point = driven.system.field(np.array(x))
            assert point.tobytes() == row.tobytes()
            assert point.tobytes() == driven.system.fields(x[None])[0].tobytes()


def _faulty_gradient_quantity(fault, where=lambda x: True):
    """Kepler H whose analytic gradient is NaN or of the wrong shape where
    ``where(x)`` holds."""
    H = kepler.hamiltonian()

    def grad(x):
        g = H.analytic_gradient(x)
        if not where(x):
            return g
        return np.full_like(g, np.nan) if fault == "nan" else g[:, :3]

    return ConservedQuantitySet(
        dim=4, k=1, value=H.value, labels=("H-faulty",), analytic_gradient=grad
    )


def _faulty_base(fault, where=lambda x: True):
    block = canonical_symplectic_matrix(2)

    def base(x, g):
        out = block @ g
        if not where(x):
            return out
        return np.full(4, np.nan) if fault == "nan" else out[:3]

    return base


FAULTS = [
    ("gradient", "nan", NumericError, "analytic gradient of 'H-faulty' is non-finite"),
    ("gradient", "shape", UsageError, r"analytic gradient of 'H-faulty' returned shape \(1, 3\)"),
    ("base", "nan", NumericError, "produced a non-finite derivative in component 0 at state 0 of 1"),
    ("base", "shape", UsageError, r"returned shape \(3,\) at state 0 of 1"),
]
FAULT_IDS = [f"{part}-{fault}" for part, fault, _, _ in FAULTS]


def _faulty_system(part, fault, where=lambda x: True):
    if part == "gradient":
        return assemble_system(_symplectic_base(), _faulty_gradient_quantity(fault, where))
    return assemble_system(_faulty_base(fault, where), kepler.hamiltonian())


@pytest.mark.parametrize("part,fault,error,message", FAULTS, ids=FAULT_IDS)
def test_point_field_errors_equal_the_stacked_ones(part, fault, error, message):
    driven = _faulty_system(part, fault)
    x = kepler.circular_sample(1.0, 0.4)
    with pytest.raises(error, match=message) as point:
        driven.system.field(x)
    with pytest.raises(error) as stacked:
        driven.system.fields(x[None])
    assert str(point.value) == str(stacked.value)


@pytest.mark.parametrize("part,fault,error,message", FAULTS, ids=FAULT_IDS)
def test_point_field_errors_away_from_the_start_inside_flow_adaptive(part, fault, error, message):
    # sound at the start only: the first evaluation away from it is the
    # initial-step trial, inside the stepper; a non-finite value is an
    # integration failure at t=0, a wrong shape stays a usage error
    x0 = kepler.circular_sample(1.0, 0.4)
    driven = _faulty_system(part, fault, where=lambda x: not np.array_equal(x, x0))
    expected = IntegrationError if error is NumericError else UsageError
    with pytest.raises(expected, match=message) as err:
        flow_adaptive(driven.system, x0, 1.0)
    if expected is IntegrationError:
        assert err.value.last_good_time == 0.0


def _counted(base, calls):
    def counted(x, g):
        calls.append((x.shape, g.shape))
        return base(x, g)

    return counted


def test_batched_base_is_called_once_per_stack_and_an_undeclared_one_per_row():
    # a single state is a stack of one: a declared base sees it as one
    xs, q, block = random_kepler_states(5, 3), kepler.hamiltonian(), canonical_symplectic_matrix(2)
    calls = []
    declared = assemble_system(_counted(lambda x, s: s @ block.T, calls), q, batched=True)
    rows = declared.system.fields(xs)
    assert calls == [((5, 4), (5, 4))]
    calls.clear()
    assert declared.system.field(xs[0]).tobytes() == rows[0].tobytes()
    assert calls == [((1, 4), (1, 4))]
    calls = []
    undeclared = assemble_system(_counted(lambda x, s: block @ s, calls), q)
    assert rows.tobytes() == undeclared.system.fields(xs).tobytes()
    assert calls == [((4,), (4,))] * 5
    calls.clear()
    assert undeclared.system.field(xs[0]).tobytes() == rows[0].tobytes()
    assert calls == [((4,), (4,))]


def _faulty_batched_base(fault, where=lambda x: True):
    """:func:`_faulty_base` on a stack: a wrong shape is wrong for every
    row, NaN rows are those where ``where(x)`` holds."""
    block_t = canonical_symplectic_matrix(2).T

    def base(xs, g):
        out = g @ block_t
        if fault == "shape":
            return out[:, :3]
        out[[where(x) for x in xs]] = np.nan
        return out

    return base


@pytest.mark.parametrize("part,fault,error,message", FAULTS, ids=FAULT_IDS)
def test_batched_base_errors_equal_the_per_row_ones(part, fault, error, message):
    # a batched base's shape is wrong on every row or on none
    xs = random_kepler_states(5, 4)
    where = lambda x: fault == "shape" or np.array_equal(x, xs[2]) or np.array_equal(x, xs[3])  # noqa: E731
    if part == "gradient":
        q = _faulty_gradient_quantity(fault, where)
        per_row = assemble_system(_symplectic_base(), q)
        batched = assemble_system(batched_symplectic_base, q, batched=True)
    else:
        per_row = assemble_system(_faulty_base(fault, where), kepler.hamiltonian())
        batched = assemble_system(_faulty_batched_base(fault, where), kepler.hamiltonian(), batched=True)
    with pytest.raises(error) as one_by_one:
        per_row.system.fields(xs)
    with pytest.raises(error) as stacked:
        batched.system.fields(xs)
    assert str(stacked.value) == str(one_by_one.value)
    if part == "base":
        assert f"at state {0 if fault == 'shape' else 2} of 5" in str(stacked.value)


def test_batched_base_with_a_result_not_stacked_is_a_usage_error():
    xs = random_kepler_states(5, 4)
    driven = assemble_system(lambda x, g: g[0], kepler.hamiltonian(), batched=True)
    with pytest.raises(UsageError, match=r"field of 'driven\[H\]' returned shape \(4,\), expected \(5, 4\)"):
        driven.system.fields(xs)


_SIGNED = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(gs=st.lists(st.lists(_SIGNED, min_size=4, max_size=4), min_size=1, max_size=6))
def test_report_base_equals_the_signed_permutation_by_value(gs):
    # J has entries 0 and +-1, so the report's base g @ J.T is (g_y, -g_x) in
    # value, on a point and on a stack; each stacked row has the bits of the
    # point row, as each sum has one non-zero term and a sum of zeros is -0
    # only when every term is, in any order
    stack = np.array(gs)
    expected = np.array([[g[2], g[3], -g[0], -g[1]] for g in stack])
    rows = batched_symplectic_base(None, stack)
    assert np.array_equal(rows, expected)
    for g, row in zip(stack, rows):
        assert batched_symplectic_base(None, g).tobytes() == row.tobytes()


@pytest.mark.parametrize("x", [[1e308, 1e308, 1e308, 1e308], [1e308, 1e308, -1e308, 1.0]])
def test_point_field_at_a_state_whose_sum_overflows_returns_its_row(x):
    # every entry is finite and the state's sum overflows in both cases; the
    # gradient is (0, 0, p, q), and J's zero products sum its negated +0s to
    # +0 through either base, so the row is (p, q, 0, 0)
    x = np.array(x)
    gradient = np.array([0.0, 0.0, x[2], x[3]])
    for base, batched in ((_symplectic_base(), False), (batched_symplectic_base, True)):
        driven = assemble_system(base, kepler.hamiltonian(), batched=batched)
        row = driven.system.field(x)
        assert row.tobytes() == driven.system.fields(x[None])[0].tobytes()
        assert row.tobytes() == base(x, gradient).tobytes()
    assert row.tobytes() == np.array([x[2], x[3], 0.0, 0.0]).tobytes()


def test_point_field_takes_a_non_finite_state_as_a_numeric_error():
    # an analytic gradient, and finite differences
    fd_only = ConservedQuantitySet(dim=4, k=1, value=kepler.hamiltonian().value, labels=("H-fd",))
    for driven, dim in (
        (assemble_system(_symplectic_base(), kepler.hamiltonian()), 4),
        (assemble_system(_symplectic_base(), fd_only), 4),
    ):
        x = np.ones(dim)
        x[0] = np.inf
        with pytest.raises(NumericError, match="evaluated at a non-finite state"):
            driven.system.field(x)
        with pytest.raises(UsageError, match=f"state has dimension {dim + 1}, expected {dim}"):
            driven.system.field(np.ones(dim + 1))


def test_off_set_start_failing_at_the_initial_step_is_a_hypothesis_error():
    x0 = kepler.circular_sample(1.0, 0.4)
    x0[2:] *= 1.1
    base = _faulty_base("nan", where=lambda x: not np.array_equal(x, x0))
    report = verify_coincidence(base, kepler.hamiltonian(), kepler.linear_pair_hamiltonian(1.0), x0, 1.0)
    assert report.verdict == "hypothesis-error"
    assert "integration additionally failed" in report.message
    assert "field evaluation failed" in report.message


def _difference_quantity(f_quantity, g_quantity):
    """F - G as one quantity, its analytic gradient the difference of the two."""
    return ConservedQuantitySet(
        dim=f_quantity.dim,
        k=f_quantity.k,
        value=lambda x: np.atleast_1d(f_quantity.value(x)) - np.atleast_1d(g_quantity.value(x)),
        labels=("F-G",) * f_quantity.k,
        analytic_gradient=lambda x: np.asarray(f_quantity.analytic_gradient(x), float)
        - np.asarray(g_quantity.analytic_gradient(x), float),
    )


def _loop_drift(base, f_quantity, g_quantity, states):
    """The per-sample conservation scan the stacked one replaced, on the
    difference quantity: for analytic gradients ``(J_F - J_G) . f`` is its
    rate bit for bit."""
    diff = _difference_quantity(f_quantity, g_quantity)
    sys_f = assemble_system(base, f_quantity, label="driven-F").system
    drift = 0.0
    for s in states:
        res = float(np.max(np.abs(conservation_rates(diff, sys_f, s[None]))))
        drift = max(drift, res / max(1.0, float(np.linalg.norm(s))))
    return drift


def _assert_scan_matches_loop(base, f_quantity, g_quantity, x0, t_end, **kwargs):
    report = verify_coincidence(base, f_quantity, g_quantity, x0, t_end, **kwargs)
    states = report.trajectory.states
    assert report.difference_drift == _loop_drift(base, f_quantity, g_quantity, states)
    return report


@settings(max_examples=6, deadline=None)
@given(
    a=st.floats(0.7, 1.4),
    theta=st.floats(0.0, 2 * np.pi),
    push=st.sampled_from([0.0, 0.0, 0.08, -0.15]),
)
def test_stacked_scan_drift_equals_point_loop_kepler(a, theta, push):
    x0 = kepler.circular_sample(a, theta)
    x0[2:] *= 1.0 + push  # push != 0 moves the start off the agreement set
    report = _assert_scan_matches_loop(
        _symplectic_base(),
        kepler.hamiltonian(),
        kepler.linear_pair_hamiltonian(a),
        x0,
        np.pi * a**3,
        integ=IntegratorSettings(sample_count=101),
    )
    assert report.verdict == ("pass" if push == 0.0 else "hypothesis-error")


@pytest.mark.parametrize("start", [[1.0, 0.0], [1.5, 0.0]])
def test_stacked_scan_drift_equals_point_loop_perturbed_pair(start):
    # the inward-pushing perturbation keeps the off-circle start integrable
    system, G = oscillator.harmonic_oscillator(), oscillator.unit_circle_power(2)
    base = _perturbed_base(system, lambda g: -g)
    integ = IntegratorSettings(sample_count=41)
    _assert_scan_matches_loop(base, zero_quantity(2), G, np.array(start), 1.0, integ=integ)


@pytest.mark.parametrize("start", [[1.0, 0.0], [1.3, 0.0], [0.6, 0.8]])
def test_stacked_scan_drift_equals_point_loop_cubic_power(start):
    _assert_scan_matches_loop(
        _radially_coupled_base(0.1),
        zero_quantity(2),
        oscillator.unit_circle_power(3),
        np.array(start),
        1.0,
        integ=IntegratorSettings(sample_count=41),
    )


def test_stacked_scan_on_batched_quantities_calls_them_on_stacks():
    F = toda.periodic_invariants(3, (2,))
    calls = []

    def grad(x):
        calls.append(np.ndim(x))
        return 0.5 * F.analytic_gradient(x)

    G = ConservedQuantitySet(
        dim=6,
        k=1,
        value=lambda x: 0.5 * F.value(x),
        labels=("I2/2",),
        analytic_gradient=grad,
        batched=True,
    )
    block = canonical_symplectic_matrix(3)
    x0 = np.array([0.9, 0.7, 1.1, 0.3, -0.2, 0.1])
    _assert_scan_matches_loop(lambda x, g: block @ g, F, G, x0, 0.5, integ=IntegratorSettings(sample_count=21))
    assert 2 in calls  # G's gradient was evaluated on the stack


def test_non_finite_driven_field_at_one_sample_is_a_numeric_error():
    # the integrator never evaluates the field at a dense-output sample, so
    # only the conservation scan meets the NaN
    F, G = kepler.hamiltonian(), kepler.linear_pair_hamiltonian(1.0)
    x0 = kepler.circular_sample(1.0, 0.3)
    clean = verify_coincidence(_symplectic_base(), F, G, x0, 2.0, integ=IntegratorSettings(sample_count=41))
    bad = clean.trajectory.states[20].copy()
    block = canonical_symplectic_matrix(2)

    def base(x, g):
        out = block @ g
        return np.full(4, np.nan) if np.array_equal(x, bad) else out

    with pytest.raises(NumericError, match="state 20 of 41"):
        verify_coincidence(base, F, G, x0, 2.0, integ=IntegratorSettings(sample_count=41))


def test_wrong_shape_driven_field_row_is_a_usage_error():
    driven = assemble_system(lambda x, g: g[:3] if x[0] > 0 else g, kepler.hamiltonian())
    xs = np.array([[-1.0, 0.5, 0.0, 1.0], [1.0, 0.5, 0.0, 1.0]])
    with pytest.raises(UsageError, match=r"returned shape \(3,\) at state 1 of 2"):
        driven.system.fields(xs)
    with pytest.raises(UsageError, match="shape"):
        evaluate_field(driven.system, xs[1])
    with pytest.raises(UsageError):
        driven.system.fields(xs[:, :3])


# ---------------------------------------------------------------------------
# declared flows: Kepler's equation and the linear pair's rotation in place
# of the integrated driven fields keep the driven path's verdict, with
# the deviation within 1e-8 of it, and a declared flow whose velocity leaves
# its driven field anywhere on its samples never passes
# ---------------------------------------------------------------------------

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
COINCIDENCE_SCENARIOS = sorted(p.name for p in SCENARIO_DIR.glob("*.json") if '"coincidence"' in p.read_text())


def _kepler_coincidence(x0, a, t_end, flows=(None, None), base=batched_symplectic_base, **kwargs):
    return verify_coincidence(
        base, kepler.hamiltonian(), kepler.linear_pair_hamiltonian(a), x0, t_end,
        batched=True, flows=flows, **kwargs,
    )


def _declared(a):
    """Kepler's equation and the linear pair's rotation, the report's flows."""
    return kepler.kepler_flow, kepler.linear_pair_flow(a)


def _assert_declared_keeps_the_driven_report(x0, a, t_end, **kwargs):
    slow = _kepler_coincidence(x0, a, t_end, **kwargs)
    fast = _kepler_coincidence(x0, a, t_end, _declared(a), **kwargs)
    assert fast.verdict == slow.verdict
    assert fast.worst_value == slow.worst_value or abs(fast.worst_value - slow.worst_value) <= 1e-8  # inf when a flow fails
    assert fast.agreement_residual == slow.agreement_residual
    return fast


def test_shipped_scenarios_hold_every_coincidence_check():
    assert COINCIDENCE_SCENARIOS == [
        "kepler-circular-coincidence-a15.json", "kepler-circular-coincidence.json", "kepler-offset-control.json",
    ]


@pytest.mark.parametrize("name", COINCIDENCE_SCENARIOS)
def test_declared_flows_keep_the_driven_verdict_on_shipped_scenarios(name):
    s = report._read(json.loads((SCENARIO_DIR / name).read_text()))
    fast = _assert_declared_keeps_the_driven_report(s.x0, s.params["a"], s.t_end, integ=s.integ, tolerances=s.tol)
    assert fast.verdict == s.config["expected_verdict"]
    # the control starts at H = 0, which the Kepler flow does not cover: it is integrated
    expected = "dormand-prince-8(5,3)" if name == "kepler-offset-control.json" else "declared-flow"
    assert fast.trajectory.stats.method == expected


@settings(max_examples=10, deadline=None)
@given(
    a=st.floats(0.7, 1.4),
    theta=st.floats(0.0, 2 * np.pi),
    push=st.sampled_from([0.0, 0.0, 0.08, -0.15]),
)
def test_declared_flows_keep_the_driven_verdict_on_seeded_starts(a, theta, push):
    x0 = kepler.circular_sample(a, theta)
    x0[2:] *= 1.0 + push  # push != 0 moves the start off the agreement set
    fast = _assert_declared_keeps_the_driven_report(x0, a, np.pi * a**3, integ=IntegratorSettings(sample_count=101))
    assert fast.verdict == ("pass" if push == 0.0 else "hypothesis-error")
    assert fast.trajectory.stats == IntegratorStats("declared-flow", 0, 0, 0)


@pytest.mark.parametrize("push", [0.0, 0.08, -0.15])
@pytest.mark.parametrize("theta", [0.0, 2.2, 4.4])
@pytest.mark.parametrize("a", [0.75, 1.25])
def test_declared_flows_keep_the_driven_verdict_on_a_grid_of_starts(a, theta, push):
    # theta = 0 starts with two components exactly zero
    x0 = kepler.circular_sample(a, theta)
    x0[2:] *= 1.0 + push
    fast = _assert_declared_keeps_the_driven_report(x0, a, 1.5 * np.pi * a**3, integ=IntegratorSettings(sample_count=101))
    assert fast.verdict == ("pass" if push == 0.0 else "hypothesis-error")
    assert fast.trajectory.stats.method == "declared-flow"


@pytest.mark.parametrize(
    "x0",
    [
        [0.3, 0.4, -0.3, -0.4],  # a plunge to the origin (A = 0): the step size underflows
        [1.0, 0.0, 0.0, 0.0],  # the same on an axis
        [1.5e308, 0.0, 1.5e308, 0.0],  # H overflows; the first stage overflows
    ],
)
def test_off_set_start_whose_flow_fails_is_still_a_hypothesis_error(x0):
    # the Kepler flow covers none of these starts, so the F flow is integrated and fails
    assert kepler.kepler_flow(np.array(x0), np.zeros(1)) is None
    fast = _assert_declared_keeps_the_driven_report(np.array(x0), 1.0, 2 * np.pi)
    assert fast.verdict == "hypothesis-error"
    assert "integration additionally failed" in fast.message


def test_declared_flows_certify_with_no_field_evaluation_in_a_flow(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("integrated")

    monkeypatch.setattr(integrate, "flow_adaptive", never)
    a = 1.3
    rep = _kepler_coincidence(kepler.circular_sample(a, 2.0), a, 2 * np.pi * a**3, _declared(a))
    assert rep.verdict == "pass"
    assert rep.worst_value < 1e-13


def test_on_set_flow_that_spends_the_step_budget_fails_only_on_the_driven_path(monkeypatch):
    monkeypatch.setattr(integrate, "_MAX_ATTEMPTS", 5)
    x0 = kepler.circular_sample(1.0, 0.3)
    with pytest.raises(IntegrationError, match="step budget of 5 attempts"):
        _kepler_coincidence(x0, 1.0, 2 * np.pi)
    assert _kepler_coincidence(x0, 1.0, 2 * np.pi, _declared(1.0)).verdict == "pass"


def test_matrix_product_base_passes_on_the_circle_with_declared_flows():
    # the base of demo 03 and of the README example parts from the report's
    # base in the sign of a zero, which the premise, by value, admits
    J = canonical_symplectic_matrix(2)
    rep = _kepler_coincidence(kepler.circular_sample(1, 0), 1.0, 2 * np.pi, _declared(1.0), base=lambda x, g: g @ J.T)
    assert rep.verdict == "pass", rep.message


def _kepler_map(time_scale=1.0, off_at=None):
    """The Kepler flow map, at times scaled by ``time_scale``, and one state
    moved by 1e-3 at the time ``off_at``."""

    def flow(x0, times):
        states = kepler.kepler_flow(x0, np.asarray(times) * time_scale)
        states[np.asarray(times) == off_at, 0] += 1e-3
        return states

    return flow


def test_declared_map_with_a_wrong_time_scale_is_a_hypothesis_error_naming_the_f_flow():
    a, x0 = 1.0, kepler.circular_sample(1.0, 0.3)
    rep = _kepler_coincidence(x0, a, 2 * np.pi, (_kepler_map(1 + 1e-6), kepler.linear_pair_flow(a)))
    assert rep.verdict == "hypothesis-error"
    match = re.fullmatch(
        r"the declared flow of the F-driven flow differs from its driven field at sample 0 \(t=0, residual (\S+)\)",
        rep.message,
    )
    assert match and float(match[1]) == pytest.approx(1e-6, rel=1e-3)  # the time scale's error, read as it is
    assert _kepler_coincidence(x0, a, 2 * np.pi, (_kepler_map(), kepler.linear_pair_flow(a))).verdict == "pass"


def test_declared_map_off_the_field_at_one_sample_is_a_hypothesis_error_naming_it():
    a, x0 = 1.0, kepler.circular_sample(1.0, 0.3)
    t_end, integ = 2 * np.pi, IntegratorSettings(sample_count=101)
    times = np.linspace(0.0, t_end, 101)
    rep = _kepler_coincidence(x0, a, t_end, (_kepler_map(off_at=times[37]), kepler.linear_pair_flow(a)), integ=integ)
    assert rep.verdict == "hypothesis-error"
    assert rep.message.startswith(
        f"the declared flow of the F-driven flow differs from its driven field at sample 37 (t={times[37]:.6g}, residual"
    )


def test_declared_map_from_another_start_is_a_hypothesis_error_at_sample_0():
    # sample 0 is the start whatever the map says, so the velocity there is
    # the other orbit's, not the start's
    a, x0 = 1.0, kepler.circular_sample(1.0, 0.3)
    elsewhere = lambda _, times: kepler.kepler_flow(kepler.circular_sample(1.0, 0.3001), times)  # noqa: E731
    rep = _kepler_coincidence(x0, a, 2 * np.pi, (elsewhere, kepler.linear_pair_flow(a)))
    assert rep.verdict == "hypothesis-error"
    assert rep.message.startswith("the declared flow of the F-driven flow differs from its driven field at sample 0 (t=0")


def _matrix_flow(L):
    """The flow exp(t L) x0 of the linear field x' = L x, from scipy."""
    from scipy.linalg import expm

    return lambda x0, times: np.array([expm(t * L) @ x0 for t in times])


@pytest.mark.parametrize(
    "change,theta,sample",
    [
        ("scaled", 0.3, 0),  # the rate 1e-6 too large
        ("transposed", 0.3, 0),  # the flow of A/a^3, the other sense of rotation
        ("diagonal", 0.0, 1),  # an entry on x1, which is 0 at the start alone
    ],
)
def test_declared_matrix_off_its_driven_field_is_a_hypothesis_error_naming_the_g_flow(change, theta, sample):
    # the declared G flow is exp(t M) x0 for a matrix M off the pair's field
    a, x0 = 1.0, kepler.circular_sample(1.0, theta)
    L = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]) / a**3  # the pair's field (x2, -x1, y2, -y1) / a^3
    wrong = {"scaled": L * (1 + 1e-6), "transposed": L.T, "diagonal": L + np.diag([1e-3, 0.0, 0.0, 0.0])}[change]
    rep = _kepler_coincidence(x0, a, 2 * np.pi, (kepler.kepler_flow, _matrix_flow(wrong)))
    assert rep.verdict == "hypothesis-error"
    assert rep.message.startswith(
        f"the declared flow of the G-driven flow differs from its driven field at sample {sample} (t="
    )


@pytest.mark.parametrize("a", [1e-30, 1e-3, 1.0, 1e3, 1e30])
def test_rotation_premise_residual_is_at_most_1e_11_at_every_radius(a):
    pair, on_set = g_driven_system(a), kepler.circular_sample(a, 0.3)
    for x0 in (on_set, on_set * [1.0, 1.0, 1.1, 1.1]):  # the rotation covers off-set starts too
        for samples in (401, 10_001):
            traj, broken = integrate._flow(pair, x0, 2 * np.pi * a**3, IntegratorSettings(sample_count=samples), 1e-11)
            assert traj.stats.method == "declared-flow" and broken is None


def test_row_norms_are_the_plain_norms_bit_for_bit_and_finite_where_those_overflow():
    rng = np.random.default_rng(35)
    rows = rng.standard_normal((2000, 4)) * 10.0 ** rng.integers(-150, 150, (2000, 1))
    assert integrate._row_norms(rows).tobytes() == np.linalg.norm(rows, axis=1).tobytes()
    with np.errstate(over="ignore"):
        far = integrate._row_norms(np.array([[1e200, 1e200, 1e-200, 0.0], [0.0] * 4, [np.inf, 1.0, 0.0, 0.0]]))
    assert far.tolist() == [np.hypot(1e200, 1e200), 0.0, np.inf]


@pytest.mark.parametrize(
    "row",
    [
        [1e200, 1e200, 1e-200, 0.0],
        [-1e308, 1e308, 0.0, 0.0],
        [1.7e308, 0.0, 0.0, 0.0],
        [1e160, -1e160, 1e160, 1e160],
        [1e300, 1e300, 1e300, 1e300],
        [2.5e-300, -1e307, 3e306, 1e308],
        [1e308, 1e308, 1e308, 1e308],
        [np.inf, 1.0, 0.0, 0.0],
        [np.nan, 1e300, 1e300, 0.0],
    ],
    ids=["pair", "opposite-signs", "one-entry", "four-equal-squares-overflow", "four-equal", "spread", "norm-overflows",
         "inf", "nan"],
)
def test_row_norm_whose_squares_overflow_is_the_true_norm(row):
    # math.hypot scales before squaring, so it overflows only where the norm does
    with np.errstate(over="ignore"):
        got = integrate._row_norms(np.array([row, [3.0, 4.0, 0.0, 0.0]]))
    try:
        want = math.hypot(*row)
    except OverflowError:
        want = np.inf
    if np.isfinite(want):
        assert abs(got[0] - want) <= 2 * np.finfo(float).eps * want
    else:  # inf, or nan for a nan entry
        assert str(got[0]) == str(want)
    assert got[1] == 5.0  # a row that does not overflow is untouched


def test_each_jacobian_stack_of_the_f_samples_is_evaluated_once():
    shapes, H = [], kepler.hamiltonian()
    counted = replace(H, analytic_gradient=lambda x: shapes.append(x.shape) or H.analytic_gradient(x))
    rep = verify_coincidence(
        batched_symplectic_base, counted, kepler.linear_pair_hamiltonian(1.0), kepler.circular_sample(1.0, 0.3),
        2 * np.pi, batched=True, flows=_declared(1.0),
    )
    assert rep.verdict == "pass"
    assert shapes == [(1, 4), (401, 4)]  # the start's agreement, then the driven rows and J_F - J_G


def _assert_kepler_premise_holds(e, sense):
    system = replace(kepler.kepler_field(), flow=kepler.kepler_flow)
    x0 = np.array([1.0 - e, 0.0, 0.0, sense * np.sqrt((1.0 + e) / (1.0 - e))])  # at periapsis, a = 1
    x0 = kepler.kepler_flow(x0, np.array([0.0, 0.77]))[1]
    traj, broken = integrate._flow(system, x0, 16 * np.pi, IntegratorSettings(), 1e-9)
    assert traj.stats.method == "declared-flow" and broken is None


@pytest.mark.parametrize("e", [0.0, 0.5, 0.9, 0.95, 0.99])
def test_premise_of_the_kepler_flow_holds_on_eccentric_orbits(e):
    # the difference step follows the shortest time scale on the samples, so
    # the residual stays ten times below the default tolerance up to e = 0.99
    _assert_kepler_premise_holds(e, 1.0)


@pytest.mark.parametrize("e", [0.0, 0.5, 0.9, 0.95, 0.99])
def test_premise_of_the_kepler_flow_holds_on_clockwise_orbits(e):
    _assert_kepler_premise_holds(e, -1.0)


@pytest.mark.parametrize("periods", [1, 8])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("e", [0.9, 0.95, 0.99])
def test_premise_of_the_kepler_flow_holds_from_periapsis(e, a, periods):
    # against the H-driven field at the default tolerance 1e-8: one difference
    # step for all samples, the periapsis time, divided the flow's rounding at
    # apoapsis by so small a step that e = 0.99 read 1.1e-8 to 1.6e-8; each
    # sample's own step reads at most 4.6e-9
    x0 = np.array([a * (1.0 - e), 0.0, 0.0, np.sqrt((1.0 + e) / ((1.0 - e) * a))])
    driven = assemble_system(batched_symplectic_base, kepler.hamiltonian(), batched=True).system
    system = replace(driven, flow=kepler.kepler_flow)
    traj, broken = integrate._flow(system, x0, periods * 2 * np.pi * a**1.5, IntegratorSettings(), 1e-8)
    assert traj.stats.method == "declared-flow" and broken is None


def test_declared_flow_map_of_another_shape_is_a_usage_error():
    flows = (lambda x0, t: np.zeros((len(t), 3)), kepler.linear_pair_flow(1.0))
    with pytest.raises(UsageError, match=r"flow of 'driven-F' returned shape \(401, 3\), expected \(401, 4\)"):
        _kepler_coincidence(kepler.circular_sample(1.0, 0.3), 1.0, 1.0, flows)


def _misbehaving_map(kind, at=37):
    """The Kepler flow map with sample ``at`` NaN or inf, or that raises, or
    that covers no start."""

    def flow(x0, times):
        if kind == "raise":
            raise NumericError("map has no state here")
        if kind == "none":
            return None
        states = kepler.kepler_flow(x0, times)
        states[at, 1] = float(kind)
        return states

    return flow


@pytest.mark.parametrize("start", ["on-set", "off-set"])
@pytest.mark.parametrize("kind", ["nan", "inf", "raise", "none"])
def test_misbehaving_declared_map_is_not_handed_to_the_stepper(kind, start):
    # a map that covers no start is integrated; one that does answers for
    # its samples: a non-finite one is the stepper's error, which an off-set
    # start reports as a hypothesis error, and a raise is the map's own
    a, integ = 1.0, IntegratorSettings(sample_count=101)
    x0 = kepler.circular_sample(a, 0.3)
    if start == "off-set":
        x0[2:] *= 1.08
    flows = (_misbehaving_map(kind), kepler.linear_pair_flow(a))
    if kind == "raise":
        with pytest.raises(NumericError, match="map has no state here"):
            _kepler_coincidence(x0, a, 2 * np.pi, flows, integ=integ)
    elif kind == "none":
        slow = _kepler_coincidence(x0, a, 2 * np.pi, integ=integ)
        fast = _kepler_coincidence(x0, a, 2 * np.pi, flows, integ=integ)
        assert fast.verdict == slow.verdict and abs(fast.worst_value - slow.worst_value) <= 1e-8
        assert fast.trajectory.stats.method == "dormand-prince-8(5,3)"  # the G flow is still the rotation
        assert fast.trajectory.states.tobytes() == slow.trajectory.states.tobytes()
    elif start == "on-set":
        with pytest.raises(IntegrationError, match="non-finite states") as info:
            _kepler_coincidence(x0, a, 2 * np.pi, flows, integ=integ)
        assert info.value.last_good_time == np.linspace(0.0, 2 * np.pi, 101)[36]
    else:
        rep = _kepler_coincidence(x0, a, 2 * np.pi, flows, integ=integ)
        assert rep.verdict == "hypothesis-error" and rep.worst_value == np.inf
        assert "integration additionally failed: declared flow of 'driven-F' produced non-finite states" in rep.message


def test_declared_map_that_does_not_cover_the_shifted_times_fails_the_premise():
    # the premise's difference steps before sample 0: a map that covers no
    # negative time has no velocity there
    forward = lambda x0, times: None if (np.asarray(times) < 0).any() else kepler.kepler_flow(x0, times)  # noqa: E731
    rep = _kepler_coincidence(kepler.circular_sample(1.0, 0.3), 1.0, 2 * np.pi, (forward, kepler.linear_pair_flow(1.0)))
    assert rep.verdict == "hypothesis-error"
    assert rep.message == "the declared flow of the F-driven flow differs from its driven field at sample 0 (t=0, residual nan)"


@pytest.mark.parametrize("error", [1e-6, -1e-6, 1e-7, -3e-8, 1e-10])
def test_time_scale_error_of_a_declared_map_is_read_as_it_is(error):
    # the difference quotient's own residual is far below the tolerance of
    # 1e-8, so an error above it is read within 1% and one below passes
    a, x0 = 1.0, kepler.circular_sample(1.0, 0.3)
    rep = _kepler_coincidence(x0, a, 2 * np.pi, (_kepler_map(1 + error), kepler.linear_pair_flow(a)))
    if abs(error) < 1e-8:
        assert rep.verdict == "pass", rep.message
        return
    match = re.fullmatch(
        r"the declared flow of the F-driven flow differs from its driven field at sample 0 \(t=0, residual (\S+)\)",
        rep.message,
    )
    assert rep.verdict == "hypothesis-error" and match
    assert float(match[1]) == pytest.approx(abs(error), rel=1e-2)


@pytest.mark.parametrize("periods", [1e4, 3e4, 1e5, 1e6])
def test_circle_passes_over_a_million_periods(periods):
    # the premise's difference step is a power of two, so the shifted times
    # t +- delta and t +- 2 delta are exact here (none crosses a power of
    # two); a step of 1e-3 itself rounded them by up to ulp(t) / 2, which
    # read 1.6e-8 from 3e4 periods on
    rep = _kepler_coincidence(kepler.circular_sample(1.0, 0.3), 1.0, periods * 2 * np.pi, _declared(1.0))
    assert rep.verdict == "pass", rep.message
    assert rep.trajectory.stats.method == "declared-flow"
    assert rep.worst_value <= 1e-9
