import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invarsets import (
    ConservedQuantitySet,
    IntegrationError,
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
from invarsets.coincidence import _derivative_blocks, _difference_quantity
from invarsets.differentiate import _flat_block, _partial_stack

from conftest import random_kepler_states, random_toda_physical, zero_quantity


def _symplectic_base():
    block = canonical_symplectic_matrix(2)
    return lambda x, g: block @ g


def _poisson_system(structure, quantity):
    """x' = Pi grad F(x) for a constant matrix Pi, as a driven system."""
    return assemble_system(lambda x, g: structure @ g, quantity).system


def _stack(quantity, x, order):
    """The blocks of orders 1..order at one state, each a flat vector."""
    return [b[0] for b in _derivative_blocks(quantity, np.array([x], dtype=float), order)]


# ---------------------------------------------------------------------------
# derivative stacks
# ---------------------------------------------------------------------------


def test_stack_scalar_first_order_is_gradient():
    q = ConservedQuantitySet.scalar(
        2, lambda z: z[0] * z[1], "xy", gradient=lambda z: np.array([z[1], z[0]])
    )
    assert np.array_equal(np.concatenate(_stack(q, [2.0, 3.0], 1)), [3.0, 2.0])


def test_stack_vector_first_order_lexicographic():
    q = ConservedQuantitySet(
        dim=2,
        k=2,
        value=lambda z: np.array([z[0], z[1] ** 2]),
        labels=("a", "b"),
        analytic_gradient=lambda z: np.array([[1.0, 0.0], [0.0, 2.0 * z[1]]]),
    )
    assert np.array_equal(np.concatenate(_stack(q, [0.0, 1.0], 1)), [1.0, 0.0, 0.0, 2.0])


def test_stack_second_order_block():
    q = ConservedQuantitySet.scalar(2, lambda z: z[0] * z[1], "xy")
    blocks = _stack(q, [2.0, 3.0], 2)
    assert np.allclose(blocks[0], [3.0, 2.0], atol=1e-9)
    assert np.allclose(blocks[1], [0.0, 1.0, 1.0, 0.0], atol=1e-5)
    assert np.concatenate(blocks).size == 2 + 4


# ---------------------------------------------------------------------------
# agreement residual
# ---------------------------------------------------------------------------


def test_agreement_identical_quantities():
    q = kepler.hamiltonian()
    assert agreement_residual(q, q, random_kepler_states(1, 1)[0], 1) == 0.0


def test_agreement_kepler_pair_on_and_off_circle():
    H = kepler.hamiltonian()
    G = kepler.linear_pair_hamiltonian(1.0)
    assert agreement_residual(H, G, np.array([0.0, 1.0, 1.0, 0.0]), 1) < 1e-9
    off = agreement_residual(H, G, np.array([0.0, 2.0, 1.0, 0.0]), 1)
    assert off == pytest.approx(1.0, abs=1e-6)


def test_agreement_residual_that_overflows_is_inf_without_a_warning():
    x0 = np.array([1.5e308, 1e308, 1.5e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert agreement_residual(kepler.hamiltonian(), kepler.linear_pair_hamiltonian(1.0), x0, 1) == np.inf
        fast = _assert_fast_equals_slow(x0, 1.0, 2 * np.pi)
    assert fast.verdict == "hypothesis-error"
    assert fast.message.startswith("start is off the agreement set (residual inf)")


def test_agreement_shape_mismatch():
    with pytest.raises(UsageError):
        agreement_residual(kepler.hamiltonian(), oscillator.squared_radius(), [0, 1, 1, 0], 1)


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
        deviation_tol=1e-6,
    )
    assert report.verdict == "pass"
    assert report.worst_value < 1e-6
    assert report.agreement_residual < 1e-9
    assert report.difference_drift < 1e-8


def test_identical_quantities_coincide_exactly():
    q = kepler.hamiltonian()
    report = verify_coincidence(
        _symplectic_base(), q, q, kepler.circular_sample(1.0, 0.7), 3.0, sample_count=51
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


def _laplacian_coupled_base(c):
    # stack layout for k=1, n=2, order 2: [g1, g2, h11, h12, h21, h22];
    # the perturbation -c (h11 + h22) x vanishes wherever the driver's
    # second derivatives do and pushes radially with a definite sign
    return lambda x, s: np.array([x[1], -x[0]]) - c * (s[2] + s[5]) * x


def _batched_laplacian_base(c):
    """:func:`_laplacian_coupled_base` on a point or a stack, the same
    operations row by row."""
    return lambda x, s: np.stack([x[..., 1], -x[..., 0]], axis=-1) - (c * (s[..., 2] + s[..., 5]))[..., None] * x


def test_second_order_driven_coincidence_on_circle():
    # flows driven by second-derivative stacks coincide from a start where
    # all partials up to order 2 of the two drivers agree (here: circle
    # points, where every partial of (r^2-1)^3 up to order 2 vanishes);
    # the hypothesis tolerance sits above the ~1e-6 nested-differencing noise
    report = verify_coincidence(
        _laplacian_coupled_base(0.1),
        zero_quantity(2),
        oscillator.unit_circle_power(3),
        np.array([1.0, 0.0]),
        2 * np.pi,
        order=2,
        hypothesis_tol=1e-5,
        deviation_tol=1e-7,
    )
    assert report.verdict == "pass"
    assert report.worst_value < 1e-7


def test_second_order_driven_coincidence_off_circle_control():
    report = verify_coincidence(
        _laplacian_coupled_base(0.1),
        zero_quantity(2),
        oscillator.unit_circle_power(3),
        np.array([1.3, 0.0]),
        1.0,
        order=2,
        hypothesis_tol=1e-5,
    )
    assert report.verdict == "hypothesis-error"
    assert report.agreement_residual > 1.0  # second derivatives are O(1) off the circle


def test_vector_valued_coincidence_smoke():
    from invarsets import stack_quantities

    pair = stack_quantities([kepler.hamiltonian(), kepler.angular_momentum()])
    base = lambda x, s: canonical_symplectic_matrix(2) @ s[:4]  # driven by row 1
    report = verify_coincidence(
        base, pair, pair, kepler.circular_sample(1.0, 0.2), 2.0, sample_count=51
    )
    assert report.verdict == "pass"
    assert report.worst_value == 0.0


# ---------------------------------------------------------------------------
# Poisson assembly
# ---------------------------------------------------------------------------


_COMPONENT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e150, 1e150))
_KEPLER_STATES = st.lists(st.lists(_COMPONENT, min_size=4, max_size=4), min_size=1, max_size=6)


def _assert_closed_form_identity(closed, driven, xs):
    """``closed`` equals ``driven`` on the stack ``xs`` and at each of its
    states: equal as floats, so in every bit but a zero's sign, and in every
    bit where the closed row holds no zero; where one raises, so does the
    other."""
    try:
        expected = driven.fields(xs)
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
    for base, batched in ((lambda x, g: J @ g, False), (report._symplectic_base, True)):
        for closed, quantity in (
            (kepler.kepler_field(), kepler.hamiltonian()),
            (kepler.linear_pair_field(a), kepler.linear_pair_hamiltonian(a)),
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
def test_report_base_gives_the_closed_forms_bit_for_bit(xs, a):
    # J grad H and J grad(-A/a^3) through the report's base are the Kepler
    # field and the linear pair field in every bit, signed zeros and
    # overflows to inf included, on a stack and on each of its states; both
    # raise at the same states, and the driven field gives the same bits
    # wherever they are finite and raises wherever they are not
    xs = np.array(xs)
    for closed, q in (
        (kepler.kepler_field(), kepler.hamiltonian()),
        (kepler.linear_pair_field(a), kepler.linear_pair_hamiltonian(a)),
    ):
        driven = assemble_system(report._symplectic_base, q, batched=True).system
        j_grad = lambda z: report._symplectic_base(z, q.analytic_gradient(z)[..., 0, :])
        for z in (xs, *xs):
            expected = _row_or_none(closed.field, z)
            got = _row_or_none(j_grad, z)
            assert (got is None) == (expected is None)
            if expected is None:
                continue
            assert got.tobytes() == expected.tobytes()
            if np.isfinite(expected).all():
                assert driven.field(z).tobytes() == expected.tobytes()
            else:
                with pytest.raises(NumericError):
                    driven.field(z)


def test_matrix_product_base_parts_from_the_closed_form_in_a_zero_sign():
    # the control: g @ J.T sums J's zero products to +0 where the Kepler
    # field negates to -0, at the shipped start [0, 1, 1, -0]
    x0 = kepler.circular_sample(1.0, 0.0)
    assert x0.tobytes() == np.array([0.0, 1.0, 1.0, -0.0]).tobytes()
    g = kepler.hamiltonian().analytic_gradient(x0)[0]
    closed = kepler.kepler_field().field(x0)
    product = g @ canonical_symplectic_matrix(2).T
    assert np.array_equal(product, closed)
    assert product.tobytes() != closed.tobytes()
    assert report._symplectic_base(x0, g).tobytes() == closed.tobytes()


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
        lambda g: g, [1.0, 0.0], 1.0, deviation_tol=1e-8, abs_tol=1e-12, rel_tol=1e-12
    )
    assert report.verdict == "pass"
    assert report.worst_value < 1e-8


def test_perturbed_pair_stable_orientation_full_period():
    # the inward-pushing orientation makes the circle attracting, so the
    # coincidence is certifiable over a full period
    report = _perturbed_pair_coincidence(lambda g: -g, [1.0, 0.0], 2 * np.pi, deviation_tol=1e-8)
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
    blocks = _stack(zero_quantity(3), [1.0, 2.0, 3.0], 2)
    assert np.array_equal(np.concatenate(blocks), np.zeros(3 + 9))


def test_assembled_system_label():
    driven = assemble_system(_symplectic_base(), kepler.hamiltonian())
    assert "H" in driven.system.label


# ---------------------------------------------------------------------------
# stacked driven field and conservation scan: each equals the point path
# ---------------------------------------------------------------------------

STACK_SETTINGS = settings(max_examples=15, deadline=None)


def _order1_cases():
    """(label, quantity) for each way the partial builder can produce order 1."""
    H, A = kepler.hamiltonian(), kepler.angular_momentum()
    return [
        ("analytic-gradient", H),
        ("gradient-and-partial", kepler.linear_pair_hamiltonian(1.2)),
        ("fd-only", ConservedQuantitySet(dim=4, k=1, value=H.value, labels=("H-fd",))),
        (
            "partial-only",
            ConservedQuantitySet(
                dim=4, k=1, value=A.value, labels=("A-partial",), analytic_partial=A.analytic_partial
            ),
        ),
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

        assemble_system(base, q).fields(xs)
        assert len(seen) == count, label
        for x, g in zip(xs, seen):
            expected = _flat_block(_partial_stack(q, x[None], 1), q.k, q.dim, 1)[0]
            assert np.array_equal(g, expected), label


def _summed_symplectic_base(dof):
    """J applied to the sum of the k gradient blocks of the flat stack."""
    block = canonical_symplectic_matrix(dof)
    return lambda x, s: block @ s.reshape(-1, 2 * dof).sum(axis=0)


@STACK_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 9))
def test_stacked_driven_field_rows_equal_point_field(seed, count):
    # one case per derivative rule: the point field of an analytic gradient
    # at order 1 skips the batch of one, every other rule is such a batch
    kepler_states = random_kepler_states(count, seed)
    plane_states = np.random.default_rng(seed).uniform(-2.0, 2.0, (count, 2))
    toda_states = random_toda_physical(3, count, seed)
    pair = stack_quantities([kepler.hamiltonian(), kepler.angular_momentum()])
    cases = [
        (assemble_system(_symplectic_base(), kepler.hamiltonian()), kepler_states),
        (assemble_system(_symplectic_base(), kepler.linear_pair_hamiltonian(0.9)), kepler_states),
        (assemble_system(lambda x, s: s[:4] - s[4:], pair), kepler_states),
        (assemble_system(_summed_symplectic_base(3), toda.periodic_invariants(3)), toda_states),
        (assemble_system(_laplacian_coupled_base(0.1), oscillator.unit_circle_power(3), 2), plane_states),
    ]
    cases += [(assemble_system(_summed_symplectic_base(2), q), kepler_states) for _, q in _order1_cases()]
    # declared bases: the coincidence check's, and one at order 2
    cases += [
        (assemble_system(report._symplectic_base, q, batched=True), kepler_states)
        for q in (kepler.hamiltonian(), kepler.linear_pair_hamiltonian(0.9))
    ]
    cases.append(
        (assemble_system(_batched_laplacian_base(0.1), oscillator.unit_circle_power(3), 2, batched=True), plane_states)
    )
    assert cases[3][0].quantity.batched
    for driven, xs in cases:
        rows = driven.fields(xs)
        assert rows.shape == xs.shape
        for x, row in zip(xs, rows):
            point = driven.system.field(np.array(x))
            assert point.tobytes() == row.tobytes()
            assert point.tobytes() == driven.fields(x[None])[0].tobytes()


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
        dim=4, k=1, value=H.value, labels=("H-faulty",), analytic_gradient=grad, smoothness_order=64
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
        driven.fields(x[None])
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
    xs, q, block = random_kepler_states(5, 3), kepler.hamiltonian(), canonical_symplectic_matrix(2)
    for order, width in ((1, 4), (2, 4 + 16)):
        calls = []
        rows = assemble_system(_counted(lambda x, s: s[..., :4] @ block.T, calls), q, order, batched=True).fields(xs)
        assert calls == [((5, 4), (5, width))]
        calls = []
        assert rows.tobytes() == assemble_system(_counted(lambda x, s: block @ s[:4], calls), q, order).fields(xs).tobytes()
        assert calls == [((4,), (width,))] * 5


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
        batched = assemble_system(report._symplectic_base, q, batched=True)
    else:
        per_row = assemble_system(_faulty_base(fault, where), kepler.hamiltonian())
        batched = assemble_system(_faulty_batched_base(fault, where), kepler.hamiltonian(), batched=True)
    with pytest.raises(error) as one_by_one:
        per_row.fields(xs)
    with pytest.raises(error) as stacked:
        batched.fields(xs)
    assert str(stacked.value) == str(one_by_one.value)
    if part == "base":
        assert f"at state {0 if fault == 'shape' else 2} of 5" in str(stacked.value)


def test_batched_base_with_a_result_not_stacked_is_a_usage_error():
    xs = random_kepler_states(5, 4)
    driven = assemble_system(lambda x, g: g[0], kepler.hamiltonian(), batched=True)
    with pytest.raises(UsageError, match=r"field of 'driven\[H\]' returned shape \(4,\), expected \(5, 4\)"):
        driven.fields(xs)


_SIGNED = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(gs=st.lists(st.lists(_SIGNED, min_size=4, max_size=4), min_size=1, max_size=6))
def test_report_base_equals_j_times_gradient_bit_for_bit(gs):
    # J has entries 0 and +-1, so J @ g has the value of the signed
    # permutation (g_y, -g_x) the report base takes, on a point and on a
    # stack; the base has its bits, each entry one signed entry of g, as the
    # closed forms have, where J @ g sums J's zero products to +0
    J = canonical_symplectic_matrix(2)
    stack = np.array(gs)
    expected = np.array([[g[2], g[3], -g[0], -g[1]] for g in stack])
    assert np.array_equal(report._symplectic_base(None, stack), stack @ J.T)
    assert report._symplectic_base(None, stack).tobytes() == expected.tobytes()
    for g, row in zip(stack, expected):
        assert np.array_equal(report._symplectic_base(None, g), J @ g)
        assert report._symplectic_base(None, g).tobytes() == row.tobytes()


@pytest.mark.parametrize("x", [[1e308, 1e308, 1e308, 1e308], [1e308, 1e308, -1e308, 1.0]])
def test_point_field_at_a_state_whose_sum_overflows_returns_its_row(x):
    # every entry is finite; the state's sum overflows in both cases, and the
    # sums of the gradient (0, 0, p) and the row (p, 0, 0) in the first
    # (-0, -0) through the report's base, which negates the gradient's +0
    x = np.array(x)
    gradient = np.array([0.0, 0.0, x[2], x[3]])
    for base, batched in ((_symplectic_base(), False), (report._symplectic_base, True)):
        driven = assemble_system(base, kepler.hamiltonian(), batched=batched)
        row = driven.system.field(x)
        assert row.tobytes() == driven.fields(x[None])[0].tobytes()
        assert row.tobytes() == base(x, gradient).tobytes()
    assert row.tobytes() == np.array([x[2], x[3], -0.0, -0.0]).tobytes()


def test_point_field_takes_a_non_finite_state_as_a_numeric_error():
    # both derivative rules: an analytic gradient at order 1, and a batch of one
    for driven, dim in (
        (assemble_system(_symplectic_base(), kepler.hamiltonian()), 4),
        (assemble_system(_laplacian_coupled_base(0.1), oscillator.unit_circle_power(3), 2), 2),
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


def _loop_drift(base, f_quantity, g_quantity, order, states):
    """The per-sample conservation scan the stacked one replaced."""
    diff = _difference_quantity(f_quantity, g_quantity)
    sys_f = assemble_system(base, f_quantity, order, label="driven-F").system
    drift = 0.0
    for s in states:
        res = float(np.max(np.abs(conservation_rates(diff, sys_f, s[None]))))
        drift = max(drift, res / max(1.0, float(np.linalg.norm(s))))
    return drift


def _assert_scan_matches_loop(base, f_quantity, g_quantity, x0, t_end, order=1, **kwargs):
    report = verify_coincidence(base, f_quantity, g_quantity, x0, t_end, order=order, **kwargs)
    states = report.trajectory.states
    assert report.difference_drift == _loop_drift(base, f_quantity, g_quantity, order, states)
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
        sample_count=101,
    )
    assert report.verdict == ("pass" if push == 0.0 else "hypothesis-error")


@pytest.mark.parametrize("start", [[1.0, 0.0], [1.3, 0.0], [0.6, 0.8]])
def test_stacked_scan_drift_equals_point_loop_second_order(start):
    _assert_scan_matches_loop(
        _laplacian_coupled_base(0.1),
        zero_quantity(2),
        oscillator.unit_circle_power(3),
        np.array(start),
        1.0,
        order=2,
        hypothesis_tol=1e-5,
        sample_count=41,
    )


@pytest.mark.parametrize("start", [[1.0, 0.0], [1.5, 0.0]])
def test_stacked_scan_drift_equals_point_loop_perturbed_pair(start):
    # the inward-pushing perturbation keeps the off-circle start integrable
    system, G = oscillator.harmonic_oscillator(), oscillator.unit_circle_power(2)
    base = _perturbed_base(system, lambda g: -g)
    _assert_scan_matches_loop(base, zero_quantity(2), G, np.array(start), 1.0, sample_count=41)


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
    _assert_scan_matches_loop(lambda x, g: block @ g, F, G, x0, 0.5, sample_count=21)
    assert 2 in calls  # the difference quantity was evaluated on the stack


def test_non_finite_driven_field_at_one_sample_is_a_numeric_error():
    # the integrator never evaluates the field at a dense-output sample, so
    # only the conservation scan meets the NaN
    F, G = kepler.hamiltonian(), kepler.linear_pair_hamiltonian(1.0)
    x0 = kepler.circular_sample(1.0, 0.3)
    clean = verify_coincidence(_symplectic_base(), F, G, x0, 2.0, sample_count=41)
    bad = clean.trajectory.states[20].copy()
    block = canonical_symplectic_matrix(2)

    def base(x, g):
        out = block @ g
        return np.full(4, np.nan) if np.array_equal(x, bad) else out

    with pytest.raises(NumericError, match="state 20 of 41"):
        verify_coincidence(base, F, G, x0, 2.0, sample_count=41)


def test_wrong_shape_driven_field_row_is_a_usage_error():
    driven = assemble_system(lambda x, g: g[:3] if x[0] > 0 else g, kepler.hamiltonian())
    xs = np.array([[-1.0, 0.5, 0.0, 1.0], [1.0, 0.5, 0.0, 1.0]])
    with pytest.raises(UsageError, match=r"returned shape \(3,\) at state 1 of 2"):
        driven.fields(xs)
    with pytest.raises(UsageError, match="shape"):
        evaluate_field(driven.system, xs[1])
    with pytest.raises(UsageError):
        driven.fields(xs[:, :3])


# ---------------------------------------------------------------------------
# closed-form flows: the Kepler field and its linear companion in place of
# the driven fields give the same report in every bit, and a closed form
# that differs from its driven field anywhere it is checked never passes
# ---------------------------------------------------------------------------

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
COINCIDENCE_SCENARIOS = sorted(p.name for p in SCENARIO_DIR.glob("*.json") if '"coincidence"' in p.read_text())


def _kepler_coincidence(x0, a, t_end, closed_forms=None, **kwargs):
    return verify_coincidence(
        report._symplectic_base, kepler.hamiltonian(), kepler.linear_pair_hamiltonian(a), x0, t_end,
        batched=True, closed_forms=closed_forms, **kwargs,
    )


def _kepler_closed_forms(a):
    return kepler.kepler_field(), kepler.linear_pair_field(a)


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _assert_same_report(fast, slow):
    assert (fast.verdict, fast.message) == (slow.verdict, slow.message)
    for name in ("worst_value", "worst_time", "agreement_residual", "difference_drift"):
        assert _bits(getattr(fast, name)) == _bits(getattr(slow, name)), name
    assert (fast.trajectory is None) == (slow.trajectory is None)
    if slow.trajectory is not None:
        assert _bits(fast.trajectory.times) == _bits(slow.trajectory.times)
        assert _bits(fast.trajectory.states) == _bits(slow.trajectory.states)
        assert fast.trajectory.stats == slow.trajectory.stats


def _assert_fast_equals_slow(x0, a, t_end, **kwargs):
    slow = _kepler_coincidence(x0, a, t_end, **kwargs)
    fast = _kepler_coincidence(x0, a, t_end, _kepler_closed_forms(a), **kwargs)
    _assert_same_report(fast, slow)
    return fast


def test_shipped_scenarios_hold_every_coincidence_check():
    assert COINCIDENCE_SCENARIOS == [
        "kepler-circular-coincidence-a15.json", "kepler-circular-coincidence.json", "kepler-offset-control.json",
    ]


@pytest.mark.parametrize("name", COINCIDENCE_SCENARIOS)
def test_closed_forms_give_the_driven_report_on_shipped_scenarios(name):
    s = report._read(json.loads((SCENARIO_DIR / name).read_text()))
    fast = _assert_fast_equals_slow(
        s.x0, s.params["a"], s.t_end,
        deviation_tol=s.tol["deviation"], hypothesis_tol=s.tol["hypothesis"], **s.integ,
    )
    assert fast.verdict == s.config["expected_verdict"]


@settings(max_examples=8, deadline=None)
@given(
    a=st.floats(0.7, 1.4),
    theta=st.floats(0.0, 2 * np.pi),
    push=st.sampled_from([0.0, 0.0, 0.08, -0.15]),
)
def test_closed_forms_give_the_driven_report_on_seeded_starts(a, theta, push):
    x0 = kepler.circular_sample(a, theta)
    x0[2:] *= 1.0 + push  # push != 0 moves the start off the agreement set
    fast = _assert_fast_equals_slow(x0, a, np.pi * a**3, sample_count=101)
    assert fast.verdict == ("pass" if push == 0.0 else "hypothesis-error")


@pytest.mark.parametrize(
    "x0",
    [
        [0.3, 0.4, -0.3, -0.4],  # a plunge to the origin: the step size underflows
        [1.0, 0.0, 0.0, 0.0],  # the same on an axis: every row holds a zero
        [0.003, 0.004, 0.3, 0.4],  # the step size underflows at the start
        [1.5e308, 0.0, 1.5e308, 0.0],  # the first stage overflows
    ],
)
def test_closed_forms_fail_an_off_set_flow_where_the_driven_one_fails(x0):
    fast = _assert_fast_equals_slow(np.array(x0), 1.0, 2 * np.pi)
    assert fast.verdict == "hypothesis-error"
    assert "integration additionally failed" in fast.message


def test_closed_forms_fail_an_on_set_flow_with_the_driven_error(monkeypatch):
    monkeypatch.setattr(integrate, "_MAX_ATTEMPTS", 5)
    errors = []
    for closed_forms in (None, _kepler_closed_forms(1.0)):
        with pytest.raises(IntegrationError) as err:
            _kepler_coincidence(kepler.circular_sample(1.0, 0.3), 1.0, 2 * np.pi, closed_forms)
        errors.append((str(err.value), err.value.last_good_time))
    assert errors[0] == errors[1]
    assert "step budget of 5 attempts" in errors[0][0]


def test_closed_forms_declared_for_one_state_are_called_once_per_state():
    # a point-only closed form (a stack cannot be reshaped to one state)
    a, x0 = 1.1, kepler.circular_sample(1.1, 0.4)
    closed = tuple(
        SystemDefinition(4, lambda x, _f=system.field: _f(x.reshape(4)), system.label)
        for system in _kepler_closed_forms(a)
    )
    slow = _kepler_coincidence(x0, a, 4.0, sample_count=61)
    _assert_same_report(_kepler_coincidence(x0, a, 4.0, closed, sample_count=61), slow)
    assert slow.verdict == "pass"


def _failing(system, fault):
    """``system`` whose field raises a NumericError or returns NaN rows everywhere."""

    def field(x):
        if fault == "raise":
            raise NumericError("closed form has no row here")
        return np.full(np.shape(x), np.nan)

    return replace(system, field=field)


@pytest.mark.parametrize("fault", ["raise", "nan"])
def test_closed_forms_hand_every_failing_state_to_the_driven_field(fault):
    a, x0 = 1.2, kepler.circular_sample(1.2, 0.5)
    closed = tuple(_failing(system, fault) for system in _kepler_closed_forms(a))
    slow = _kepler_coincidence(x0, a, 4.0, sample_count=61)
    _assert_same_report(_kepler_coincidence(x0, a, 4.0, closed, sample_count=61), slow)
    assert slow.verdict == "pass"


def _one_ulp_off(system, component, where=lambda x: True):
    """``system`` with one component of its row one ulp up at the states
    where ``where`` holds, on points and row by row on stacks."""

    def field(x):
        rows = np.array(system.field(x), dtype=float)
        picked = rows.reshape(-1, 4)
        for row, state in zip(picked, np.reshape(x, (-1, 4))):
            if where(state):
                row[component] = np.nextafter(row[component], np.inf)
        return rows

    return replace(system, field=field)


@pytest.mark.parametrize("flow,component", [("F", 2), ("G", 0), ("G", 3)])
def test_closed_form_one_ulp_off_is_a_hypothesis_error_at_the_start(flow, component):
    a, x0 = 1.0, kepler.circular_sample(1.0, 0.3)
    closed = list(_kepler_closed_forms(a))
    closed["FG".index(flow)] = _one_ulp_off(closed["FG".index(flow)], component)
    rep = _kepler_coincidence(x0, a, 2 * np.pi, tuple(closed))
    assert rep.verdict == "hypothesis-error"
    assert rep.message == f"the closed form of the {flow}-driven flow differs from its driven field at sample 0 (t=0)"
    assert rep.trajectory is not None


@pytest.mark.parametrize("flow", ["F", "G"])
def test_closed_form_exact_at_the_start_only_is_a_hypothesis_error_at_a_sample(flow):
    a, x0 = 1.0, kepler.circular_sample(1.0, 0.3)
    closed = list(_kepler_closed_forms(a))
    closed["FG".index(flow)] = _one_ulp_off(closed["FG".index(flow)], 1, lambda x: not np.array_equal(x, x0))
    rep = _kepler_coincidence(x0, a, 2 * np.pi, tuple(closed))
    assert rep.verdict == "hypothesis-error"
    assert rep.message.startswith(
        f"the closed form of the {flow}-driven flow differs from its driven field at sample 1 (t="
    )
    assert _kepler_coincidence(x0, a, 2 * np.pi).verdict == "pass"


@pytest.mark.parametrize("flow", ["F", "G"])
def test_closed_form_without_a_row_at_the_start_is_still_checked_on_the_other_samples(flow):
    # the start's NaN row goes to the driven field, on a point and as row 0
    # of the sample stack; only that row is handed, so the other samples
    # still show the closed form one ulp off
    a, x0 = 1.0, kepler.circular_sample(1.0, 0.3)
    closed = list(_kepler_closed_forms(a))
    off = _one_ulp_off(closed["FG".index(flow)], 1)

    def field(x):
        rows = off.field(x)
        rows[np.all(x == x0, axis=-1)] = np.nan
        return rows

    closed["FG".index(flow)] = replace(off, field=field)
    rep = _kepler_coincidence(x0, a, 2 * np.pi, tuple(closed))
    assert rep.verdict == "hypothesis-error"
    assert rep.message.startswith(
        f"the closed form of the {flow}-driven flow differs from its driven field at sample 1 (t="
    )


def test_closed_form_row_of_another_shape_is_a_usage_error_not_a_hand_off():
    # a non-finite row of the wrong shape is not handed to the driven field:
    # the first stage's check names the shape
    closed = (replace(kepler.kepler_field(), field=lambda x: np.full(3, np.nan)), kepler.linear_pair_field(1.0))
    with pytest.raises(UsageError, match=r"field of 'driven-F' returned shape \(3,\), expected \(4,\)"):
        _kepler_coincidence(kepler.circular_sample(1.0, 0.3), 1.0, 1.0, closed)


def test_closed_form_of_another_dimension_is_a_usage_error():
    closed = (oscillator.harmonic_oscillator(), kepler.linear_pair_field(1.0))
    with pytest.raises(UsageError, match="closed form 'harmonic-oscillator' has dimension 2, expected 4"):
        _kepler_coincidence(kepler.circular_sample(1.0, 0.3), 1.0, 1.0, closed)
