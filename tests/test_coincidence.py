import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invarsets import (
    ConservedQuantitySet,
    IntegrationError,
    NumericError,
    UsageError,
    agreement_residual,
    assemble_system,
    canonical_symplectic_matrix,
    conservation_residual,
    evaluate_field,
    flow_adaptive,
    jacobian,
    partial_tensor,
    stack_quantities,
    verify_coincidence,
    zero_quantity,
)
from invarsets import kepler, oscillator, toda
from invarsets.coincidence import _derivative_blocks, _difference_quantity

from conftest import random_kepler_states, random_toda_physical


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
    assert report.max_deviation < 1e-6
    assert report.e_residual < 1e-9
    assert report.difference_drift < 1e-8


def test_identical_quantities_coincide_exactly():
    q = kepler.hamiltonian()
    report = verify_coincidence(
        _symplectic_base(), q, q, kepler.circular_sample(1.0, 0.7), 3.0, sample_count=51
    )
    assert report.verdict == "pass"
    assert report.max_deviation == 0.0


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
    assert report.max_deviation > 1e-3  # diagnostic recorded even without a verdict


def _laplacian_coupled_base(c):
    # stack layout for k=1, n=2, order 2: [g1, g2, h11, h12, h21, h22];
    # the perturbation -c (h11 + h22) x vanishes wherever the driver's
    # second derivatives do and pushes radially with a definite sign
    return lambda x, s: np.array([x[1], -x[0]]) - c * (s[2] + s[5]) * x


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
    assert report.max_deviation < 1e-7


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
    assert report.e_residual > 1.0  # second derivatives are O(1) off the circle


def test_vector_valued_coincidence_smoke():
    from invarsets import stack_quantities

    pair = stack_quantities([kepler.hamiltonian(), kepler.angular_momentum()])
    base = lambda x, s: canonical_symplectic_matrix(2) @ s[:4]  # driven by row 1
    report = verify_coincidence(
        base, pair, pair, kepler.circular_sample(1.0, 0.2), 2.0, sample_count=51
    )
    assert report.verdict == "pass"
    assert report.max_deviation == 0.0


# ---------------------------------------------------------------------------
# Poisson assembly
# ---------------------------------------------------------------------------


def test_poisson_system_reproduces_kepler_field():
    system = _poisson_system(canonical_symplectic_matrix(2), kepler.hamiltonian())
    out = evaluate_field(system, np.array([0.0, 1.0, 1.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0, 0.0, -1.0], atol=0)


def test_poisson_zero_structure_gives_equilibria():
    system = _poisson_system(np.zeros((4, 4)), kepler.hamiltonian())
    out = evaluate_field(system, random_kepler_states(1, 7)[0])
    assert np.array_equal(out, np.zeros(4))


def test_poisson_conserves_its_driver():
    system = _poisson_system(canonical_symplectic_matrix(2), kepler.hamiltonian())
    for x in random_kepler_states(20, 9):
        res = conservation_residual(kepler.hamiltonian(), system, x)
        assert abs(res[0]) < 1e-12 * max(1.0, np.linalg.norm(x))


def test_mutual_conservation_symmetry_under_fixed_structure():
    # with one antisymmetric pairing, F conserved along the G-flow iff
    # G conserved along the F-flow; the two residuals are exact negatives
    block = canonical_symplectic_matrix(2)
    F, G = kepler.hamiltonian(), kepler.linear_pair_hamiltonian(1.0)
    sys_f = _poisson_system(block, F)
    sys_g = _poisson_system(block, G)
    for x in random_kepler_states(50, 21):
        r1 = conservation_residual(F, sys_g, x)[0]
        r2 = conservation_residual(G, sys_f, x)[0]
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
    assert report.max_deviation < 1e-8


def test_perturbed_pair_stable_orientation_full_period():
    # the inward-pushing orientation makes the circle attracting, so the
    # coincidence is certifiable over a full period
    report = _perturbed_pair_coincidence(lambda g: -g, [1.0, 0.0], 2 * np.pi, deviation_tol=1e-8)
    assert report.verdict == "pass"
    assert report.max_deviation < 1e-8


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
    g = jacobian(G, x)[0]
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
    """(label, quantity) for each way partial_tensor can produce order 1."""
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
            expected = partial_tensor(q, x, 1).flatten(1)
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
    assert cases[3][0].quantity.batched
    for driven, xs in cases:
        rows = driven.fields(xs)
        assert rows.shape == xs.shape
        for x, row in zip(xs, rows):
            point = driven.system.field(np.array(x))
            assert np.array_equal(point, row)
            assert np.array_equal(point, driven.fields(x[None])[0])


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
        res = float(np.max(np.abs(conservation_residual(diff, sys_f, s))))
        drift = max(drift, res / max(1.0, float(np.linalg.norm(s))))
    return drift


def _assert_scan_matches_loop(base, f_quantity, g_quantity, x0, t_end, order=1, **kwargs):
    report = verify_coincidence(base, f_quantity, g_quantity, x0, t_end, order=order, **kwargs)
    states = report.trajectory_f.states
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
    bad = clean.trajectory_f.states[20].copy()
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
