import dataclasses
import inspect
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from invarsets import (
    ConservedQuantitySet,
    NumericError,
    SystemDefinition,
    UsageError,
    as_state,
    conservation_rates,
    evaluate_field,
    stack_quantities,
)
from invarsets.core import TOLERANCES, _all_finite, _state_scales, _tolerances, format_float
from invarsets import coincidence, integrate, invariance, kepler, oscillator, report, toda

from conftest import g_driven_system, random_kepler_states, random_states, squared_radius, zero_quantity


def test_harmonic_field_value():
    sys2 = oscillator.harmonic_oscillator()
    assert np.array_equal(evaluate_field(sys2, [1.0, 0.0]), [0.0, -1.0])


def test_periodic_toda_field_example():
    sys4 = toda.periodic_field(4)
    out = evaluate_field(sys4, [1, 2, 3, 4, 1, 0, -1, 0])
    assert np.array_equal(out, [1, 2, -3, -4, 3, -1, -1, -1])


def test_periodic_toda_equilibrium_family():
    sys3 = toda.periodic_field(3)
    out = evaluate_field(sys3, [0.7, 0.7, 0.7, 0.0, 0.0, 0.0])
    assert np.array_equal(out, np.zeros(6))
    # any constant (X, ..., X, u, ..., u) is an equilibrium
    out = evaluate_field(sys3, [0.7, 0.7, 0.7, 0.3, 0.3, 0.3])
    assert np.array_equal(out, np.zeros(6))


def test_dimension_mismatch_is_usage_error():
    sys2 = oscillator.harmonic_oscillator()
    with pytest.raises(UsageError):
        evaluate_field(sys2, [1.0, 0.0, 0.0])


def test_non_finite_field_output_is_numeric_error():
    bad = SystemDefinition(dim=2, field=lambda z: np.array([np.inf, 0.0]), label="bad")
    with pytest.raises(NumericError, match="component 0"):
        evaluate_field(bad, [1.0, 0.0])


# non-finite entries, subnormals and values near the top of the range
EDGE_FLOATS = [np.inf, -np.inf, np.nan, 5e-324, -2.2e-308, 1e300, -1.7e308, 0.0]


@given(
    arrays(
        float,
        array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
        elements=st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=True, allow_infinity=True),
    )
)
def test_all_finite_equals_isfinite_all_and_never_warns(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _all_finite(a)
    assert got == np.isfinite(a).all()


@given(
    arrays(
        float,
        st.tuples(st.integers(1, 6), st.integers(1, 64)),
        elements=st.floats(-1e3, 1e3) | st.sampled_from([0.0, 5e-324, 1e154, -1.4e154, 1e200, 1.7e308]),
    )
)
def test_state_scale_is_the_row_norm_floored_at_one_and_silent_on_overflow(xs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scales = _state_scales(xs)
    assert scales.shape == (len(xs),)
    with np.errstate(over="ignore"):
        for scale, row in zip(scales, xs):
            assert scale.tobytes() == np.float64(max(1.0, float(np.linalg.norm(row)))).tobytes()


def test_state_scale_of_a_start_whose_norm_overflows_is_inf():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _state_scales(np.array([[1e200, 0.0, 0.0, 1e-200], [3.0, 4.0, 0.0, 0.0]])).tolist() == [np.inf, 5.0]


def test_a_system_declares_its_exact_flow_one_way():
    names = [f.name for f in dataclasses.fields(SystemDefinition)]
    assert names == ["dim", "field", "label", "component_names", "batched", "flow"]
    pair = g_driven_system(0.5)
    assert pair.fields(np.eye(4)).tolist() == [[0, -8, 0, 0], [8, 0, 0, 0], [0, 0, 0, -8], [0, 0, 8, 0]]
    quarter_turn = pair.flow(np.array([1.0, 0.0, 0.0, 1.0]), np.array([np.pi / 16]))  # clockwise at rate 8
    assert np.abs(quarter_turn - [[0.0, -1.0, 1.0, 0.0]]).max() <= 1e-15


def test_a_matrix_is_no_longer_a_way_to_declare_a_flow():
    with pytest.raises(TypeError, match="'matrix'"):
        SystemDefinition(2, lambda x: x, "lin", matrix=np.eye(2))


@pytest.mark.parametrize("flow", ["exp", np.eye(2), 1.0])
def test_declared_flow_must_be_callable(flow):
    with pytest.raises(UsageError, match=r"^flow of 'rot' must be callable, got "):
        SystemDefinition(2, lambda x: x, "rot", flow=flow)


def test_non_finite_state_rejected():
    with pytest.raises(UsageError, match="component 1"):
        as_state([0.0, np.nan])


def test_field_purity_bit_for_bit():
    sys4 = toda.periodic_field(4)
    x = random_states(8, 1, 7)[0]
    a = evaluate_field(sys4, x)
    b = evaluate_field(sys4, x)
    assert np.array_equal(a, b)


def test_conservation_residual_rotational_symmetry_exact():
    sys2 = oscillator.harmonic_oscillator()
    res = conservation_rates(squared_radius(), sys2, [[0.3, -0.8]])
    assert res[0, 0] == 0.0


def test_conservation_residual_nonconserved_probe():
    sys2 = oscillator.harmonic_oscillator()
    probe = ConservedQuantitySet.scalar(
        2, lambda z: z[0], "x1", gradient=lambda z: np.array([1.0, 0.0])
    )
    res = conservation_rates(probe, sys2, [[1.0, 1.0]])
    assert res[0, 0] == pytest.approx(1.0)


def test_conservation_residual_i2_periodic_random():
    sys4 = toda.periodic_field(4)
    q = toda.periodic_invariants(4, (2,))
    xs = random_states(8, 10, 3)
    res = conservation_rates(q, sys4, xs)
    assert np.all(np.abs(res[:, 0]) < 1e-10 * np.maximum(1, np.linalg.norm(xs, axis=1)))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_all_periodic_invariants_conserved_at_random_states(n):
    sys_n = toda.periodic_field(n)
    q = toda.periodic_invariants(n)
    xs = random_states(2 * n, 100, 11 + n)
    res = conservation_rates(q, sys_n, xs)
    assert np.all(np.abs(res).max(axis=1) < 1e-9 * np.maximum(1.0, np.linalg.norm(xs, axis=1)))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_all_nonperiodic_invariants_conserved_at_random_states(n):
    sys_n = toda.nonperiodic_field(n)
    q = toda.nonperiodic_invariants(n)
    xs = random_states(2 * n - 1, 100, 17 + n)
    res = conservation_rates(q, sys_n, xs)
    assert np.all(np.abs(res).max(axis=1) < 1e-9 * np.maximum(1.0, np.linalg.norm(xs, axis=1)))


def test_kepler_invariants_conserved_at_random_states():
    sysk = kepler.kepler_field()
    q = stack_quantities([kepler.hamiltonian(), kepler.angular_momentum(), kepler.combined_invariant(1.0)])
    xs = random_kepler_states(100, 23)
    res = conservation_rates(q, sysk, xs)
    assert np.all(np.abs(res).max(axis=1) < 1e-9 * np.maximum(1.0, np.linalg.norm(xs, axis=1)))


def test_conservation_rates_check_dimension_and_field():
    sys2 = oscillator.harmonic_oscillator()
    with pytest.raises(UsageError, match="quantity dimension 8 != system dimension 2"):
        conservation_rates(toda.periodic_invariants(4, (1,)), sys2, [[0.3, -0.8]])
    with pytest.raises(UsageError, match="shape"):
        conservation_rates(squared_radius(), sys2, [0.3, -0.8])  # a point, not a stack
    blows = SystemDefinition(2, lambda x: np.array([x[1], np.inf if x[0] > 1 else -x[0]]), "blows")
    with pytest.raises(NumericError, match="field of 'blows' .* component 1 at state 1 of 2"):
        conservation_rates(squared_radius(), blows, [[0.5, 0.0], [2.0, 0.0]])


def test_stack_roundtrip():
    q = toda.periodic_invariants(4)
    assert q.k == 3 and q.labels == ("I1", "I2", "I3")
    xs = random_states(8, 1, 5)
    for i in range(3):
        assert toda.periodic_invariants(4, (i + 1,)).values_many(xs)[0, 0] == q.values_many(xs)[0, i]


def test_stack_dimension_checks():
    with pytest.raises(UsageError):
        stack_quantities([])
    with pytest.raises(UsageError):
        stack_quantities([squared_radius(), toda.periodic_invariants(3, (1,))])


def test_zero_quantity_is_flat():
    z = zero_quantity(5)
    x = random_states(5, 1, 9)[0]
    assert z.values_many(x[None])[0, 0] == 0.0
    assert np.array_equal(z.analytic_gradient(x), np.zeros((1, 5)))


def test_k_cannot_exceed_dim():
    with pytest.raises(UsageError):
        ConservedQuantitySet(dim=2, k=3, value=lambda x: np.zeros(3), labels=("a", "b", "c"))


def test_float_serialization_roundtrip():
    values = random_states(50, 1, 31)[0] * np.pi
    text = [format_float(v) for v in values]
    back = np.array([float(s) for s in text])
    assert np.array_equal(back, values)
    assert format_float(0.1) == "0.10000000000000001"


PUBLIC_NAMES = [
    "__version__",
    "ConservedQuantitySet", "SystemDefinition", "as_state", "conservation_rates", "evaluate_field",
    "stack_quantities",
    "jacobians",
    "InvarsetsError", "UsageError", "NumericError", "IntegrationError",
    "Trajectory", "DriftReport", "IntegratorStats", "IntegratorSettings", "flow_adaptive", "monitor_drift",
    "RankDecisions", "SetMemberships", "rank_levels", "vanishing_memberships",
    "InvarianceReport", "verify_rank_invariance", "verify_vanishing_invariance",
    "verify_set_persistence", "verify_critical_invariance",
    "GradientDrivenSystem", "agreement_residual", "assemble_system", "verify_coincidence",
    "canonical_symplectic_matrix",
]


def test_public_surface_is_the_stacked_api():
    # growing the surface is a deliberate edit of this list
    import invarsets

    assert len(PUBLIC_NAMES) == 32
    assert invarsets.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(invarsets, name), name


VERIFIERS = {
    "rank-invariance": invariance.verify_rank_invariance,
    "critical-invariance": invariance.verify_critical_invariance,
    "n-invariance": invariance.verify_vanishing_invariance,
    "set-persistence": invariance.verify_set_persistence,
    "coincidence": coincidence.verify_coincidence,
}
OWN_KEYWORDS = {"order", "quantity", "batched", "flows"}


@pytest.mark.parametrize("fn", [*VERIFIERS.values(), integrate.flow_adaptive], ids=lambda fn: fn.__name__)
def test_verifiers_and_the_integrator_share_one_signature(fn):
    # subject, x0 and t_end by position; the check's own keys, then integ
    # and tolerances, by keyword only; no setting under a second name
    params = inspect.signature(fn).parameters.values()
    positional = [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
    keyword = [p.name for p in params if p.kind is p.KEYWORD_ONLY]
    assert len(positional) + len(keyword) == len(params)
    assert positional[-2:] == ["x0", "t_end"]
    tail = ["integ"] if fn is integrate.flow_adaptive else ["integ", "tolerances"]
    assert keyword[-len(tail):] == tail
    assert set(keyword[: -len(tail)]) <= OWN_KEYWORDS
    for p in params:
        assert p.name not in ("tol", "abs_tol", "rel_tol", "sample_count") and not p.name.endswith("_tol"), p.name


def _reads(verifier) -> list[str]:
    """The tolerance names ``verifier`` reads, from its unknown-name error,
    which comes before any argument is looked at."""
    params = inspect.signature(verifier).parameters.values()
    args = [None for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
    required = {p.name: None for p in params if p.kind is p.KEYWORD_ONLY and p.default is p.empty}
    with pytest.raises(UsageError, match='unknown tolerance "_"; this check reads ') as err:
        verifier(*args, **required, tolerances={"_": 1.0})
    return str(err.value).split("reads ")[1].split(", ")


SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SCENARIOS = {
    "rank-invariance": "toda-periodic-rank-pattern.json",
    "critical-invariance": "toda-periodic-critical-pattern.json",
    "n-invariance": "toda-periodic-vanishing-M0I3.json",
    "set-persistence": "toda-periodic-persist-M1I13.json",
    "coincidence": "kepler-circular-coincidence.json",
}


@pytest.mark.parametrize("check", list(VERIFIERS))
def test_each_check_reads_its_verifiers_tolerances_and_defaults(check, monkeypatch):
    names = _reads(VERIFIERS[check])
    config = json.loads((SCENARIO_DIR / SCENARIOS[check]).read_text())
    config.pop("tolerances", None)
    s = report._read(config)
    assert config["check"] == check
    # the scenario's defaults are the verifier's: one table
    assert s.tol == _tolerances(None, tuple(names)) == {name: TOLERANCES[name] for name in names}
    seen = []

    def spy(given, reads):
        seen.append((given, reads))
        return _tolerances(given, reads)

    monkeypatch.setattr(invariance, "_tolerances", spy)
    monkeypatch.setattr(coincidence, "_tolerances", spy)
    report.run_scenario(config)
    assert seen == [(s.tol, tuple(names))]
