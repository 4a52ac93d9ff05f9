"""The batch contract: a stack of states gives, row by row and bit for bit,
what the single-state calls give, and keeps every check they make."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from invarsets import (
    ConservedQuantitySet,
    NumericError,
    SystemDefinition,
    UsageError,
    conservation_rates,
    flow_adaptive,
    monitor_drift,
    stack_quantities,
)
from invarsets.core import _conservation_rates, as_states, evaluate_field
from invarsets.differentiate import jacobians
from invarsets.rank_sets import DEFAULT_RANK_TOL, _decide, rank_levels, singular_values
from invarsets import kepler, oscillator, report, toda
from invarsets.coincidence import assemble_system, canonical_symplectic_matrix

from conftest import random_kepler_states, random_toda_physical, zero_quantity

FINITE = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
SETTINGS = settings(max_examples=30, deadline=None)


def _stack(dim):
    return arrays(np.float64, st.tuples(st.integers(1, 12), st.just(dim)), elements=FINITE)


def _point_floor_rank(quantity, x, rel_tol):
    """The single-state rank rule written out with np.linalg.norm."""
    floor = rel_tol * max(1.0, float(np.linalg.norm(x)))
    return _decide(jacobians(quantity, x[None]), rel_tol, np.array([floor]))


def assert_same_decision(decisions, i, single):
    """Row ``i`` of ``decisions`` is, bit for bit, the decision of a stack of one."""
    for field in ("ranks", "margins"):
        assert getattr(decisions, field)[i].tobytes() == getattr(single, field)[0].tobytes()


def assert_same_singular_values(matrices, i, single):
    """Row ``i`` of the stacked SVD of ``matrices`` is, bit for bit, the SVD
    of the stack of one ``single``: with the rule max(rel_tol * sigma_1,
    rel_tol * max(1, |x|)), equal thresholds follow."""
    assert singular_values(matrices)[i].tobytes() == singular_values(single)[0].tobytes()


def assert_rows_match_points(quantity, xs, rel_tol=DEFAULT_RANK_TOL):
    values = quantity.values_many(xs)
    J = jacobians(quantity, xs)
    decisions = rank_levels(quantity, xs, rel_tol)
    assert values.shape == (len(xs), quantity.k)
    assert J.shape == (len(xs), quantity.k, quantity.dim)
    assert decisions.ranks.shape == (len(xs),)
    for i, x in enumerate(xs):
        point = np.array(x)  # a fresh 1-D state, not a view of the stack
        assert np.array_equal(values[i], quantity.values_many(point[None])[0])
        assert np.array_equal(values[i], np.asarray(quantity.value(point)).ravel())
        assert np.array_equal(J[i], jacobians(quantity, point[None])[0])
        if quantity.analytic_gradient is not None:
            assert np.array_equal(J[i], quantity.analytic_gradient(point))
        assert_same_decision(decisions, i, rank_levels(quantity, point[None], rel_tol))
        assert_same_decision(decisions, i, _point_floor_rank(quantity, point, rel_tol))
        assert_same_singular_values(J, i, jacobians(quantity, point[None]))


@SETTINGS
@given(n=st.integers(2, 8), data=st.data())
def test_periodic_stack_equals_points(n, data):
    xs = data.draw(_stack(2 * n))
    for degrees in ((1, 2, 3), (3,), (1, 3), (2, 3)):
        assert_rows_match_points(toda.periodic_invariants(n, degrees), xs)


@SETTINGS
@given(n=st.integers(2, 6), data=st.data())
def test_nonperiodic_stack_equals_points(n, data):
    xs = data.draw(_stack(2 * n - 1))
    for degrees in ((1, 2, 3), (3,), (2, 3)):
        if max(degrees) <= n:
            assert_rows_match_points(toda.nonperiodic_invariants(n, degrees), xs)


@SETTINGS
@given(
    n=st.integers(2, 8),
    params=st.lists(st.tuples(FINITE, FINITE, FINITE, FINITE), min_size=1, max_size=8),
)
def test_rank2_family_stack_equals_points(n, params):
    if n % 2:
        rows = [{"X": a, "u": b} for a, b, _, _ in params]
    else:
        rows = [{"X1": a, "X2": b, "u1": c, "u2": d} for a, b, c, d in params]
    xs = np.array([toda.explicit_set_sample("M2_I123", n, p) for p in rows])
    q = toda.periodic_invariants(n)
    assert_rows_match_points(q, xs)


def test_rank2_family_samples_classify_rank_two_in_one_call():
    rng = np.random.default_rng(3)
    for n in (4, 6, 8):
        xs = np.array([
            toda.explicit_set_sample(
                "M2_I123", n, dict(zip(("X1", "X2", "u1", "u2"), rng.uniform(0.2, 1.0, 4)))
            )
            for _ in range(20)
        ])
        assert np.all(rank_levels(toda.periodic_invariants(n), xs).ranks == 2)


@SETTINGS
@given(xs=_stack(2))
def test_point_only_quantity_runs_through_the_row_loop(xs):
    calls = []

    def value(x):
        calls.append(x.shape)
        return np.array([x[0] ** 2 + x[1] ** 2])

    q = ConservedQuantitySet(
        dim=2, k=1, value=value, labels=("r2",),
        analytic_gradient=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
    )
    assert not q.batched
    assert_rows_match_points(q, xs)
    calls.clear()
    q.values_many(xs)
    assert calls == [(2,)] * len(xs)  # one call per state, each a 1-D point


@SETTINGS
@given(xs=_stack(3))
def test_finite_difference_stack_equals_points(xs):
    fd_only = ConservedQuantitySet(
        dim=3, k=2, value=lambda x: np.array([x[0] * x[1], np.sin(x[2])]), labels=("a", "b")
    )
    J = jacobians(fd_only, xs)
    for i, x in enumerate(xs):
        assert np.array_equal(J[i], jacobians(fd_only, np.array(x)[None])[0])


def assert_rates_match_points(system, quantity, xs):
    rates = _conservation_rates(quantity, xs, system.fields(xs))
    assert rates.shape == (len(xs), quantity.k)
    for i, x in enumerate(xs):
        point = np.array(x)
        assert rates[i].tobytes() == conservation_rates(quantity, system, point[None])[0].tobytes()
        # the pointwise formula the stacked rate replaced
        expected = (jacobians(quantity, point[None])[0] * evaluate_field(system, point)).sum(axis=1)
        assert rates[i].tobytes() == expected.tobytes()


@SETTINGS
@given(n=st.integers(2, 8), data=st.data())
def test_stacked_conservation_rates_equal_conservation_residual(n, data):
    periodic = toda.periodic_field(n)
    xs = data.draw(_stack(2 * n))
    for degrees in ((1, 2, 3), (3,), (1, 3), (2, 3)):
        assert_rates_match_points(periodic, toda.periodic_invariants(n, degrees), xs)
    free_end = toda.nonperiodic_field(n)
    xs = data.draw(_stack(2 * n - 1))
    for degrees in ((1, 2, 3), (3,), (2, 3)):
        if max(degrees) <= n:
            assert_rates_match_points(free_end, toda.nonperiodic_invariants(n, degrees), xs)
    point_only = ConservedQuantitySet(
        dim=2, k=1, value=lambda x: np.array([x[0] ** 2 + x[1] ** 2]), labels=("r2",),
        analytic_gradient=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
    )
    assert_rates_match_points(oscillator.harmonic_oscillator(), point_only, data.draw(_stack(2)))
    fd_only = ConservedQuantitySet(
        dim=3, k=2, value=lambda x: np.array([x[0] * x[1], np.sin(x[2])]), labels=("a", "b")
    )
    spin = SystemDefinition(3, lambda x: np.array([-x[1], x[0], 0.5 * x[2]]), "spin")
    assert_rates_match_points(spin, fd_only, data.draw(_stack(3)))


def test_stacked_kepler_conservation_rates_equal_conservation_residual():
    pair = stack_quantities([kepler.hamiltonian(), kepler.angular_momentum()])
    assert_rates_match_points(kepler.kepler_field(), pair, random_kepler_states(8, 8))


def test_declared_support_and_stacking():
    assert toda.henon_closed_form(4, 3).batched
    assert toda.flaschka_invariant(5, 2).batched
    assert not toda.flaschka_invariant(5, 4).batched  # trace route
    assert toda.henon_invariant_oracle(4, 2).batched  # same products on the last axis
    assert not zero_quantity(3).batched
    assert toda.periodic_invariants(4).batched
    point_only = ConservedQuantitySet.scalar(6, lambda z: z[0] * z[3] - z[5], "x1x4-x6")
    mixed = stack_quantities([toda.henon_closed_form(3, 1), point_only])
    assert not mixed.batched
    xs = np.random.default_rng(4).standard_normal((5, 6))
    assert_rows_match_points(mixed, xs)


def _linear(gradient, batched=False):
    G = np.asarray(gradient, dtype=float)
    k, dim = G.shape
    return ConservedQuantitySet(
        dim=dim, k=k, value=lambda x: x @ G.T, labels=tuple(f"L{i}" for i in range(k)),
        analytic_gradient=lambda x: np.broadcast_to(G, np.shape(x)[:-1] + G.shape).copy(),
        batched=batched,
    )


STATES = np.array([[0.1, 0.2], [0.6, -0.7], [3.0, 4.0], [0.0, 0.0]])


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize(
    "gradient,rank",
    [
        (np.zeros((2, 2)), 0),  # zero guard: rank 0, margin inf
        (np.diag([1.0, 1e-8]), 1),  # sigma_2 exactly at the threshold for |x| <= 1: dropped
        (np.diag([1e-12, 1e-13]), 0),  # floor-dominated: rel_tol * max(1, |x|) decides
        (np.diag([2.0, 0.5]), 2),
    ],
    ids=["zero", "at-threshold", "floor", "generic"],
)
def test_rank_rule_edge_cases_match_numerical_rank(gradient, rank, batched):
    quantity = _linear(gradient, batched)
    decisions = rank_levels(quantity, STATES, 1e-8)
    J = jacobians(quantity, STATES)
    for i, x in enumerate(STATES):
        floor = 1e-8 * max(1.0, float(np.linalg.norm(x)))
        assert_same_decision(decisions, i, _decide(gradient[None], 1e-8, np.array([floor])))
        assert_same_singular_values(J, i, gradient[None])
    assert np.all(decisions.ranks == rank)
    if not gradient.any():
        assert np.all(decisions.margins == np.inf)
    if gradient[1, 1] == 1e-8:
        # the rule max(rel_tol * sigma_1, rel_tol * max(1, |x|)) at |x| <= 1
        sigma = singular_values(J)[0]
        assert max(1e-8 * sigma[0], 1e-8 * max(1.0, float(np.linalg.norm(STATES[0])))) == 1e-8
        assert sigma[1] == 1e-8


def test_rank_levels_rejects_bad_tolerance_and_states():
    q = toda.periodic_invariants(3)
    xs = np.random.default_rng(1).standard_normal((4, 6))
    for tol in (0.0, 1.0, -1e-8):
        with pytest.raises(UsageError, match="rel_tol"):
            rank_levels(q, xs, tol)
    bad = xs.copy()
    bad[2, 4] = np.nan
    with pytest.raises(UsageError, match="state 2 .* component 4"):
        rank_levels(q, bad)
    with pytest.raises(UsageError, match="shape"):
        q.values_many(xs[0])  # a 1-D point is not a stack
    with pytest.raises(UsageError, match="shape"):
        jacobians(q, xs[:, :5])
    with pytest.raises(UsageError):
        as_states(np.empty((0, 6)), 6)


def test_svd_non_convergence_is_a_numeric_error(monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", broken)
    q = toda.periodic_invariants(3)
    with pytest.raises(NumericError, match="converge"):
        rank_levels(q, np.ones((3, 6)))
    with pytest.raises(NumericError, match="converge"):
        _decide(np.eye(2)[None], DEFAULT_RANK_TOL, np.array([0.0]))


def _batched_gradient_quantity(gradient):
    return ConservedQuantitySet(
        dim=2, k=1, value=lambda x: x[..., :1], labels=("g",),
        analytic_gradient=gradient, batched=True,
    )


def test_wrong_shape_batched_gradient_is_a_usage_error():
    q = _batched_gradient_quantity(lambda x: np.zeros(np.shape(x)[:-1] + (2,)))  # k axis missing
    with pytest.raises(UsageError, match="analytic gradient of 'g' returned shape"):
        jacobians(q, np.ones((3, 2)))
    with pytest.raises(UsageError, match="analytic gradient of 'g' returned shape"):
        jacobians(q, np.ones((1, 2)))
    with pytest.raises(UsageError, match="analytic gradient"):
        rank_levels(q, np.ones((3, 2)))


def test_non_finite_batched_gradient_is_a_numeric_error():
    def gradient(x):
        g = np.ones(np.shape(x)[:-1] + (1, 2))
        g[..., 0, 1] = np.where(x[..., 0] > 1.0, np.inf, 1.0)
        return g

    q = _batched_gradient_quantity(gradient)
    xs = np.array([[0.0, 0.0], [0.5, 0.0], [2.0, 0.0]])
    with pytest.raises(NumericError, match="non-finite at state 2 of 3"):
        jacobians(q, xs)
    with pytest.raises(NumericError, match="non-finite at state 0 of 1"):
        jacobians(q, xs[2:])
    assert np.array_equal(jacobians(q, xs[:2]), np.ones((2, 1, 2)))


def test_non_finite_and_wrong_shape_values_keep_their_errors():
    q = ConservedQuantitySet(dim=2, k=1, value=lambda x: np.log(x[..., :1]), labels=("log",),
                             batched=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="non-finite at state 1 of 2"):
            q.values_many(np.array([[1.0, 0.0], [0.0, 0.0]]))
    wrong = ConservedQuantitySet(dim=2, k=1, value=lambda x: x, labels=("w",), batched=True)
    with pytest.raises(UsageError, match="quantity 'w' returned shape"):
        wrong.values_many(np.ones((3, 2)))
    with pytest.raises(UsageError, match="quantity 'w' returned shape"):
        wrong.values_many(np.ones((1, 2)))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 64), data=st.data())
def test_periodic_field_equals_roll_formula(n, data):
    z = data.draw(arrays(np.float64, 2 * n, elements=FINITE))
    X, u = z[:n], z[n:]
    rolled = np.concatenate([X * (u - np.roll(u, -1)), np.roll(X, 1) - X])
    assert np.array_equal(toda.periodic_field(n).field(z), rolled)


def test_monitor_drift_equals_per_sample_values():
    q = toda.periodic_invariants(4)
    x0 = toda.explicit_set_sample("M2_I123", 4, {"X1": 0.6, "X2": 0.9, "u1": 0.3, "u2": -0.2})
    traj = flow_adaptive(toda.periodic_field(4), x0, 2.0, sample_count=41)
    drift = monitor_drift(traj, q)
    values = np.array([q.values_many(s[None])[0] for s in traj.states])
    expected = np.abs(values - values[0]).max(axis=0)
    assert np.array_equal(drift.max_drift, expected)


def _systems():
    """Every system built in src, each with a seeded stack of states."""
    rng = np.random.default_rng(8)
    block = canonical_symplectic_matrix(2)
    pair = stack_quantities([kepler.hamiltonian(), kepler.angular_momentum()])
    kepler_states = random_kepler_states(5, 8)
    systems = [(toda.periodic_field(n), random_toda_physical(n, 5, n)) for n in (2, 3, 8)]
    systems += [(toda.nonperiodic_field(n), rng.standard_normal((5, 2 * n - 1))) for n in (2, 3, 6)]
    systems += [
        (kepler.kepler_field(), kepler_states),
        (kepler.linear_pair_field(0.9), kepler_states),
        (oscillator.harmonic_oscillator(), rng.standard_normal((5, 2))),
        (toda.reduced_dynamics("M2_I123").system, rng.standard_normal((5, 4))),
        (toda.reduced_dynamics("M2_F123").system, rng.standard_normal((5, 3))),
    ]
    driven = [
        assemble_system(lambda x, g: block @ g, kepler.hamiltonian()),  # the analytic point path
        assemble_system(lambda x, g: block @ g, kepler.linear_pair_hamiltonian(1.3)),
        assemble_system(lambda x, s: s[:4] - s[4:], pair),
        assemble_system(lambda x, s: block @ s[:4], kepler.hamiltonian(), 2),  # a batch of one
    ]
    # the coincidence check's bases, one base call per stack
    driven += [
        assemble_system(report._symplectic_base, q, label=f"batched-base[{q.labels[0]}]", batched=True)
        for q in (kepler.hamiltonian(), kepler.linear_pair_hamiltonian(1.5))
    ]
    return systems + [(d.system, kepler_states) for d in driven]


@pytest.mark.parametrize("system,xs", _systems(), ids=lambda v: getattr(v, "label", ""))
def test_every_system_is_batched_and_its_stacked_rows_equal_point_rows(system, xs):
    assert system.batched
    points = np.array([system.field(np.array(x)) for x in xs])
    for stack in (xs[:1], xs):
        rows = system.fields(stack)
        assert rows.shape == stack.shape
        assert rows.tobytes() == points[: len(stack)].tobytes()
    stacked = np.asarray(system.field(xs.reshape(1, len(xs), -1)))  # more than one leading axis
    assert stacked.shape == (1,) + xs.shape
    assert stacked.tobytes() == points.tobytes()


def test_undeclared_field_is_called_once_per_row():
    calls = []

    def field(z):
        calls.append(z.shape)
        return np.array([z[1], -z[0]])

    rows = SystemDefinition(2, field, "rotation").fields(np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]]))
    assert calls == [(2,)] * 3
    assert np.array_equal(rows, [[0.0, -1.0], [2.0, -0.0], [4.0, -3.0]])
