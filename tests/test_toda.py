import re

import numpy as np
import pytest

from invarsets import UsageError, conservation_rates, evaluate_field, jacobians, rank_levels
from invarsets import toda

from conftest import random_states, trace_quantity


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def test_periodic_field_small_lattice():
    out = evaluate_field(toda.periodic_field(2), [1.0, 0.0, 1.0, -1.0])
    assert np.array_equal(out, [2.0, 0.0, -1.0, 1.0])


def test_periodic_field_rejects_tiny_n():
    with pytest.raises(UsageError):
        toda.periodic_field(1)


def test_nonperiodic_field_small_lattice():
    out = evaluate_field(toda.nonperiodic_field(2), [1.0, 0.0, 0.0])
    assert np.array_equal(out, [0.0, -1.0, 1.0])


def test_nonperiodic_field_pattern_state():
    X, u1, u2 = 0.5, 0.2, -0.1
    out = evaluate_field(toda.nonperiodic_field(4), [X, 0.0, X, u1, u2, u1, u2])
    expected = [X * (u1 - u2), 0.0, X * (u1 - u2), -X, X, -X, X]
    assert np.allclose(out, expected, rtol=0, atol=0)


def test_nonperiodic_zero_couplings_freeze_velocities():
    out = evaluate_field(toda.nonperiodic_field(5), [0, 0, 0, 0, 0.3, -0.2, 0.9, 0.1, -0.5])
    assert np.array_equal(out, np.zeros(9))


# ---------------------------------------------------------------------------
# periodic invariants
# ---------------------------------------------------------------------------


def test_enumeration_matches_stated_values():
    z3 = np.array([[1.0, 1.0, 1.0, 1.0, 2.0, 3.0]])
    assert toda.henon_invariant_oracle(3, 1).values_many(z3)[0, 0] == pytest.approx(6.0)
    assert toda.henon_invariant_oracle(3, 2).values_many(z3)[0, 0] == pytest.approx(8.0)
    z4 = np.ones((1, 8))
    assert toda.henon_invariant_oracle(4, 3).values_many(z4)[0, 0] == pytest.approx(-4.0)


def test_enumeration_guards():
    with pytest.raises(UsageError):
        toda.henon_invariant_oracle(9, 1)
    with pytest.raises(UsageError):
        toda.henon_invariant_oracle(4, 0)
    with pytest.raises(UsageError):
        toda.henon_invariant_oracle(4, 5)
    with pytest.raises(UsageError):
        toda.periodic_invariants(4, (4,))
    # I3 vanishes identically on two sites, so its closed form is refused there too
    with pytest.raises(UsageError, match=re.escape("1 <= m <= n, got m=3")):
        toda.periodic_invariants(2, (1, 2, 3))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_closed_forms_equal_enumeration(n, m):
    closed = toda.periodic_invariants(n, (m,))
    enum = toda.henon_invariant_oracle(n, m)
    xs = random_states(2 * n, 100, 100 * n + m)
    for a, b in zip(closed.values_many(xs)[:, 0], enum.values_many(xs)[:, 0]):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_high_degree_enumerated_invariants_are_conserved():
    # degrees beyond the closed forms still conserve (finite-difference gradients)
    for n, m in ((4, 4), (5, 4), (5, 5)):
        sys_n = toda.periodic_field(n)
        q = toda.henon_invariant_oracle(n, m)
        xs = random_states(2 * n, 5, 7 * n + m)
        res = conservation_rates(q, sys_n, xs)[:, 0]
        assert np.all(np.abs(res) < 1e-7 * np.maximum(1.0, np.linalg.norm(xs, axis=1)))


def test_i2_closed_form_value():
    z = np.array([[1.0, 1.0, 1.0, 1.0, 2.0, 3.0]])
    assert toda.periodic_invariants(3, (2,)).values_many(z)[0, 0] == pytest.approx(8.0)


def test_gradient_i2_at_uniform_state():
    g = jacobians(toda.periodic_invariants(3, (2,)), np.ones((1, 6)))[0]
    assert np.array_equal(g, [[-1, -1, -1, 2, 2, 2]])


# ---------------------------------------------------------------------------
# non-periodic invariants and the commutator form
# ---------------------------------------------------------------------------


def test_flaschka_closed_form_equals_trace():
    z = np.array([1.0, 2.0, 1.0, 2.0, 3.0])
    q2 = toda.nonperiodic_invariants(3, (2,))
    assert q2.values_many(z[None])[0, 0] == pytest.approx(10.0)
    assert toda.trace_invariant_value(3, 2, z) == pytest.approx(10.0)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_trace_equality_at_random_states(n, k):
    q = toda.nonperiodic_invariants(n, (k,))
    xs = random_states(2 * n - 1, 100, 200 * n + k)
    for a, x in zip(q.values_many(xs)[:, 0], xs):
        b = toda.trace_invariant_value(n, k, x)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_flaschka_above_closed_forms_uses_trace():
    q4 = trace_quantity(4, 4)
    zs = random_states(7, 1, 61)
    assert q4.values_many(zs)[0, 0] == pytest.approx(toda.trace_invariant_value(4, 4, zs[0]))
    sys4 = toda.nonperiodic_field(4)
    assert abs(conservation_rates(q4, sys4, zs)[0, 0]) < 1e-7 * max(1.0, np.linalg.norm(zs[0]))


def test_flaschka_guards():
    with pytest.raises(UsageError):
        toda.nonperiodic_invariants(4, (0,))
    with pytest.raises(UsageError):
        toda.nonperiodic_invariants(4, (5,))


def test_degrees_above_the_closed_forms_name_the_oracle_routes():
    with pytest.raises(UsageError, match="henon_invariant_oracle"):
        toda.periodic_invariants(4, (4,))
    with pytest.raises(UsageError, match="trace_invariant_value"):
        toda.nonperiodic_invariants(4, (4,))
    # each lattice builds its invariants one way
    assert not hasattr(toda, "henon_closed_form") and not hasattr(toda, "flaschka_invariant")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lax_commutator_residual_vanishes(n):
    for x in random_states(2 * n - 1, 20, 71 + n):
        assert toda.lax_commutator_residual(n, x) < 1e-12
    # zero couplings: both sides vanish identically
    x = np.concatenate([np.zeros(n - 1), random_states(n, 1, 73)[0]])
    assert toda.lax_commutator_residual(n, x) == 0.0


def test_lax_matrix_shapes():
    L, B = toda.lax_matrices(4, random_states(7, 1, 79)[0])
    assert L.shape == (4, 4) and B.shape == (4, 4)
    assert np.array_equal(np.tril(B), np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# explicit families: residuals, samplers, classification
# ---------------------------------------------------------------------------

EVEN_SAMPLE_PARAMS = {
    "M0_I3": {"X1": 0.0, "u": 0.8},
    "M1_I13": {"X1": 0.4, "X2": 0.9, "u": 0.6},
    "M1_I23": {"X1": -0.16, "u1": -0.4, "u2": 0.4},
    "M2_I123": {"X1": 0.3, "X2": 0.7, "u1": 0.5, "u2": -0.2},
    "M0_F3": {"u": -0.6},
    "M1_F13": {"X": 0.5, "u": 0.6},
    "M1_F23": {"u1": 0.3, "u2": 0.2},
    "M2_F123": {"X": 0.5, "u1": 0.2, "u2": -0.1},
}

ODD_SAMPLE_PARAMS = {
    "M0_I3": {},
    "M1_I13": {"X": 0.7},
    "M1_I23": {"u": 0.4},
    "M2_I123": {"X": 0.6, "u": 0.3},
    "M0_F3": {},
    "M1_F13": {},
    "M1_F23": {"u1": 0.7},
    "M2_F123": {"u1": 0.5, "u2": -0.3},
}


def _n_for(set_id, even):
    return (4 if even else 5)


@pytest.mark.parametrize("set_id", sorted(EVEN_SAMPLE_PARAMS))
@pytest.mark.parametrize("even", [True, False])
def test_samples_lie_on_their_family(set_id, even):
    n = _n_for(set_id, even)
    params = (EVEN_SAMPLE_PARAMS if even else ODD_SAMPLE_PARAMS)[set_id]
    x = toda.explicit_set_sample(set_id, n, params)
    assert toda.explicit_set_residual(set_id, n, x) < 1e-15


def test_sample_examples_match_stated_states():
    x = toda.explicit_set_sample("M1_I23", 5, {"u": 0.4})
    assert np.allclose(x, [-0.32] * 5 + [0.4] * 5)
    x = toda.explicit_set_sample("M2_F123", 4, {"X": 0.5, "u1": 0.2, "u2": -0.1})
    assert np.array_equal(x, [0.5, 0.0, 0.5, 0.2, -0.1, 0.2, -0.1])
    x = toda.explicit_set_sample("M1_I13", 4, {"X1": 0.4, "X2": 0.9, "u": 0.6})
    assert np.array_equal(x, [0.4, 0.9, 0.4, 0.9, 0.6, -0.6, 0.6, -0.6])
    x = toda.explicit_set_sample("M1_F23", 5, {"u1": 0.7})
    assert np.array_equal(x, [0, 0, 0, 0, 0.7, 0, 0.7, 0, 0.7])


# every sampling alternative, even ones at n = 4 and odd ones at n = 5, with
# dyadic parameters so that each state is exact
SAMPLER_CASES = [
    ("M0_I3", 4, {"X1": 0.25, "u": 0.5}, [0.25, -0.5, 0.25, -0.5, 0.5, -0.5, 0.5, -0.5]),
    ("M1_I13", 4, {"X1": 0.25, "X2": 0.75, "u": 0.5}, [0.25, 0.75, 0.25, 0.75, 0.5, -0.5, 0.5, -0.5]),
    ("M1_I23", 4, {"X1": 0.125, "u1": 0.5, "u2": 0.25}, [0.125, -0.5625] * 2 + [0.5, 0.25] * 2),
    ("M2_I123", 4, {"X1": 0.25, "X2": 0.75, "u1": 0.5, "u2": -0.25}, [0.25, 0.75] * 2 + [0.5, -0.25] * 2),
    ("M0_F3", 4, {"u": 0.5}, [-0.25, 0.0, -0.25, 0.5, -0.5, 0.5, -0.5]),
    ("M1_F13", 4, {"X": 0.75, "u": 0.5}, [0.75, 0.0, 0.75, 0.5, -0.5, 0.5, -0.5]),
    ("M1_F23", 4, {"u1": 0.5, "u2": 0.25}, [0.125, 0.0, 0.125, 0.5, 0.25, 0.5, 0.25]),
    ("M2_F123", 4, {"X": 0.75, "u1": 0.5, "u2": -0.25}, [0.75, 0.0, 0.75, 0.5, -0.25, 0.5, -0.25]),
    ("M0_I3", 5, {}, [0.0] * 10),
    ("M1_I13", 5, {"X": 0.75}, [0.75] * 5 + [0.0] * 5),
    ("M1_I23", 5, {"u": 0.5}, [-0.5] * 5 + [0.5] * 5),
    ("M2_I123", 5, {"X": 0.75, "u": 0.5}, [0.75] * 5 + [0.5] * 5),
    ("M0_F3", 5, {}, [0.0] * 9),
    ("M1_F13", 5, {}, [0.0] * 9),
    ("M1_F23", 5, {"u1": 0.5}, [0.0] * 4 + [0.5, 0.0, 0.5, 0.0, 0.5]),
    ("M1_F23", 5, {"u2": 0.5}, [0.0] * 4 + [0.0, 0.5, 0.0, 0.5, 0.0]),
    ("M2_F123", 5, {"u1": 0.5, "u2": -0.25}, [0.0] * 4 + [0.5, -0.25, 0.5, -0.25, 0.5]),
]


@pytest.mark.parametrize("set_id, n, params, expected", SAMPLER_CASES)
def test_every_sampler_alternative_gives_its_literal_state(set_id, n, params, expected):
    x = toda.explicit_set_sample(set_id, n, params)
    assert x.dtype == np.float64
    assert np.array_equal(x, expected)
    assert np.array_equal(np.signbit(x), np.signbit(expected))
    assert toda.explicit_set_residual(set_id, n, x) == 0.0


def test_every_family_samples_both_parities_and_every_alternative_is_pinned():
    non_empty = [d.set_id for d in toda.EXPLICIT_SETS.values() if not d.empty]
    covered = {(set_id, n % 2) for set_id, n, _, _ in SAMPLER_CASES}
    assert covered == {(set_id, parity) for set_id in non_empty for parity in (0, 1)}
    alternatives = sum(len(toda._SAMPLERS[set_id][parity]) for set_id in non_empty for parity in (0, 1))
    assert len(SAMPLER_CASES) == alternatives == 17


def test_catalogue_rows_in_order():
    rows = [(d.set_id, d.lattice, d.rank, d.degrees, d.empty) for d in toda.EXPLICIT_SETS.values()]
    assert rows == [
        ("M0_I3", "periodic", 0, (3,), False),
        ("M1_I13", "periodic", 1, (1, 3), False),
        ("M1_I23", "periodic", 1, (2, 3), False),
        ("M2_I123", "periodic", 2, (1, 2, 3), False),
        ("M0_F3", "nonperiodic", 0, (3,), False),
        ("M1_F13", "nonperiodic", 1, (1, 3), False),
        ("M1_F23", "nonperiodic", 1, (2, 3), False),
        ("M2_F123", "nonperiodic", 2, (1, 2, 3), False),
        ("M0_I1", "periodic", 0, (1,), True),
        ("M0_I2", "periodic", 0, (2,), True),
        ("M0_I12", "periodic", 0, (1, 2), True),
        ("M1_I12", "periodic", 1, (1, 2), True),
        ("M0_I13", "periodic", 0, (1, 3), True),
        ("M0_I23", "periodic", 0, (2, 3), True),
        ("M0_I123", "periodic", 0, (1, 2, 3), True),
        ("M1_I123", "periodic", 1, (1, 2, 3), True),
        ("M0_F1", "nonperiodic", 0, (1,), True),
        ("M0_F2", "nonperiodic", 0, (2,), True),
        ("M0_F12", "nonperiodic", 0, (1, 2), True),
        ("M1_F12", "nonperiodic", 1, (1, 2), True),
        ("M0_F13", "nonperiodic", 0, (1, 3), True),
        ("M0_F23", "nonperiodic", 0, (2, 3), True),
        ("M0_F123", "nonperiodic", 0, (1, 2, 3), True),
        ("M1_F123", "nonperiodic", 1, (1, 2, 3), True),
    ]
    assert all(bool(d.empty_reason) == d.empty for d in toda.EXPLICIT_SETS.values())


def test_membership_example_even_rank0_family():
    x = np.array([0.1, -0.74, 0.1, -0.74, 0.8, -0.8, 0.8, -0.8])
    assert toda.explicit_set_residual("M0_I3", 4, x) < 1e-15


def test_residual_positive_off_family():
    x = random_states(8, 1, 83)[0]
    assert toda.explicit_set_residual("M2_I123", 4, x) > 1e-3


def test_union_family_takes_nearest_branch():
    b2 = toda.explicit_set_sample("M1_F23", 5, {"u2": -0.9})
    assert np.array_equal(b2, [0, 0, 0, 0, 0, -0.9, 0, -0.9, 0])
    assert toda.explicit_set_residual("M1_F23", 5, b2) == 0.0
    with pytest.raises(UsageError):
        toda.explicit_set_sample("M1_F23", 5, {"u1": 0.1, "u2": 0.2})


def test_empty_families_are_rejected_with_reason():
    with pytest.raises(UsageError, match="provably empty"):
        toda.explicit_set_sample("M0_I1", 4, {})
    with pytest.raises(UsageError, match="never vanishes"):
        toda.explicit_set_residual("M0_I1", 4, np.zeros(8))
    with pytest.raises(UsageError, match="rank >= 2"):
        toda.explicit_set_sample("M1_I123", 4, {})
    with pytest.raises(UsageError, match="unknown explicit set id"):
        toda.explicit_set_residual("M9_I9", 4, np.zeros(8))


def test_sampler_rejects_malformed_params():
    with pytest.raises(UsageError, match="expects parameters"):
        toda.explicit_set_sample("M2_I123", 4, {"X1": 0.1})
    with pytest.raises(UsageError, match="expects parameters"):
        toda.explicit_set_sample("M0_I3", 5, {"u": 0.4})
    with pytest.raises(UsageError, match=r"expects parameters \('u1',\) or \('u2',\)"):
        toda.explicit_set_sample("M1_F23", 5, {})
    full = {"X1": 0.1, "X2": 0.2, "u1": 0.3, "u2": 0.4}
    with pytest.raises(UsageError, match="n >= 2, got n=1"):
        toda.explicit_set_sample("M2_I123", 1, full)
    with pytest.raises(UsageError, match="n >= 2, got n=0"):
        toda.explicit_set_sample("M2_F123", 0, {"X": 0.1, "u1": 0.2, "u2": 0.3})
    with pytest.raises(UsageError, match="n >= 2, got n=4.0"):
        toda.explicit_set_sample("M2_I123", 4.0, full)
    # finite parameters whose sample overflows: a float's ** raises, a
    # product gives inf, and numpy scalars warn
    for params in ({"X1": 1e300, "u1": 1e300, "u2": 0.2}, {"X1": np.float64(1e300), "u1": np.float64(1e300), "u2": 0.2}):
        with pytest.raises(UsageError, match="sample of M1_I23 with parameters .* is not a finite state"):
            toda.explicit_set_sample("M1_I23", 4, params)
    with pytest.raises(UsageError, match="sample of M0_I3 with parameters .* is not a finite state"):
        toda.explicit_set_sample("M0_I3", 4, {"X1": 0.5, "u": 1e200})
    with pytest.raises(UsageError, match="n >= 2, got n=1"):
        toda.explicit_set_residual("M2_I123", 1, np.zeros(2))
    with pytest.raises(UsageError, match="n >= 2, got n=4.0"):
        toda.explicit_set_residual("M2_F123", 4.0, np.zeros(7))


@pytest.mark.parametrize("n", [4.0, True, "4", 1, np.float64(4.0)], ids=repr)
def test_lattice_builders_reject_a_non_integer_n(n):
    for build in (
        toda.periodic_field,
        toda.nonperiodic_field,
        lambda n: toda.explicit_set_quantity("M2_I123", n),
        lambda n: toda.explicit_set_quantity("M2_F123", n),
        lambda n: toda.henon_invariant_oracle(n, 1),
        lambda n: toda.lax_matrices(n, np.ones(7)),
        lambda n: toda.trace_invariant_value(n, 1, np.ones(7)),
        lambda n: toda.lax_commutator_residual(n, np.ones(7)),
    ):
        with pytest.raises(UsageError, match=f"need an integer lattice size n >= 2, got n={re.escape(repr(n))}"):
            build(n)
    # a numpy integer is an integer
    assert toda.periodic_field(np.int64(4)).dim == 8
    assert toda.explicit_set_quantity("M2_F123", np.int32(4)).dim == 7


@pytest.mark.parametrize("set_id", sorted(EVEN_SAMPLE_PARAMS))
@pytest.mark.parametrize("even", [True, False])
def test_samples_classify_to_their_nominal_rank(set_id, even):
    n = _n_for(set_id, even)
    params = (EVEN_SAMPLE_PARAMS if even else ODD_SAMPLE_PARAMS)[set_id]
    x = toda.explicit_set_sample(set_id, n, params)
    quantity = toda.explicit_set_quantity(set_id, n)
    decision = rank_levels(quantity, x[None], 1e-8)
    desc = toda.EXPLICIT_SETS[set_id]
    assert decision.ranks[0] == desc.rank
    assert decision.margins[0] >= 10


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("lattice", ["periodic", "nonperiodic"])
def test_emptiness_probes_never_hit_forbidden_rank(n, lattice):
    dim = 2 * n if lattice == "periodic" else 2 * n - 1
    probes = list(random_states(dim, 300, 1000 + n))
    sample_params = EVEN_SAMPLE_PARAMS if n % 2 == 0 else ODD_SAMPLE_PARAMS
    for set_id, params in sample_params.items():
        if toda.EXPLICIT_SETS[set_id].lattice == lattice:
            probes.append(toda.explicit_set_sample(set_id, n, params))
    for desc in toda.EXPLICIT_SETS.values():
        if not desc.empty or desc.lattice != lattice:
            continue
        quantity = toda.explicit_set_quantity(desc.set_id, n)
        assert np.all(rank_levels(quantity, np.array(probes), 1e-8).ranks != desc.rank), desc.set_id


# ---------------------------------------------------------------------------
# reduced dynamics
# ---------------------------------------------------------------------------


def test_periodic_reduced_field_value():
    red = toda.reduced_dynamics("M2_I123")
    out = evaluate_field(red.system, [0.3, 0.7, 0.5, -0.2])
    assert np.allclose(out, [0.21, -0.49, 0.4, -0.4])


def test_nonperiodic_reduced_field_value():
    red = toda.reduced_dynamics("M2_F123")
    out = evaluate_field(red.system, [1.0, 0.0, 0.0])
    assert np.array_equal(out, [0.0, -1.0, 1.0])


def test_lift_restrict_roundtrip_and_pattern():
    # n = 5 on both lattices: (X0, X1, u0, u1) and (X0, u0, u1)
    restricted = {"M2_I123": [0.0, 1.0, 5.0, 6.0], "M2_F123": [0.0, 4.0, 5.0]}
    cases = [
        ("M2_I123", [0.3, 0.7, 0.5, -0.2], [0.3, 0.7, 0.3, 0.7, 0.5, -0.2, 0.5, -0.2]),
        ("M2_F123", [0.5, 0.2, -0.1], [0.5, 0.0, 0.5, 0.2, -0.1, 0.2, -0.1]),
    ]
    for set_id, z, expected in cases:
        red = toda.reduced_dynamics(set_id)
        z = np.array(z)
        lifted = red.lift(z, 4)
        assert np.array_equal(lifted, expected)
        assert np.array_equal(red.restrict(lifted), z)
        with pytest.raises(UsageError):
            red.lift(z, 5)
        with pytest.raises(UsageError, match=f"dimension {len(z)}"):
            red.lift(np.append(z, 0.0), 4)
        with pytest.raises(UsageError, match=f"dimension {len(z)}"):
            red.lift(z[:-1], 4)
        # restrict takes any lattice size n >= 2, odd n included
        assert np.array_equal(red.restrict(np.arange(float(len(expected) + 2))), restricted[set_id])
    # a state that is no lattice state of the family's kind
    for set_id, size, dimension in (
        ("M2_I123", 7, "2n"), ("M2_I123", 3, "2n"), ("M2_I123", 2, "2n"),
        ("M2_F123", 8, "2n - 1"), ("M2_F123", 1, "2n - 1"),
    ):
        with pytest.raises(UsageError, match=rf"{set_id} restrict needs a \w+ lattice state of dimension {dimension} with n >= 2, got shape \({size},\)"):
            toda.reduced_dynamics(set_id).restrict(np.arange(float(size)))
    with pytest.raises(UsageError, match=r"got shape \(2, 4\)"):
        toda.reduced_dynamics("M2_I123").restrict(np.zeros((2, 4)))


def test_reduced_field_commutes_with_lift_exactly():
    for set_id, dim, n in (("M2_I123", 4, 6), ("M2_F123", 3, 6)):
        red = toda.reduced_dynamics(set_id)
        full = toda.periodic_field(n) if set_id == "M2_I123" else toda.nonperiodic_field(n)
        for z in random_states(dim, 10, 91):
            lifted_tangent = red.lift(evaluate_field(red.system, z), n)
            full_tangent = evaluate_field(full, red.lift(z, n))
            assert np.array_equal(lifted_tangent, full_tangent)


def test_reduced_dynamics_unknown_family():
    with pytest.raises(UsageError):
        toda.reduced_dynamics("M1_I13")

