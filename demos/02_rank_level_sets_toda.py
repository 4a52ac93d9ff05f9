"""Rank-level sets of the lattice invariants and their flow invariance.

The Jacobian of the stack (I1, I2, I3) has full rank 3 at a generic state
of the periodic 4-lattice, but exactly rank 2 on the alternating family
(X1, X2, X1, X2, u1, u2, u1, u2).  Because the stack is conserved, the
rank classification cannot change along a trajectory; this script
certifies that numerically, for both the degenerate family and a generic
start, and then tours the explicit families with their nominal ranks.
"""

import numpy as np

from invarsets import rank_levels, verify_rank_invariance, verify_set_persistence
from invarsets import toda

n = 4
system = toda.periodic_field(n)
stack = toda.periodic_invariants(n)

pattern = toda.explicit_set_sample("M2_I123", n, {"X1": 0.3, "X2": 0.7, "u1": 0.5, "u2": -0.2})
generic = np.array([0.9, 0.4, 0.7, 1.1, 0.3, -0.5, 0.2, 0.4])

# both starts are classified by one stacked Jacobian and one stacked SVD
decisions = rank_levels(stack, np.array([pattern, generic]))
starts = (("alternating family", pattern), ("generic state", generic))
for (name, x0), rank, margin in zip(starts, decisions.ranks, decisions.margins):
    print(f"{name}: rank {rank}, margin {margin:.1e}")
    report = verify_rank_invariance(system, stack, x0, t_end=10.0)
    print(f"  along the flow: {report.verdict} ({report.message})")
    print(f"  invariant drift: {report.drift.worst:.2e}")

print()
print("=== explicit families and their nominal ranks ===")
even_params = {
    "M0_I3": {"X1": 0.0, "u": 0.8},
    "M1_I13": {"X1": 0.4, "X2": 0.9, "u": 0.6},
    "M1_I23": {"X1": -0.16, "u1": -0.4, "u2": 0.4},
    "M2_I123": {"X1": 0.3, "X2": 0.7, "u1": 0.5, "u2": -0.2},
}
for set_id, params in even_params.items():
    x0 = toda.explicit_set_sample(set_id, n, params)
    quantity = toda.explicit_set_quantity(set_id, n)
    rank = rank_levels(quantity, x0[None]).ranks[0]
    nominal = toda.EXPLICIT_SETS[set_id].rank
    report = verify_set_persistence(
        system,
        lambda s, _id=set_id: toda.explicit_set_residual(_id, n, s),
        x0,
        t_end=10.0,
        tolerances={"residual": 1e-7},
    )
    print(
        f"{set_id}: rank {rank} (nominal {nominal}); persistence "
        f"{report.verdict}, max residual {report.worst_value:.2e}"
    )

print()
print("=== provably empty families ===")
for set_id in ("M0_I1", "M0_I12", "M1_I123"):
    desc = toda.EXPLICIT_SETS[set_id]
    print(f"{set_id}: empty because {desc.empty_reason}")

print()
print("=== reduced two-particle dynamics on the largest family ===")
red = toda.reduced_dynamics("M2_I123")
z0 = np.array([0.3, 0.7, 0.5, -0.2])
print("reduced field at", z0, "->", red.system.field(z0))
lifted = red.lift(z0, n)
print("lift to n=4:", lifted)
print("restrict(lift) == original:", np.array_equal(red.restrict(lifted), z0))
