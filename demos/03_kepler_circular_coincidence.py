"""Solving a nonlinear problem with a linear one, on the right set.

For the planar Kepler field, the gradient of K = H + A/a^3 vanishes
exactly on the clockwise circular orbits of radius a^2.  On that set the
gradients of the energy H and of the quadratic generator -A/a^3 agree, so
the Kepler flow and the linear canonical flow of -A/a^3 carry the same
initial conditions to the same states for all time.  Off the set the two
fields genuinely differ, and the tool reports a hypothesis violation
rather than a verdict.
"""

import numpy as np

from invarsets import (
    agreement_residual,
    canonical_symplectic_matrix,
    rank_levels,
    verify_coincidence,
)
from invarsets import kepler

# J is built once; g @ J.T is J g for one gradient or a stack of them, so
# the base is declared batched and a stack of samples makes one base call.
# Both driven flows are integrated here.  With exact flow maps passed as
# `flows`, as `invarsets run` passes them, neither is: kepler.kepler_flow
# solves Kepler's equation on every orbit with A != 0 and kepler.linear_pair_flow(a)
# is the rotation, clockwise at the rate 1/a^3, and the check ties each
# flow's velocity to its driven field on every sample.
J = canonical_symplectic_matrix(2)
base = lambda x, g: g @ J.T

for a in (1.0, 1.5):
    x0 = kepler.circular_sample(a, theta=0.0)
    period = 2 * np.pi * a**3
    print(f"=== a = {a}: circular start {np.round(x0, 4)}, period {period:.4f} ===")
    print("gradient agreement residual at start:",
          agreement_residual(kepler.hamiltonian(), kepler.linear_pair_hamiltonian(a), x0))
    print("rank of the 1x4 Jacobian of K at start:",
          rank_levels(kepler.combined_invariant(a), x0[None]).ranks[0])
    report = verify_coincidence(
        base,
        kepler.hamiltonian(),
        kepler.linear_pair_hamiltonian(a),
        x0,
        period,
        batched=True,
        tolerances={"deviation": 1e-6},
    )
    print(f"verdict: {report.verdict}")
    print(f"max deviation between the two flows: {report.worst_value:.3e}")
    closure = np.linalg.norm(report.trajectory.final_state - x0)
    print(f"orbit closure after one period: {closure:.3e}")
    closed = verify_coincidence(
        base, kepler.hamiltonian(), kepler.linear_pair_hamiltonian(a), x0, period, batched=True,
        flows=(kepler.kepler_flow, kepler.linear_pair_flow(a)),
    )
    print(f"with both flows exact: {closed.verdict}, max deviation {closed.worst_value:.3e}")
    print()

print("=== control: a start off the circular set ===")
off = np.array([0.0, 2.0, 1.0, 0.0])
report = verify_coincidence(
    base, kepler.hamiltonian(), kepler.linear_pair_hamiltonian(1.0), off, 2 * np.pi, batched=True
)
print("verdict:", report.verdict)
print("message:", report.message)
print(f"recorded deviation (diagnostic): {report.worst_value:.3e}")
