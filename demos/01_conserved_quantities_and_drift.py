"""Conserved quantities of the built-in models, and how well integration
preserves them.

The lattice invariants come with closed forms, analytic gradients, and
independent oracles: a combinatorial enumeration for the periodic chain
and matrix-trace values tr(L^k)/k for the free-end chain.  This script
prints the instantaneous conservation rates grad F . f (which should
sit at round-off) and the drift of each invariant along an integrated
trajectory (which should sit at the integrator tolerance).  Every
evaluation takes an (m, dim) stack of states; a single state is a stack
of one.
"""

import numpy as np

from invarsets import IntegratorSettings, conservation_rates, flow_adaptive, monitor_drift, stack_quantities
from invarsets import kepler, toda

rng = np.random.default_rng(7)

print("=== periodic lattice, n = 4 ===")
n = 4
system = toda.periodic_field(n)
quantity = toda.periodic_invariants(n)
x = np.concatenate([rng.uniform(0.2, 1.2, n), 0.6 * rng.standard_normal(n)])
print("state:", np.round(x, 3))
print("I values:", quantity.values_many(x[None])[0])
print("pointwise conservation rates:", conservation_rates(quantity, system, x[None])[0])

enum = toda.henon_invariant_oracle(n, 3)
print(
    "closed form I3 vs enumeration:",
    quantity.values_many(x[None])[0, 2],
    "vs",
    enum.values_many(x[None])[0, 0],
)

traj = flow_adaptive(system, x, t_end=10.0, integ=IntegratorSettings(tol=1e-10))
drift = monitor_drift(traj, quantity)
for label, d, t in zip(drift.labels, drift.max_drift, drift.time_of_max):
    print(f"drift of {label}: {d:.3e} (worst at t = {t:.2f})")

print()
print("=== free-end lattice, n = 4 ===")
system = toda.nonperiodic_field(n)
quantity = toda.nonperiodic_invariants(n)
x = np.concatenate([rng.uniform(0.2, 1.2, n - 1), 0.6 * rng.standard_normal(n)])
print("F values:", quantity.values_many(x[None])[0])
for k in (1, 2, 3):
    print(f"tr(L^{k})/{k} =", toda.trace_invariant_value(n, k, x))
print("commutator residual |dL/dt - [B, L]|:", toda.lax_commutator_residual(n, x))
traj = flow_adaptive(system, x, t_end=10.0)
print("drift:", monitor_drift(traj, quantity).max_drift)

print()
print("=== planar Kepler problem ===")
system = kepler.kepler_field()
quantity = stack_quantities(
    [kepler.hamiltonian(), kepler.angular_momentum(), kepler.combined_invariant(a=1.0)]
)
x0 = kepler.circular_sample(a=1.0, theta=0.0)
print("circular start:", x0)
print("(H, A, K) =", quantity.values_many(x0[None])[0])
traj = flow_adaptive(system, x0, t_end=2 * np.pi)
print("orbit closure error:", np.linalg.norm(traj.final_state - x0))
print("drift of (H, A, K):", monitor_drift(traj, quantity).max_drift)
