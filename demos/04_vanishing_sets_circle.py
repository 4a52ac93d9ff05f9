"""Derivative-vanishing sets: finer invariant structure than rank alone.

F = (x1^2 + x2^2 - 1)^3 is conserved by the planar rotation.  On the unit
circle every partial derivative of F up to order 2 vanishes while some
third-order partials do not, so the circle sits in the order-2 vanishing
set but not the order-3 one.  Membership in each vanishing set is
preserved by the flow; the verifier also checks the order-3 hypothesis
failure and the downward nesting of the sets.
"""

import numpy as np

from invarsets import rank_levels, vanishing_memberships, verify_vanishing_invariance
from invarsets import oscillator

system = oscillator.harmonic_oscillator()
quantity = oscillator.unit_circle_power(3)
x0 = np.array([1.0, 0.0])

for order in (1, 2, 3):
    # a single state is a stack of one; the residual is the largest
    # |partial| up to this order minus the membership threshold
    member = vanishing_memberships(quantity, x0[None], order, tol=1e-4)
    largest = member.residuals[0] + member.thresholds[0]
    print(f"order-{order} vanishing membership at (1, 0): {member.verdicts[0]} "
          f"(largest |partial| {largest:.2e}, residual {member.residuals[0]:+.2e})")

print()
report = verify_vanishing_invariance(
    system, quantity, x0, 2 * np.pi, order=2, tolerances={"vanishing": 1e-4}
)
print("order-2 membership along one full rotation:", report.verdict)
print("worst residual along the flow:", f"{report.worst_value:+.3e}")

report3 = verify_vanishing_invariance(
    system, quantity, x0, 2 * np.pi, order=3, tolerances={"vanishing": 1e-4}
)
print("order-3 attempt:", report3.verdict, "-", report3.message)

print()
print("nesting and the rank-0 equivalence at mixed probe states:")
rng = np.random.default_rng(3)
thetas = np.linspace(0, 2 * np.pi, 5)
probes = np.vstack([np.column_stack([np.cos(thetas), np.sin(thetas)]), rng.standard_normal((5, 2))])
# order-2 entries come from nested differencing, so their membership
# threshold has to sit above the ~1e-6 differencing noise
v1 = vanishing_memberships(quantity, probes, 1, tol=1e-4).verdicts
v2 = vanishing_memberships(quantity, probes, 2, tol=1e-4).verdicts
r0 = rank_levels(quantity, probes).ranks == 0
assert np.all(v1[v2])                  # order-2 membership implies order-1
assert np.array_equal(r0, v1)          # rank 0 iff first-order vanishing
for x, a, b, c in zip(probes, v1, v2, r0):
    print(f"  x = {np.round(x, 3)}: order-1 {a}, order-2 {b}, rank-0 {c}")
