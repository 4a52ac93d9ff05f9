"""invarsets: numerical certification of invariant sets built from
conserved quantities of ODE flows.

The library classifies states by the numerical rank of the Jacobian of a
vector of first integrals (rank-level sets), by the vanishing of all
higher partials up to a given order (derivative-vanishing sets), and by
agreement of gradients between two quantities (agreement sets); it then
certifies along integrated trajectories that these classifications are
flow-invariant and that gradient-driven flows started on an agreement set
coincide.  Built-in models: the planar Kepler problem and periodic /
non-periodic Toda lattices.
"""

__version__ = "0.1.0"

from .core import (
    ConservedQuantitySet,
    SystemDefinition,
    as_state,
    conservation_rates,
    evaluate_field,
    stack_quantities,
)
from .differentiate import jacobians
from .errors import IntegrationError, InvarsetsError, NumericError, UsageError
from .integrate import (
    DriftReport,
    IntegratorSettings,
    IntegratorStats,
    Trajectory,
    flow_adaptive,
    monitor_drift,
)
from .invariance import (
    InvarianceReport,
    verify_critical_invariance,
    verify_rank_invariance,
    verify_set_persistence,
    verify_vanishing_invariance,
)
from .rank_sets import RankDecisions, SetMemberships, rank_levels, vanishing_memberships
from .coincidence import (
    GradientDrivenSystem,
    agreement_residual,
    assemble_system,
    canonical_symplectic_matrix,
    verify_coincidence,
)

__all__ = [
    "__version__",
    "ConservedQuantitySet",
    "SystemDefinition",
    "as_state",
    "conservation_rates",
    "evaluate_field",
    "stack_quantities",
    "jacobians",
    "InvarsetsError",
    "UsageError",
    "NumericError",
    "IntegrationError",
    "Trajectory",
    "DriftReport",
    "IntegratorStats",
    "IntegratorSettings",
    "flow_adaptive",
    "monitor_drift",
    "RankDecisions",
    "SetMemberships",
    "rank_levels",
    "vanishing_memberships",
    "InvarianceReport",
    "verify_rank_invariance",
    "verify_vanishing_invariance",
    "verify_set_persistence",
    "verify_critical_invariance",
    "GradientDrivenSystem",
    "agreement_residual",
    "assemble_system",
    "verify_coincidence",
    "canonical_symplectic_matrix",
]
