"""Stable partnerships on capacitated graphs with substitutable choices."""

import types

from .core import (
    BudgetError,
    EdgeSpace,
    EdgeVector,
    InputError,
    Instance,
    InternalError,
    VerificationError,
    instance_from_dict,
    instance_to_dict,
    parse_instance,
    serialize_instance,
)
from .choice import (
    AxiomReport,
    ChoiceFunction,
    LinearOrderQuotaCF,
    TableCF,
    check_axiom,
    is_acceptable,
    prefers,
)
from .bipartite import (
    Rotation,
    Route,
    RouteStep,
    StabilityReport,
    build_full_route,
    climb,
    deferred_acceptance,
    find_rotations,
    is_stable,
    precedes_F,
    precedes_W,
)
from .brute import enumerate_stable, lattice_extremes
from .poset import (
    ClosedFunction,
    Occurrence,
    RotationOrder,
    WeightedRotationFamily,
    closed_from_vector,
    family_from_route,
    full_routes,
    is_closed,
    rotation_order,
    vector_from_closed,
)
from .symmetric import (
    QBOutcome,
    SymmetricInstance,
    is_singular,
    run_qb,
    symmetrize,
)
from .solver import (
    HalfPartnership,
    OddCycle,
    SolveResult,
    lift_vector,
    project_cycle,
    project_solution,
    solve,
    verify_half_partnership,
)

__version__ = "0.1.0"

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], types.ModuleType)
]
