"""Einstein metrics on basic classical Lie superalgebras.

Builds the classical matrix families as structure-constant tensors, derives
the algebraic Einstein system for the block-scaled left-invariant metric
family, solves it over the reals, and verifies every solution by brute-force
Ricci computation.
"""

from .curvature import (
    Connection,
    MetricParams,
    levi_civita_blockwise,
    levi_civita_koszul,
    metric_factors,
    metric_from_params,
    plan_curvature,
    ricci_closed_form,
    ricci_direct,
)
from .einstein import (
    EinsteinSolution,
    elimination_polynomial,
    lift_real_form,
    solve,
    verify_solution,
)
from .families import (
    FamilyData,
    FamilySpec,
    Realization,
    catalog,
    family_spec,
    realize,
)
from .invariants import (
    b_ratio,
    casimir_on_odd,
    representation_index,
)
from .supercore import (
    BilinearFormMatrix,
    DecompositionRange,
    DegeneracyError,
    LieSuperAlgebra,
    SuperBasis,
    bracket,
    check_form,
    check_super_jacobi,
    exact_form,
    exact_inverse,
    killing_form,
)

__version__ = "0.1.0"

__all__ = [
    "BilinearFormMatrix", "Connection", "DecompositionRange",
    "DegeneracyError", "EinsteinSolution", "FamilyData", "FamilySpec",
    "LieSuperAlgebra", "MetricParams", "Realization", "SuperBasis",
    "b_ratio", "bracket", "casimir_on_odd", "catalog", "check_form",
    "check_super_jacobi", "elimination_polynomial", "exact_form",
    "exact_inverse", "family_spec", "killing_form", "levi_civita_blockwise",
    "levi_civita_koszul", "lift_real_form", "metric_factors",
    "metric_from_params", "plan_curvature", "realize", "representation_index",
    "ricci_closed_form", "ricci_direct", "solve", "verify_solution",
]
