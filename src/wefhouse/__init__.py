"""Weighted envy-free house allocation.

Exact-arithmetic tools for house allocation with weighted entitlements:
decide whether a weighted envy-free allocation exists and compute one,
check whether a given allocation can be made envy-free with subsidies,
compute the minimum envy-eliminating payments, and solve the tractable
special families.  A brute-force oracle validates everything at small
scale.
"""

from .envy import (
    PathWeights,
    PositiveCycle,
    WeightedEnvyGraph,
    build_envy_graph,
    is_wefable,
    max_path_weights,
    min_subsidy,
)
from .errors import WefHouseError
from .generator import GeneratorConfig, generate_instance
from .model import (
    Allocation,
    Instance,
    Outcome,
    SubsidyVector,
    is_wef_allocation,
    is_wef_outcome,
    make_instance,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from .oracle import (
    oracle_permutation_resistant,
    oracle_wef_exists,
    oracle_wefable_exists,
    verify_min_subsidy,
)
from .solver import solve_wef, solve_wef_traced
from .special import (
    BivaluedResult,
    TwoTypePartition,
    detect_two_types,
    enumerate_maximum_matchings,
    representing_graph,
    solve_bivalued,
    solve_identical,
    solve_normalized_pair,
    solve_two_types,
    unweighted_efable,
)

__all__ = [
    "Allocation",
    "BivaluedResult",
    "GeneratorConfig",
    "Instance",
    "Outcome",
    "PathWeights",
    "PositiveCycle",
    "SubsidyVector",
    "TwoTypePartition",
    "WefHouseError",
    "WeightedEnvyGraph",
    "build_envy_graph",
    "detect_two_types",
    "enumerate_maximum_matchings",
    "generate_instance",
    "is_wef_allocation",
    "is_wef_outcome",
    "is_wefable",
    "make_instance",
    "max_path_weights",
    "min_subsidy",
    "oracle_permutation_resistant",
    "oracle_wef_exists",
    "oracle_wefable_exists",
    "parse_instance",
    "representing_graph",
    "serialize_instance",
    "solve_bivalued",
    "solve_identical",
    "solve_normalized_pair",
    "solve_two_types",
    "solve_wef",
    "solve_wef_traced",
    "unweighted_efable",
    "validate_instance",
    "verify_min_subsidy",
]

__version__ = "0.1.0"
