"""Quadratic cascade dynamics on finite ultrametric spaces.

The package models a space as a rooted ball tree, equips it with an
orthonormal wavelet basis, derives the spectral data of the dynamics
(decay rates and interaction coefficients) with exact quadrature oracles
to back them, and solves the cascade Cauchy problem three independent
ways: scale-recursive integrating factors, direct time integration of
the coefficient system, and direct integration on leaf values.
"""

from .config import (
    ConfigError,
    Scenario,
    ScenarioConfig,
    build_kernel,
    build_scenario,
    config_hash,
    load_config,
    parse_config,
)
from .oracles import (
    CROSS_SOLVER_TOL,
    DEFAULT_LEAF_CAP,
    EIGEN_TOL,
    INTERACTION_TOL,
    ancestor_value,
    eigen_check,
    interaction_check,
    random_kernel,
    random_tree,
)
from .solver import (
    CascadeSystem,
    LeafTrajectory,
    SolverAbort,
    Trajectory,
    analyze_trajectory,
    assemble,
    energy_by_level,
    leaf_rhs,
    solve_all,
    solve_leaf,
    solve_recurrent,
    solve_rk,
    time_grid,
)
from .spectral import (
    Kernel,
    apply_pdo_direct,
    eigenvalue,
    eigenvalue_table,
    interaction_coefficient,
    interaction_integral_direct,
    interaction_table,
)
from .tree import BallTree, build_tree
from .wavelets import (
    LeafField,
    WaveletBasis,
    WaveletField,
    analyze,
    build_basis,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "BallTree",
    "build_tree",
    "WaveletBasis",
    "WaveletField",
    "LeafField",
    "build_basis",
    "analyze",
    "synthesize",
    "ancestor_value",
    "Kernel",
    "eigenvalue",
    "eigenvalue_table",
    "interaction_coefficient",
    "interaction_table",
    "apply_pdo_direct",
    "interaction_integral_direct",
    "DEFAULT_LEAF_CAP",
    "CascadeSystem",
    "Trajectory",
    "LeafTrajectory",
    "SolverAbort",
    "assemble",
    "time_grid",
    "solve_recurrent",
    "solve_rk",
    "solve_leaf",
    "solve_all",
    "leaf_rhs",
    "analyze_trajectory",
    "energy_by_level",
    "ScenarioConfig",
    "Scenario",
    "ConfigError",
    "parse_config",
    "load_config",
    "build_kernel",
    "build_scenario",
    "config_hash",
    "random_tree",
    "random_kernel",
    "eigen_check",
    "interaction_check",
    "EIGEN_TOL",
    "INTERACTION_TOL",
    "CROSS_SOLVER_TOL",
    "__version__",
]
