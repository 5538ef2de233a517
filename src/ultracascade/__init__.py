"""Quadratic cascade dynamics on finite ultrametric spaces.

The package models a space as a rooted ball tree, equips it with an
orthonormal wavelet basis, derives the spectral data of the dynamics
(decay rates and interaction coefficients) with exact quadrature oracles
to back them, and solves the cascade Cauchy problem three independent
ways: scale-recursive integrating factors, direct time integration of
the coefficient system, and direct integration on leaf values.

Importing the package loads none of its modules: each public name loads
its module on first access.
"""

import importlib

# public name -> the submodule that defines it, imported on first access
# (PEP 562), so that importing the package loads no numpy
_ORIGIN = {
    **dict.fromkeys(("ConfigError", "Scenario", "ScenarioConfig", "build_kernel",
                     "build_scenario", "config_hash", "load_config",
                     "parse_config"), "config"),
    **dict.fromkeys(("CROSS_SOLVER_TOL", "DEFAULT_LEAF_CAP", "EIGEN_TOL",
                     "INTERACTION_TOL", "ancestor_value", "eigen_check",
                     "interaction_check", "random_kernel", "random_tree"),
                    "oracles"),
    **dict.fromkeys(("CascadeSystem", "LeafTrajectory", "SolverAbort",
                     "Trajectory", "analyze_trajectory", "assemble",
                     "energy_by_level", "leaf_rhs", "solve_all", "solve_leaf",
                     "solve_recurrent", "solve_rk", "time_grid"), "solver"),
    **dict.fromkeys(("Kernel", "apply_pdo_direct", "eigenvalue",
                     "eigenvalue_table", "interaction_coefficient",
                     "interaction_integral_direct", "interaction_table"),
                    "spectral"),
    **dict.fromkeys(("BallTree", "build_tree"), "tree"),
    **dict.fromkeys(("LeafField", "WaveletBasis", "WaveletField", "analyze",
                     "build_basis", "synthesize"), "wavelets"),
}
_SUBMODULES = frozenset(_ORIGIN.values())

__version__ = "0.1.0"

__all__ = [*_ORIGIN, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
