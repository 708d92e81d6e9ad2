"""Stationary configurations of the planar point-vortex problem.

Multistart Newton searches for relative equilibria and self-similar collapse
configurations, exact polynomial certification of finiteness for five-vortex
vorticity tuples, and order-exponent diagnostics for degenerating families.

Each public name is imported from its submodule on first use (PEP 562), so a
call loads only the layers it needs: ``verdict`` runs on the standard library
without numpy, and the solvers never load the exceptional-set catalog.
"""

import importlib as _importlib

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "quantities": (
            "ExactComplex", "Invariants", "PlanarConfiguration", "VorticitySet",
            "angular_momentum", "conjugate_positions", "invariants_of", "total_vorticity",
        ),
        "system": (
            "COLLISION_GUARD", "CollisionError", "ComplexConfiguration", "ResidualVector",
            "complex_system_residual", "stationary_residual", "velocity_field",
        ),
        "solver": (
            "CentralConfigSolution", "NewtonFailure", "SolveReport", "SolverOptions",
            "classify", "newton_refine", "solve_central_multistart", "solve_equilibria",
            "solve_rigid_translation",
        ),
        "exceptional": (
            "CatalogMatch", "ConstraintClause", "DiagramConstraint", "ExceptionalReport",
            "SubsetCheck", "TotalVorticityZeroError", "catalog", "check_subset_conditions",
            "evaluate_diagram_constraints", "verdict",
        ),
        "asymptotics": (
            "ColoredDiagram", "DiagramExtraction", "NotSingularError", "balance_normalize",
            "extract_diagram", "four_product", "load_family", "roberts_family",
            "roberts_normalized", "save_family", "verify_roberts",
        ),
    }.items()
    for name in names
}
_SUBMODULES = ("asymptotics", "cli", "exactpoly", "exceptional", "quantities", "solver", "system")

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(_importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = _importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups are plain attribute reads
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_SUBMODULES))
