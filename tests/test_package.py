"""The public API of ``vortexcc`` and the modules each entry point loads."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import vortexcc

PUBLIC = {
    "quantities": [
        "ExactComplex", "Invariants", "PlanarConfiguration", "VorticitySet",
        "angular_momentum", "conjugate_positions", "invariants_of", "total_vorticity",
    ],
    "system": [
        "COLLISION_GUARD", "CollisionError", "ComplexConfiguration", "ResidualVector",
        "complex_system_residual", "stationary_residual", "velocity_field",
    ],
    "solver": [
        "CentralConfigSolution", "NewtonFailure", "SolveReport", "SolverOptions",
        "classify", "newton_refine", "solve_central_multistart", "solve_equilibria",
        "solve_rigid_translation",
    ],
    "exceptional": [
        "CatalogMatch", "ConstraintClause", "DiagramConstraint", "ExceptionalReport",
        "SubsetCheck", "TotalVorticityZeroError", "catalog", "check_subset_conditions",
        "evaluate_diagram_constraints", "verdict",
    ],
    "asymptotics": [
        "ColoredDiagram", "DiagramExtraction", "NotSingularError", "balance_normalize",
        "extract_diagram", "four_product", "load_family", "roberts_family",
        "roberts_normalized", "save_family", "verify_roberts",
    ],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_public_name_is_the_object_its_module_defines(module):
    owner = importlib.import_module(f"vortexcc.{module}")
    assert getattr(vortexcc, module) is owner
    for name in PUBLIC[module]:
        assert getattr(vortexcc, name) is getattr(owner, name), name


def test_all_and_dir_list_every_public_name():
    assert len(NAMES) == 45
    assert sorted(vortexcc.__all__) == NAMES
    assert set(NAMES) | set(PUBLIC) <= set(dir(vortexcc))
    with pytest.raises(AttributeError, match="no_such_name"):
        vortexcc.no_such_name


def _loaded_after(code: str) -> set:
    """Modules in ``sys.modules`` after a fresh interpreter runs ``code``."""
    probe = f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(vortexcc.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_loads_no_submodule():
    loaded = _loaded_after("import vortexcc")
    assert {m for m in loaded if m.startswith("vortexcc")} == {"vortexcc"}
    assert "numpy" not in loaded


def test_exact_check_loads_neither_numpy_nor_the_solver():
    loaded = _loaded_after(
        "from vortexcc import cli\n"
        "assert cli.main(['check', '--gamma', '1,2,3,5,7', '--exact']) == 0"
    )
    assert "vortexcc.exceptional" in loaded
    assert not loaded & {"numpy", "vortexcc.solver", "vortexcc.system", "vortexcc.asymptotics",
                         "vortexcc.exactpoly"}


def test_verdict_loads_no_polynomial_module():
    # The catalog is compiled from its Γ_J / L_J relations; only printing one expands it.
    loaded = _loaded_after(
        "from vortexcc import VorticitySet, verdict\n"
        "assert verdict(VorticitySet((1, 2, 3, 5, 7))).verdict == 'certified_finite'"
    )
    assert "vortexcc.exceptional" in loaded
    assert not loaded & {"numpy", "vortexcc.exactpoly"}


def test_solve_api_loads_no_catalog():
    loaded = _loaded_after(
        "from vortexcc import VorticitySet, solve_central_multistart\n"
        "solve_central_multistart(VorticitySet((1, 2, 3)), starts=4, seed=0)"
    )
    assert "vortexcc.solver" in loaded
    assert not loaded & {"vortexcc.exceptional", "vortexcc.exactpoly", "vortexcc.asymptotics"}


def test_diagram_command_loads_neither_the_solver_nor_the_catalog():
    loaded = _loaded_after(
        "from vortexcc import cli\n"
        "assert cli.main(['diagram', '--family', 'roberts']) == 0"
    )
    assert "vortexcc.asymptotics" in loaded
    assert not loaded & {"vortexcc.solver", "vortexcc.exceptional", "vortexcc.exactpoly"}


@pytest.mark.parametrize("path", sorted(Path(vortexcc.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # Every name a module binds by import, at any depth, is read somewhere in
    # that module; the __future__ flags bind no name.
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, sorted(imported - used)


def _references(tree):
    """Every name the tree reads, as a name or an attribute, or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names)


def _private_definitions(tree):
    """(name, node) of each private function, class or constant a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


@pytest.mark.parametrize("path", sorted(Path(vortexcc.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_private_name_is_referenced(path):
    # A refactor that leaves an old helper or constant behind shows here: every
    # private top-level name of a module is read or imported somewhere in the
    # package outside its own definition.
    package = Path(vortexcc.__file__).parent
    references = Counter(name for source in package.glob("*.py")
                         for name in _references(ast.parse(source.read_text())))
    dead = sorted(name for name, node in _private_definitions(ast.parse(path.read_text()))
                  if references[name] == Counter(_references(node))[name])
    assert not dead, dead
