"""The package exports nothing it does not use and imports nothing it drops.

Every name in `fpgeom.__all__` is used by a module of the package other
than `__init__` (a CLI path or a bound reaches it), or it waits below for
the open ROADMAP item that will give it a user.  Every module-level import
of a package module is used in that module.  Both checks read the sources
with `ast`, so nothing is imported twice.
"""

import ast
import functools
import importlib
import types
from pathlib import Path

import pytest

import fpgeom

SRC = Path(fpgeom.__file__).parent

# exported names no package module uses yet, each with the ROADMAP item
# that will use it
WAITING = {
    "wedge_solution_count": "item 4: verify checks form solutions against the wedge incidences",
    "wedge_to_incidence": "item 4: verify checks form solutions against the wedge incidences",
    "energy_delta": "item 4: verify checks E_Delta against the bisector-plane incidences",
    "bisector_plane": "item 4: verify checks E_Delta against the bisector-plane incidences",
    "right_triangle_count": "item 4: verify --quadric may report the right-triangle identity",
    "rich_lines": "item 5: KRICH counts the k-rich lines",
    "max_collinear": "item 5: the k of KRICH and COR21, the paper's collinearity parameter",
    "paraboloid_lift": "item 2: the quadric construction draws a-subsets of the paraboloid",
}


@functools.cache
def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _reads(tree: ast.AST) -> set[str]:
    """The names a tree reads: loaded names, attribute names and the names
    inside string annotations."""
    out, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            out |= _reads(ast.parse(note.value, mode="eval"))
    return out


def _outside_reads(tree: ast.Module) -> set[str]:
    """The names a module reads, each top-level definition's own name left
    out of what that definition reads, so recursion is no use."""
    out = set()
    for stmt in tree.body:
        out |= _reads(stmt) - {getattr(stmt, "name", None)}
    return out


@functools.cache
def _package_reads() -> frozenset[str]:
    return frozenset().union(*(_outside_reads(tree) for name, tree in _modules().items()
                               if name != "__init__"))


EXPORTS = sorted(name for name in fpgeom.__all__
                 if not isinstance(getattr(fpgeom, name), types.ModuleType))
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("name", EXPORTS)
def test_every_export_has_a_user_in_the_package(name):
    assert name in _package_reads() or name in WAITING


@pytest.mark.parametrize("name", sorted(WAITING))
def test_a_waiting_name_is_exported_and_still_waits(name):
    # a waiting name that gained a user, or left the exports, leaves the list
    assert name in EXPORTS
    assert name not in _package_reads()


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_used(module):
    tree = _modules()[module]
    read = _reads(tree)
    unused = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(bound)
    assert unused == []


# the public names: the 37 exported objects and the 8 modules that hold them
PUBLIC = [
    "AffineLine", "BoundReport", "ConstraintError", "DistanceReport",
    "EnergyReport", "FormSpec", "IncidenceReport", "Prime", "RhsResult",
    "WeightedLineSet", "WeightedPlaneSet", "WeightedPointSet", "bisector_plane", "bounds",
    "constructions", "coprime_lattice", "count_point_plane",
    "count_restricted", "counting", "cylinder_set", "distance_set", "elekes_grid", "energy",
    "energy_delta", "erdos", "field", "form_values", "geom", "inv", "legendre", "max_collinear",
    "off_quadric", "paraboloid_lift", "quadrics", "rectangle_energy_paraboloid",
    "rectangle_energy_sphere",
    "rhs", "rich_lines", "right_triangle_count", "semi_isotropic_set", "sphere_config",
    "sphere_points", "wedge_solution_count", "wedge_to_incidence", "weighted_incidences",
]


def test_all_lists_the_public_names():
    assert fpgeom.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_a_public_name_resolves_through_its_module(name):
    value = getattr(fpgeom, name)
    if isinstance(value, types.ModuleType):
        assert value.__name__ == f"fpgeom.{name}"
    else:
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(fpgeom))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fpgeom import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        fpgeom.no_such_name
