"""Incidence-geometry laboratory over prime fields.

Exact incidence counters with naive-loop references, quadric generators,
distance and additive-energy statistics, extremal constructions, and
bound-ratio reporting, all at desk-scale odd primes.

Every submodule is registered as a lazy module: its code, and numpy with
it, runs on the first read of one of its attributes.  The exported names
resolve on first access through their module.
"""

import importlib.util
import sys

# module -> the names the package exports from it
_EXPORTS = {
    "field": ("Prime", "inv", "legendre"),
    "geom": ("AffineLine",),
    "counting": ("IncidenceReport", "WeightedLineSet", "WeightedPlaneSet", "WeightedPointSet",
                 "count_point_plane", "count_restricted", "max_collinear", "rich_lines",
                 "weighted_incidences"),
    "quadrics": ("off_quadric", "paraboloid_lift", "sphere_points"),
    "erdos": ("DistanceReport", "FormSpec", "bisector_plane", "distance_set", "energy_delta",
              "form_values", "right_triangle_count", "wedge_solution_count",
              "wedge_to_incidence"),
    "energy": ("EnergyReport", "rectangle_energy_paraboloid", "rectangle_energy_sphere"),
    "constructions": ("ConstraintError", "coprime_lattice", "cylinder_set", "elekes_grid",
                      "semi_isotropic_set", "sphere_config"),
    "bounds": ("BoundReport", "RhsResult", "rhs"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}


def _lazy(name):
    """fpgeom.<name> registered in sys.modules; its code runs on its first
    attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy(name) for name in (*_EXPORTS, "configio")})

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return sorted({*globals(), *_OWNER})
