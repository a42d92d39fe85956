"""Incidence-geometry laboratory over prime fields.

Exact incidence counters with naive-loop references, quadric generators,
distance and additive-energy statistics, extremal constructions, and
bound-ratio reporting, all at desk-scale odd primes.
"""

from .field import Prime, inv, legendre
from .geom import AffineLine, AffinePlane
from .counting import (
    IncidenceReport,
    WeightedLineSet,
    WeightedPlaneSet,
    WeightedPointSet,
    count_point_line_2d,
    count_point_plane,
    count_restricted,
    max_collinear,
    rich_lines,
    weighted_incidences,
)
from .quadrics import Paraboloid, Sphere, paraboloid_lift, sphere_points
from .erdos import (
    DistanceReport,
    FormSpec,
    bisector_plane,
    distance_set,
    energy_delta,
    form_values,
    right_triangle_count,
    wedge_solution_count,
    wedge_to_incidence,
)
from .energy import (
    EnergyReport,
    rectangle_energy_paraboloid,
    rectangle_energy_sphere,
)
from .constructions import (
    ConstraintError,
    coprime_lattice,
    cylinder_set,
    elekes_grid,
    semi_isotropic_set,
    sphere_config,
)
from .bounds import BoundReport, RhsResult, rhs

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
