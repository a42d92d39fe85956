"""Spheres, the paraboloid, the isotropic cone x.x == 0, and lines living on them.

Generation is exhaustive (desk-scale p), read from a table of square roots.
For odd p the line b + s v lies on the sphere |x|^2 == t (all p of its
points do) exactly when |b|^2 == t, b.v == 0 and v.v == 0: the lines on a
sphere are the isotropic lines of its points that counting's census finds,
each checked against these three identities on its canonical row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import (WeightedLineSet, _direction_lines, _int_rows, _norm_rows, dot_rows,
                       isotropic_directions)
from .field import Prime
from .geom import GeometryError, Vec


@dataclass(frozen=True)
class Sphere:
    """Solution set of x_1^2 + ... + x_d^2 == t in F_p^d."""

    p: int
    dim: int
    t: int

    def __post_init__(self):
        object.__setattr__(self, "p", int(Prime(self.p)))
        object.__setattr__(self, "t", int(self.t) % self.p)
        if self.dim not in (3, 4):
            raise GeometryError("spheres are generated in dimensions 3 and 4")

    def outside(self, rows) -> np.ndarray:
        """The mask of the rows (int sequences or an int array) off the sphere."""
        _, X = _int_rows(rows, self.p, self.dim, 0, "point")
        return dot_rows(X, X, self.p) != self.t


@dataclass(frozen=True)
class Paraboloid:
    """Graph {(u, u.u) : u in F_p^(d-1)} inside F_p^d."""

    p: int
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "p", int(Prime(self.p)))
        if self.dim not in (3, 4):
            raise GeometryError("the paraboloid is generated in dimensions 3 and 4")

    def outside(self, rows) -> np.ndarray:
        """The mask of the rows (int sequences or an int array) off the paraboloid."""
        _, X = _int_rows(rows, self.p, self.dim, 0, "point")
        U = X[:, :-1]
        return dot_rows(U, U, self.p) != X[:, -1]


def sphere_points(p: int, d: int, t: int) -> list[Vec]:
    """Every solution of x_1^2 + ... + x_d^2 == t, in lex order."""
    p = int(Prime(p))
    if d not in (3, 4):
        raise GeometryError("spheres are generated in dimensions 3 and 4")
    return list(map(tuple, _norm_rows(p, d, t).tolist()))


def paraboloid_lift(points, p: int) -> list[Vec]:
    """Append the dot-square coordinate to each point, preserving order; the
    points must share one width."""
    p, points = int(Prime(p)), list(points)
    if not points:
        return []
    _, U = _int_rows(points, p, None, 0, "point")
    return list(map(tuple, np.column_stack([U, dot_rows(U, U, p)]).tolist()))


# ---------------------------------------------------------------------------
# lines on quadrics

def lines_on_sphere(p: int, d: int, t: int) -> np.ndarray:
    """All lines fully contained in the sphere, as read-only int64 rows of a
    canonical base then direction (L x 2d), in WeightedLineSet's order.

    The isotropic lines of its points, from counting's census (at t == 0 the
    cone's lines); a row failing the module docstring's identities raises
    ArithmeticError."""
    p = int(Prime(p))
    S = np.array(sphere_points(p, d, t), dtype=np.int64).reshape(-1, d)
    census = _direction_lines(S, p, isotropic_directions(p, d))
    rows = [np.hstack([S[I[bounds[:-1]]], W]) for I, _, bounds, W in census]
    lines = WeightedLineSet.of(np.vstack([np.zeros((0, 2 * d), dtype=np.int64), *rows]), p, dim=d)
    B, D = lines.rows[:, :d], lines.rows[:, d:]
    if (dot_rows(B, B, p) != t % p).any() or dot_rows(B, D, p).any() or dot_rows(D, D, p).any():
        raise ArithmeticError("a line is not on the sphere")
    return lines.rows
