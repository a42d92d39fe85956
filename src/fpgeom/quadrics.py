"""Spheres, the paraboloid, the isotropic cone, and lines living on them.

Generation is exhaustive (desk-scale p), backed by a per-prime square-root
table.  Line detection scans candidate (base, direction) pairs: for odd p a
line b + s v lies on the sphere |x|^2 == t, that is all p of its points do,
exactly when |b|^2 == t, b.v == 0 and v.v == 0, so only isotropic
directions are scanned and every line found is checked against these three
identities on its canonical row.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .counting import WeightedLineSet, _pair_values, dot_rows
from .field import Prime, inv, sqrt_mod
from .geom import (
    AffineLine,
    GeometryError,
    Vec,
    as_vec,
    dot,
    homogeneous_reps,
    isotropic_directions,
    norm_sq,
    smul,
    vadd,
)


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

    def contains(self, x: Vec) -> bool:
        return norm_sq(as_vec(x, self.p, self.dim), self.p) == self.t

    def points(self) -> list[Vec]:
        return sphere_points(self.p, self.dim, self.t)


@dataclass(frozen=True)
class Paraboloid:
    """Graph {(u, u.u) : u in F_p^(d-1)} inside F_p^d."""

    p: int
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "p", int(Prime(self.p)))
        if self.dim not in (3, 4):
            raise GeometryError("the paraboloid is generated in dimensions 3 and 4")

    def contains(self, x: Vec) -> bool:
        x = as_vec(x, self.p, self.dim)
        return x[-1] == norm_sq(x[:-1], self.p)

    def lift(self, u: Vec) -> Vec:
        u = as_vec(u, self.p, self.dim - 1)
        return u + (norm_sq(u, self.p),)

    def points(self) -> list[Vec]:
        return [
            self.lift(u) for u in itertools.product(range(self.p), repeat=self.dim - 1)
        ]


@functools.lru_cache(maxsize=None)
def _sqrt_table(p: int) -> tuple[tuple[int, ...], ...]:
    return tuple(sqrt_mod(r, p) or () for r in range(p))


def sphere_points(p: int, d: int, t: int) -> list[Vec]:
    """Every solution of x_1^2 + ... + x_d^2 == t, in lex order."""
    p = int(Prime(p))
    if d not in (3, 4):
        raise GeometryError("spheres are generated in dimensions 3 and 4")
    t %= p
    roots = _sqrt_table(p)
    pts: list[Vec] = []
    for head in itertools.product(range(p), repeat=d - 1):
        r = (t - sum(c * c for c in head)) % p
        for z in roots[r]:
            pts.append(head + (z,))
    return pts


def paraboloid_lift(points, p: int) -> list[Vec]:
    """Append the dot-square coordinate to each point, preserving order."""
    return [as_vec(u, p) + (norm_sq(as_vec(u, p), p),) for u in points]


def slice_lift(points, h: int, p: int) -> list[Vec]:
    """Points of the height-h slice, re-lifted onto the paraboloid."""
    h %= p
    return sorted(
        {
            as_vec(x, p)[:-1] + (norm_sq(as_vec(x, p)[:-1], p),)
            for x in points
            if as_vec(x, p)[-1] == h
        }
    )


# ---------------------------------------------------------------------------
# lines on quadrics

def lines_on_sphere(p: int, d: int, t: int) -> list[AffineLine]:
    """All lines fully contained in the sphere.

    For odd p the line b + s v lies on the sphere exactly when |b|^2 == t,
    b.v == 0 and v.v == 0.  One candidate per line is read from the blocked
    table of sphere rows b against isotropic directions v: b.v == 0 with b
    the canonical base (0 at v's first nonzero entry).  A canonical row
    failing the three identities raises ArithmeticError.
    """
    p = int(Prime(p))
    t %= p
    S = np.array(sphere_points(p, d, t), dtype=np.int64).reshape(-1, d)
    V = np.array(isotropic_directions(p, d), dtype=np.int64).reshape(-1, d)
    lead = (V != 0).argmax(axis=1)
    rows = [np.empty((0, 2 * d), dtype=np.int64)]
    for start, X in _pair_values(S, V, p):
        block = S[start : start + len(X)]
        x, v = np.nonzero((X == 0) & (block == 0)[:, lead])
        rows.append(np.hstack([block[x], V[v]]))
    return list(_checked_on_sphere(WeightedLineSet.of(np.vstack(rows), p, dim=d), t))


def _checked_on_sphere(lines: WeightedLineSet, t: int) -> tuple[AffineLine, ...]:
    """The lines of the set, each canonical row b + s v checked against
    |b|^2 == t, b.v == 0 and v.v == 0; a row failing raises ArithmeticError."""
    p, d = lines.p, lines.dim
    B, D = lines.rows[:, :d], lines.rows[:, d:]
    if not ((dot_rows(B, B, p) == t) & (dot_rows(B, D, p) == 0) & (dot_rows(D, D, p) == 0)).all():
        raise ArithmeticError("a line is not on the sphere")
    return lines.lines


def lines_on_sphere2(p: int, t: int) -> list[AffineLine]:
    """Lines on the two-dimensional sphere of nonzero radius-square."""
    if t % p == 0:
        raise GeometryError("use isotropic_cone_lines for the cone")
    return lines_on_sphere(p, 3, t)


def isotropic_cone_lines(p: int) -> list[AffineLine]:
    """The lines through the origin forming the nonzero part of the cone in F_p^3."""
    p = int(Prime(p))
    return sorted(AffineLine(p, (0, 0, 0), v) for v in isotropic_directions(p, 3))


# ---------------------------------------------------------------------------
# the cylinder of isotropic generators around an isotropic line on S^3_t

@dataclass(frozen=True)
class CylinderReport:
    """Generator lines of the cylinder cut on the sphere by the orthogonal
    complement of an isotropic line, with the shift producing each one."""

    axis: AffineLine
    point: Vec
    t: int
    shifts: tuple[tuple[Vec, int], ...]  # (direction v, shift beta(v))
    generators: tuple[AffineLine, ...]


def isotropic_cylinder(line: AffineLine, x: Vec, sphere: Sphere) -> CylinderReport:
    """Describe l^perp intersected with the sphere as parallel isotropic lines.

    For each direction v orthogonal to the axis with v.v != 0, the point
    x + beta(v) * v with beta(v) = -2(x.v)/(v.v) is back on the sphere and
    generates a line parallel to the axis.  Preconditions (isotropic axis
    contained in the sphere, x on both) are checked individually; the
    generators pass the row check of lines_on_sphere.
    """
    p = sphere.p
    if sphere.dim != 4:
        raise GeometryError("the cylinder construction lives on the 3-sphere in F_p^4")
    if line.p != p:
        raise GeometryError("axis modulus differs from sphere modulus")
    if not line.is_isotropic():
        raise GeometryError("axis direction is not isotropic")
    if not all(sphere.contains(q) for q in line.points()):
        raise GeometryError("axis is not contained in the sphere")
    x = as_vec(x, p, 4)
    if not line.contains(x):
        raise GeometryError("base point is not on the axis")
    if not sphere.contains(x):
        raise GeometryError("base point is not on the sphere")
    u = line.direction
    shifts: list[tuple[Vec, int]] = []
    for v in homogeneous_reps(p, 4):
        if dot(u, v, p) != 0:
            continue
        nv = norm_sq(v, p)
        if nv == 0:
            continue
        shifts.append((v, -2 * dot(x, v, p) * inv(nv, p) % p))
    gens = WeightedLineSet.of([(vadd(x, smul(beta, v, p), p), u) for v, beta in shifts], p, dim=4)
    return CylinderReport(
        axis=line,
        point=x,
        t=sphere.t,
        shifts=tuple(shifts),
        generators=_checked_on_sphere(gens, sphere.t),
    )
