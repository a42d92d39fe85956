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

from .counting import WeightedLineSet, _int_rows, _pair_values, dot_rows
from .field import Prime
from .geom import AffineLine, GeometryError, Vec, iter_homogeneous_reps


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


@functools.lru_cache(maxsize=None)
def _sqrt_table(p: int) -> tuple[tuple[int, ...], ...]:
    """The square roots of each residue mod p in increasing order: (0,) for
    0, the pair (r, p - r) for a nonzero square, () for a non-square."""
    roots = [[] for _ in range(p)]
    for x in range(p):
        roots[x * x % p].append(x)
    return tuple(map(tuple, roots))


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
    """Append the dot-square coordinate to each point, preserving order; the
    points must share one width."""
    p, points = int(Prime(p)), list(points)
    if not points:
        return []
    _, U = _int_rows(points, p, None, 0, "point")
    return list(map(tuple, np.column_stack([U, dot_rows(U, U, p)]).tolist()))


def isotropic_directions(p: int, d: int) -> np.ndarray:
    """The canonical directions v of F_p^d with v.v == 0, as rows in the
    order of iter_homogeneous_reps."""
    V = np.array(list(iter_homogeneous_reps(p, d)), dtype=np.int64)
    return V[dot_rows(V, V, p) == 0]


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
    return list(_sphere_lines(p, d, t).lines)


def _sphere_lines(p: int, d: int, t: int) -> WeightedLineSet:
    """The lines of lines_on_sphere as checked canonical rows, before any
    AffineLine is built."""
    p = int(Prime(p))
    t %= p
    S = np.array(sphere_points(p, d, t), dtype=np.int64).reshape(-1, d)
    V = isotropic_directions(p, d)
    lead = (V != 0).argmax(axis=1)
    rows = [np.empty((0, 2 * d), dtype=np.int64)]
    for start, X in _pair_values(S, V, p):
        block = S[start : start + len(X)]
        x, v = np.nonzero((X == 0) & (block == 0)[:, lead])
        rows.append(np.hstack([block[x], V[v]]))
    lines = WeightedLineSet.of(np.vstack(rows), p, dim=d)
    B, D = lines.rows[:, :d], lines.rows[:, d:]
    if not ((dot_rows(B, B, p) == t) & (dot_rows(B, D, p) == 0) & (dot_rows(D, D, p) == 0)).all():
        raise ArithmeticError("a line is not on the sphere")
    return lines


def isotropic_cone_lines(p: int) -> list[AffineLine]:
    """The lines through the origin forming the nonzero part of the cone in F_p^3."""
    p = int(Prime(p))
    return sorted(AffineLine(p, (0, 0, 0), v) for v in isotropic_directions(p, 3).tolist())
