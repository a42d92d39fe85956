"""Spheres, the paraboloid, the isotropic cone x.x == 0, and lines living on them.

Generation is exhaustive (desk-scale p), read from a table of square roots.
For odd p the line b + s v lies on the sphere |x|^2 == t (all p of its
points do) exactly when |b|^2 == t, b.v == 0 and v.v == 0: the lines on a
sphere are the isotropic lines of its points that counting's census finds,
each checked against these three identities on its canonical row.
"""

from __future__ import annotations

import numpy as np

from .counting import WeightedLineSet, _census, _int_rows, _norm_rows, dot_rows
from .field import Prime
from .geom import GeometryError


def off_quadric(rows, p: int, t: int | None = None) -> np.ndarray:
    """The mask of the rows (int sequences or an int array) off the
    paraboloid {(u, u.u)} when t is None, else off the sphere
    x_1^2 + ... + x_d^2 == t; the rows' width d is the dimension, 3 or 4."""
    p = int(Prime(p))
    d, X = _int_rows(rows, p, None, 0, "point")
    if d not in (3, 4):
        quadric = "the paraboloid is" if t is None else "spheres are"
        raise GeometryError(f"{quadric} generated in dimensions 3 and 4")
    if t is None:
        return dot_rows(X[:, :-1], X[:, :-1], p) != X[:, -1]
    return dot_rows(X, X, p) != t % p


def sphere_points(p: int, d: int, t: int) -> np.ndarray:
    """Every solution of x_1^2 + ... + x_d^2 == t as read-only int64 rows
    (n x d), in lex order."""
    p = int(Prime(p))
    if d not in (3, 4):
        raise GeometryError("spheres are generated in dimensions 3 and 4")
    S = _norm_rows(p, d, t)
    S.flags.writeable = False
    return S


def paraboloid_lift(points, p: int) -> np.ndarray:
    """The points (int sequences or an int array, of one width) with their
    dot-square coordinate appended, as read-only int64 rows in their order."""
    p = int(Prime(p))
    _, U = _int_rows(points, p, None, 0, "point")
    lifted = np.column_stack([U, dot_rows(U, U, p)])
    lifted.flags.writeable = False
    return lifted


# ---------------------------------------------------------------------------
# lines on quadrics

def lines_on_sphere(p: int, d: int, t: int) -> np.ndarray:
    """All lines fully contained in the sphere, as read-only int64 rows of a
    canonical base then direction (L x 2d), in WeightedLineSet's order.

    The isotropic lines of its points, from counting's census of a set of
    one norm (at t == 0 the cone's lines), each line's repeats merged; a row
    failing the module docstring's identities raises ArithmeticError."""
    p = int(Prime(p))
    S = sphere_points(p, d, t)
    rows = [np.hstack([S[base], D]) for base, _, _, D in _census(S, p, True)]
    lines = WeightedLineSet.of(np.vstack([np.zeros((0, 2 * d), dtype=np.int64), *rows]), p, dim=d)
    B, D = lines.rows[:, :d], lines.rows[:, d:]
    if (dot_rows(B, B, p) != t % p).any() or dot_rows(B, D, p).any() or dot_rows(D, D, p).any():
        raise ArithmeticError("a line is not on the sphere")
    return lines.rows
