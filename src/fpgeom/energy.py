"""Additive energy on quadrics: the rectangle criteria and taxonomy.

Energy is the ordered-quadruple count of x + y == z + u: the ordered pair
sums are sorted into runs of equal sums, and each run of size m adds m^2.
For sets on the paraboloid or a sphere the same number is recomputed
through the right-angle corner criterion, and the two routes are required
to agree.  The corner form (x - z).(y - z) is expanded through the Gram
matrix M = C C^T of the corner coordinates, so each corner z costs one
n x n outer sum, and only the cells where it vanishes look up the fourth
vertex x + y - z, in per-column prefix keys of the set built once.

Geometric rectangles are the deduplicated, pairwise-distinct view.  Two
distinct unordered pairs with one sum are disjoint, so a run of r pairs
i < j with one sum holds exactly C(r, 2) rectangles, each hit by 8 ordered
solutions; they are enumerated in fixed-size blocks and classified by how
many of their two side directions are isotropic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .counting import (
    _isotropic_census,
    _runs,
    _scale_canonical,
    distinct_rows,
    dot_mod,
    dot_rows,
    pair_blocks,
)
from .field import Prime
from .geom import GeometryError
from .quadrics import Paraboloid, Sphere


class RectangleClass(Enum):
    ORDINARY = "ordinary"
    SEMI_DEGENERATE = "semi-degenerate"
    DEGENERATE = "degenerate"


class NotARectangleError(GeometryError):
    pass


@dataclass(frozen=True)
class EnergyReport:
    """Ordered-quadruple energy with the geometric rectangle breakdown."""

    energy: int
    corner_count: int
    size: int
    rectangles: int
    ordinary: int
    semi_degenerate: int
    degenerate: int
    k0: int
    quadric: str
    multiplicity_range: tuple[int, int] | None


def max_on_isotropic_line(points, p: int) -> int:
    """Largest number of the points collected by one isotropic line.

    Lines are spanned by point pairs; sets without a null pair score
    min(|A|, 1).  The isotropic census groups the null pairs by base and
    direction, so a group of count c is a line through c + 1 of the points.
    """
    P = distinct_rows(points, p)
    best = min(len(P), 1)
    for _, _, count, _ in _isotropic_census(P, p):
        best = max(best, int(count.max()) + 1)
    return best


# ---------------------------------------------------------------------------
# rectangle machinery
#
# Coordinates stay below p < 2^31 and every product is reduced mod p before
# the next sum, so all of it is exact in int64.

def _rectangle_classes(C: np.ndarray, x, y, z, p: int) -> np.ndarray:
    """Class codes (0 ordinary, 1 semi-degenerate, 2 degenerate) of the
    rectangles with diagonal {x, y} and corner z, given as rows of C.

    The sides are x - z and y - z; the code counts the isotropic ones.
    """
    a = C[x] - C[z]
    a %= p
    b = C[y] - C[z]
    b %= p
    iso_a = dot_rows(a, a, p) == 0
    iso_b = dot_rows(b, b, p) == 0
    both = iso_a & iso_b
    # with both sides isotropic all four vertices lie on one line exactly
    # when the (nonzero) sides are parallel: their canonical directions agree
    if (_scale_canonical(a[both], p) != _scale_canonical(b[both], p)).any():
        raise NotARectangleError("both side directions isotropic but vertices are not collinear")
    return iso_a.astype(np.int64) + iso_b


def right_corners(M: np.ndarray, z: int, p: int) -> np.ndarray:
    """The cells (x, y) with (x - z).(y - z) == 0, given the Gram matrix M.

    The corner form is M[x, y] - M[z, x] - M[z, y] + M[z, z]; the row x == z
    and the column y == z are always right.
    """
    v = M[z]
    # T - M is congruent to -(x - z).(y - z) and lies in (-p, 2p), so the
    # right corners are the cells where it is 0 or p
    T = np.add.outer(v, (v - M[z, z]) % p)
    T -= M
    right = T == 0
    right |= T == p
    return right


def _prefix_keys(A: np.ndarray, p: int) -> list[np.ndarray]:
    """Per column c, the sorted distinct keys rank(row[:c]) * p + row[c] of
    the rows of A, where rank is a row prefix's position among its column's
    keys; every key stays below len(A) * p."""
    rank = np.zeros(len(A), dtype=np.int64)
    levels = []
    for col in A.T:
        keys, rank = np.unique(rank * p + col, return_inverse=True)
        levels.append(keys)
    return levels


def _members(levels: list[np.ndarray], X: np.ndarray, p: int) -> np.ndarray:
    """Which rows of X are rows of the set whose _prefix_keys are levels."""
    rank = np.zeros(len(X), dtype=np.int64)
    hit = np.ones(len(X), dtype=bool)
    for keys, col in zip(levels, X.T):
        key = rank * p + col
        rank = np.searchsorted(keys, key)
        rank[rank == len(keys)] = 0
        hit &= keys[rank] == key
    return hit


def _corner_count(A: np.ndarray, C: np.ndarray, p: int) -> int:
    """Count triples (x, y, z) with a right corner at z (in corner coords C)
    whose fourth vertex x + y - z (in full coords A) is back in the set.

    Each z costs one n x n outer sum of the Gram matrix of C, and only its
    right corners are looked up, column by column, in prefix keys built
    once from A.  A's rows are distinct.
    """
    M = dot_mod(C, C, p)
    levels = _prefix_keys(A, p)
    total = 0
    for z in range(len(A)):
        xs, ys = np.nonzero(right_corners(M, z, p))
        fourth = A[xs] + A[ys]
        fourth -= A[z]
        fourth %= p
        total += int(np.count_nonzero(_members(levels, fourth, p)))
    return total


def _ordered_sums(A: np.ndarray, p: int) -> tuple[int, int]:
    """(energy, pairwise-distinct ordered solutions) from the n^2 ordered
    pair sums A[i] + A[j] mod p, flattened at position i * n + j and grouped
    by one sort."""
    n = len(A)
    sums = A[:, None, :] + A
    sums %= p
    order, bounds = _runs(sums.reshape(n * n, -1))
    size = np.diff(bounds)
    # x + y == x + u forces y == u, so the off-diagonal pairs of one sum are
    # disjoint and give off * (off - 2) pairwise-distinct solutions; the
    # diagonal pair (i, i) sits at the flat position i * (n + 1)
    off = size - np.add.reduceat(order % (n + 1) == 0, bounds[:-1], dtype=np.int64)
    return int((size * size).sum()), int((off * (off - 2)).sum())


def _unordered_sums(A: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs i < j of rows of A as (I, J) sorted by A[i] + A[j] mod p,
    and the bounds of their runs of equal sums."""
    I, J = np.triu_indices(len(A), 1)
    sums = A[I]
    sums += A[J]
    sums %= p
    order, bounds = _runs(sums)
    return I[order], J[order], bounds


def _rectangle_report(A: np.ndarray, C: np.ndarray, p: int, quadric: str) -> EnergyReport:
    """The report for the distinct rows A on the quadric, with rectangles,
    side isotropy and k0 read in the corner coordinates C."""
    energy, solutions = _ordered_sums(A, p)
    corner = _corner_count(A, C, p)
    if corner != energy:
        raise ArithmeticError(
            f"energy mismatch: sum grouping {energy} vs corner criterion {corner}"
        )
    # rectangles: any two unordered pairs with one sum
    X, Y, bounds = _unordered_sums(A, p)
    r = np.diff(bounds)
    rectangles = int((r * (r - 1) // 2).sum())
    if solutions != 8 * rectangles:
        raise ArithmeticError(
            f"{solutions} ordered solutions for {rectangles} rectangles, not 8 each"
        )
    # the pair at sorted position t forms a rectangle with each later pair of
    # its run
    later = np.repeat(bounds[1:], r) - 1 - np.arange(len(X))
    counts = np.zeros(len(RectangleClass), dtype=np.int64)
    for t, rank in pair_blocks(later):
        counts += np.bincount(
            _rectangle_classes(C, X[t], Y[t], X[t + 1 + rank], p),
            minlength=len(counts),
        )
    ordinary, semi, degenerate = (int(c) for c in counts)
    return EnergyReport(
        energy=energy,
        corner_count=corner,
        size=len(A),
        rectangles=rectangles,
        ordinary=ordinary,
        semi_degenerate=semi,
        degenerate=degenerate,
        k0=max_on_isotropic_line(C, p),
        quadric=quadric,
        multiplicity_range=(8, 8) if rectangles else None,
    )


def rectangle_energy_paraboloid(points, p: int) -> EnergyReport:
    """Energy report for a set on the paraboloid; rectangles, side isotropy
    and k0 live in the horizontal projection."""
    p = int(Prime(p))
    P = distinct_rows(points, p)
    if not len(P):
        return EnergyReport(0, 0, 0, 0, 0, 0, 0, 0, "paraboloid", None)
    Paraboloid(p, P.shape[1])  # checks the dimension
    _require_on(P, dot_rows(P[:, :-1], P[:, :-1], p) != P[:, -1], "paraboloid")
    return _rectangle_report(P, P[:, :-1], p, "paraboloid")


def rectangle_energy_sphere(points, p: int, t: int) -> EnergyReport:
    """Energy report for a set on the sphere of radius-square t != 0."""
    p = int(Prime(p))
    if t % p == 0:
        raise GeometryError("sphere energy needs t != 0")
    P = distinct_rows(points, p)
    if not len(P):
        return EnergyReport(0, 0, 0, 0, 0, 0, 0, 0, "sphere", None)
    _require_on(P, dot_rows(P, P, p) != Sphere(p, P.shape[1], t).t, "sphere")
    return _rectangle_report(P, P, p, "sphere")


def _require_on(P: np.ndarray, off: np.ndarray, quadric: str) -> None:
    """Raise for the first row of P flagged in off."""
    if off.any():
        raise GeometryError(f"point {tuple(P[off.argmax()].tolist())} is not on the {quadric}")
