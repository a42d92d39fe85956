"""Additive energy on quadrics: the rectangle criteria and taxonomy.

Energy is the ordered-quadruple count of x + y == z + u: the ordered pair
sums are sorted into runs of equal sums, and each run of size m adds m^2.
For sets on the paraboloid or a sphere the same number is recomputed
through the right-angle corner criterion, and the two routes are required
to agree.  A right corner at z whose fourth vertex u = x + y - z is in the
set is a pair of ordered pairs (z, x), (y, u) with one difference and one
corner value, so the corner count is one more sort of the n^2 ordered
pairs, keyed block by block from the pair-value table of the corner
coordinates.

Geometric rectangles are the deduplicated, pairwise-distinct view.  Two
distinct unordered pairs with one sum are disjoint, so a run of r pairs
i < j with one sum holds exactly C(r, 2) rectangles, each hit by 8 ordered
solutions; they are enumerated in fixed-size blocks and classified by how
many of their two side directions are isotropic, read by two gathers from
one n x n isotropy table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .counting import (
    _distance_terms,
    _isotropic_census,
    _pair_values,
    _runs,
    _scale_canonical,
    distinct_rows,
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

def _isotropy(C: np.ndarray, p: int) -> np.ndarray:
    """The n x n table iso[x, z] of |C[x] - C[z]|^2 == 0 mod p: the zeros of
    the blocked squared-distance table, one byte a cell."""
    iso = np.empty((len(C), len(C)), dtype=bool)
    U, norms = _distance_terms(C, p)
    for start, V in _pair_values(C, U, p, norms, norms):
        np.equal(V, 0, out=iso[start : start + len(V)])
    return iso


def _rectangle_classes(C: np.ndarray, iso: np.ndarray, x, y, z, p: int) -> np.ndarray:
    """Class codes (0 ordinary, 1 semi-degenerate, 2 degenerate) of the
    rectangles with diagonal {x, y} and corner z, given as index arrays into
    the rows of C and its _isotropy table iso.

    The sides are x - z and y - z; the code counts the isotropic ones.
    """
    iso_a = iso[x, z]
    iso_b = iso[y, z]
    both = np.flatnonzero(iso_a & iso_b)
    if len(both):
        # with both sides isotropic all four vertices lie on one line exactly
        # when the (nonzero) sides are parallel: their canonical directions agree
        a = C[x[both]] - C[z[both]]
        a %= p
        b = C[y[both]] - C[z[both]]
        b %= p
        if (_scale_canonical(a, p) != _scale_canonical(b, p)).any():
            raise NotARectangleError(
                "both side directions isotropic but vertices are not collinear")
    return np.add(iso_a, iso_b, dtype=np.int64)


def _corner_count(A: np.ndarray, C: np.ndarray, p: int) -> int:
    """Count triples (x, y, z) with a right corner at z (in corner coords C)
    whose fourth vertex u = x + y - z (in full coords A) is back in the set.

    Such a triple is a pair of ordered pairs (z, x) and (y, u) with one
    difference v = x - z = u - y, and since (x - z).(y - z) is
    C(v).C(y) - C(v).C(z), one corner value as well.  So each ordered pair
    (a, b) is keyed by (A[b] - A[a], C[a].C[b] - |C[a]|^2) mod p, and the
    count is the sum of size^2 over the runs of equal keys.  The key's base-p
    digits are packed into as few int64 columns as hold them, written block
    by block from the pair-value table.  A's rows are distinct.
    """
    n, d = A.shape
    per = 1  # base-p digits per key column, so a column stays below 2^63
    while p ** (per + 1) < 1 << 63:
        per += 1
    keys = np.zeros((-(-(d + 1) // per), n * n), dtype=np.int64)
    offsets = -dot_rows(C, C, p) % p
    for start, V in _pair_values(C, C, p, offsets, np.zeros(n, dtype=np.int64)):
        rows = A[start : start + len(V)]
        diffs = ((A[:, c] - rows[:, c, None]) % p for c in range(d))
        for c, digit in enumerate(itertools.chain(diffs, [V])):
            key = keys[c // per, start * n : (start + len(V)) * n].reshape(V.shape)
            key *= p
            key += digit
    _, bounds = _runs(keys.T)
    size = np.diff(bounds)
    return int((size * size).sum())


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


def _class_counts(C: np.ndarray, X: np.ndarray, Y: np.ndarray, bounds: np.ndarray,
                  p: int) -> tuple[int, int, int]:
    """(ordinary, semi-degenerate, degenerate) rectangles among the pairs
    (X, Y) in runs of equal sums given by bounds, classified in the corner
    coordinates C from one isotropy table."""
    iso = _isotropy(C, p)
    # the pair at sorted position t forms a rectangle with each later pair of
    # its run
    later = np.repeat(bounds[1:], np.diff(bounds)) - 1 - np.arange(len(X))
    counts = np.zeros(len(RectangleClass), dtype=np.int64)
    for t, rank in pair_blocks(later):
        counts += np.bincount(
            _rectangle_classes(C, iso, X[t], Y[t], X[t + 1 + rank], p),
            minlength=len(counts),
        )
    ordinary, semi, degenerate = counts.tolist()
    return ordinary, semi, degenerate


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
    ordinary, semi, degenerate = _class_counts(C, X, Y, bounds, p)
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
    if P.shape[1]:  # a plain [] has no width to check
        _require_on(P, Paraboloid(p, P.shape[1]))
    if not len(P):
        return EnergyReport(0, 0, 0, 0, 0, 0, 0, 0, "paraboloid", None)
    return _rectangle_report(P, P[:, :-1], p, "paraboloid")


def rectangle_energy_sphere(points, p: int, t: int) -> EnergyReport:
    """Energy report for a set on the sphere of radius-square t != 0."""
    p = int(Prime(p))
    if t % p == 0:
        raise GeometryError("sphere energy needs t != 0")
    P = distinct_rows(points, p)
    if P.shape[1]:  # a plain [] has no width to check
        _require_on(P, Sphere(p, P.shape[1], t))
    if not len(P):
        return EnergyReport(0, 0, 0, 0, 0, 0, 0, 0, "sphere", None)
    return _rectangle_report(P, P, p, "sphere")


def _require_on(P: np.ndarray, quadric: Paraboloid | Sphere) -> None:
    """Raise for the first row of P off the quadric."""
    off = quadric.outside(P)
    if off.any():
        raise GeometryError(f"point {tuple(P[off.argmax()].tolist())} is not on the "
                            f"{type(quadric).__name__.lower()}")
