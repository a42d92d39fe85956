"""Additive energy on quadrics: the rectangle criteria and taxonomy.

Energy is the ordered-quadruple count of x + y == z + u.  Every report field
comes from one of two routes, chosen by the size of the set against p^d.

The pair route sorts the n^2 ordered pair sums into runs of equal sums, and
each run of size m adds m^2.  For sets on the paraboloid or a sphere the same
number is recomputed through the right-angle corner criterion, and the two
are required to agree.  A right corner at z whose fourth vertex
u = x + y - z is in the set is a pair of ordered pairs (z, x), (y, u) with one
difference and one corner value, so the corner count is one more sort of the
n^2 ordered pairs, keyed block by block from the pair-value table of the
corner coordinates.  Geometric rectangles are the deduplicated,
pairwise-distinct view.  Two distinct unordered pairs with one sum are
disjoint, so a run of r pairs i < j with one sum holds exactly C(r, 2)
rectangles, each hit by 8 ordered solutions; they are enumerated in
fixed-size blocks and classified by how many of their two side directions are
isotropic, read by two gathers from one n x n isotropy table.

The table route reads the same numbers from the sum and difference tables
r(s) = #{(a, b): a + b == s} and D(v) = #{(a, b): b - a == v} on all of
F_p^d, the Fourier side of energy: E(A) = p^-d sum_xi |F(xi)|^4.  The
transforms are taken modulo a prime q == 1 mod p above n, so every table
entry comes out exactly, with integers only.  Sum D^2 stands in for the
corner count, and the rectangle classes come from D on the isotropic
differences together with 1-D counts on the isotropic lines.
"""

from __future__ import annotations

import functools
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
    dot_mod,
    dot_rows,
    pair_blocks,
)
from .field import MAX_MODULUS, Prime, is_prime
from .geom import GeometryError
from .quadrics import Paraboloid, Sphere, isotropic_directions


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


def _pair_route(A: np.ndarray, C: np.ndarray, p: int) -> tuple[int, ...]:
    """(energy, corner count, rectangles, ordinary, semi-degenerate,
    degenerate, k0) for the distinct rows A on the quadric, read from tables
    of the n^2 pairs."""
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
    classes = _class_counts(C, X, Y, bounds, p)
    return (energy, corner, rectangles, *classes, max_on_isotropic_line(C, p))


# ---------------------------------------------------------------------------
# the table route

# The table route runs when the p^d-cell tables stay below _TABLE_CELLS and
# its d p^(d+1) transform products stay below _TABLE_RATIO n^2.
_TABLE_CELLS = 1 << 20
_TABLE_RATIO = 8


def _transform_modulus(p: int, bound: int) -> tuple[int, int]:
    """(q, w): the least prime q == 1 mod p above bound, and w of order p
    mod q.  Raises ValueError when q would reach 2^31."""
    k = bound // p + 1
    q = (k + k % 2) * p + 1  # kp + 1 is odd exactly when k is even
    while not is_prime(q):
        q += 2 * p
    if q >= MAX_MODULUS:
        raise ValueError(f"no prime q == 1 mod {p} in ({bound}, 2**31)")
    # w = g^((q - 1) / p) has order dividing p, so order p unless it is 1
    for g in itertools.count(2):
        w = pow(g, (q - 1) // p, q)
        if w != 1:
            return q, w


def _transform(F: np.ndarray, W: np.ndarray, q: int) -> None:
    """Transform the table F on F_p^d (shape (p,) * d, entries in [0, q)) by
    W along every axis mod q, in place: one dot_mod per axis turns the
    leading axis and writes it back as the last."""
    rows = F.reshape(len(W), -1)
    for _ in range(F.ndim):
        rows.reshape(-1, len(W))[...] = dot_mod(W, rows.T, q).T


def _sum_tables(A: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The tables r and D on F_p^d (shape (p,) * d) of the distinct rows A:
    r[s] = #{(a, b): a + b == s} and D[v] = #{(a, b): b - a == v}.

    With F the transform of the indicator of A by W[a, b] = w^(ab) mod q,
    r is the inverse transform of F^2 and D that of F(xi) F(-xi), each divided
    by p^d mod q.  Every entry is at most n < q, so both are exact."""
    n, d = A.shape
    q, w = _transform_modulus(p, n)
    powers = np.array([pow(w, e, q) for e in range(p)], dtype=np.int64)
    ab = np.multiply.outer(np.arange(p), np.arange(p)) % p
    F = np.zeros((p,) * d, dtype=np.int64)
    F[tuple(A.T)] = 1
    _transform(F, powers[ab], q)
    neg = -np.arange(p) % p
    D = F[np.ix_(*(neg,) * d)]
    D *= F
    r = F
    r *= F
    scale = pow(p**d, -1, q)
    for T in (r, D):
        T %= q
        _transform(T, powers[-ab % p], q)
        T *= scale
        T %= q
    return r, D


def _line_counts(C: np.ndarray, p: int) -> tuple[int, int, int]:
    """(k0, degenerate, progressions) over the isotropic lines of the corner
    coordinates C: the most points of C on one line, the rectangles inside
    one line, and the triples (a, v), v != 0, with a, a + v, a + 2v on one
    line, v and -v both counted.

    For each isotropic direction w, with w[j] == 1, the rows of C with one
    base C - C[:, j] w lie on one line parallel to w, at parameters C[:, j];
    one sort of the bases' digits, parameter last, groups them.  With the
    parameter sets of the lines holding two points or more as an indicator
    L, the 1-D pair sums give the rectangles, and each ordered pair a != b
    whose midpoint is in L is one progression a, (a + b) / 2, b."""
    n, dc = C.shape
    k0, degenerate, progressions = min(n, 1), 0, 0
    x = np.arange(p)
    # digits[u, c p + s] = (c - s u) mod p: the coordinate c at parameter s
    # moved back to parameter 0 along a direction whose entry is u
    digits = ((x[None, :, None] - np.multiply.outer(x, x)[:, None, :]) % p).reshape(p, p * p)
    index = C * p
    s_minus_a = (x[:, None] - x) % p
    halves = x * ((p + 1) // 2) % p
    for w in isotropic_directions(p, dc):
        j = int((w != 0).argmax())
        s = C[:, j]
        key = np.zeros(n, dtype=np.int64)
        for c in range(dc):
            if c != j:  # the base is 0 at j
                key *= p
                key += digits[w[c], index[:, c] + s]
        key *= p
        key += s
        key.sort()
        line, param = np.divmod(key, p)
        size = np.diff(np.flatnonzero(np.diff(line, prepend=-1, append=-1)))
        k0 = max(k0, int(size.max()))
        rich = size > 1
        if not rich.any():
            continue
        L = np.zeros((rich.sum(), p), dtype=np.int64)
        L[np.repeat(np.arange(len(L)), size[rich]), param[np.repeat(rich, size)]] = 1
        # off[:, t] pairs (a, b) of one line with a != b and a + b == t
        off = np.einsum("ia,ita->it", L, L[:, s_minus_a])
        mid = L[:, halves]
        off -= mid
        m = off // 2
        degenerate += int((m * (m - 1) // 2).sum())
        progressions += int((mid * off).sum())
    return k0, degenerate, progressions


def _table_route(A: np.ndarray, C: np.ndarray, p: int) -> tuple[int, ...]:
    """(energy, corner count, rectangles, ordinary, semi-degenerate,
    degenerate, k0) for the distinct rows A on the quadric, read from the
    sum and difference tables; C is a leading-column slice of A.

    energy = sum r^2, and the corner count is sum D^2, which counts the same
    quadruples (x + y == z + u exactly when x - z == u - y) and must agree.
    With off = r - [s in 2A], the unordered pairs of one sum number off / 2.

    Classes.  The ordered pairs of ordered pairs (z, x), (y, u) with one
    difference v, C(v) isotropic and v != 0, number sum (D(v)^2 - D(v)).  Such
    a pair with y == x or u == z is a 3-term progression along v, counted
    twice; every other one is a rectangle {x, y}, {z, u} with side v, and a
    rectangle with sides a, b is hit 4 times by each isotropic one of +-a,
    +-b.  So semi-degenerate + 2 degenerate, the isotropic sides of all
    rectangles, is (sum (D^2 - D) - 2T) / 4 for T progressions.

    Degenerate rectangles are the rectangles inside one isotropic line.  Two
    isotropic sides a, b meet at a right angle (on the quadric a.b == 0), so
    they span a totally isotropic subspace.  In dimension <= 3 (the
    paraboloid's corner coordinates, the 2-sphere) such subspaces are lines,
    so a and b are parallel.  In F_p^4 a totally isotropic plane W has
    W-perp == W, and the corner z of a sphere rectangle is orthogonal to both
    sides (|z + a|^2 == |z|^2), so z in W and |z|^2 == 0 != t.  So every
    degenerate rectangle has four collinear points on an isotropic line, and
    the pair route's NotARectangleError cannot arise here.
    """
    d = A.shape[1]
    r, D = _sum_tables(A, p)
    energy, corner = int(np.vdot(r, r)), int(np.vdot(D, D))
    if corner != energy:
        raise ArithmeticError(
            f"energy mismatch: sum table {energy} vs difference table {corner}"
        )
    off = r
    off[tuple((2 * A % p).T)] -= 1
    if (off < 0).any() or (off % 2).any():
        raise ArithmeticError("the sum table is not a table of pair counts")
    m = off // 2
    rectangles = int((m * (m - 1) // 2).sum())
    # the cells v != 0 of F_p^d with |C(v)|^2 == 0
    norm = functools.reduce(np.add.outer, [np.arange(p) ** 2] * C.shape[1]) % p
    isotropic = np.empty((p,) * d, dtype=bool)
    isotropic[...] = (norm == 0).reshape(norm.shape + (1,) * (d - C.shape[1]))
    isotropic.flat[0] = False
    Dv = D[isotropic]
    k0, degenerate, progressions = _line_counts(C, p)
    sides, rest = divmod(int((Dv * (Dv - 1)).sum()) - 2 * progressions, 4)
    if rest:
        raise ArithmeticError(
            f"isotropic difference count {4 * sides + rest} is not 4 per rectangle side")
    semi = sides - 2 * degenerate
    ordinary = rectangles - semi - degenerate
    if min(semi, ordinary) < 0:
        raise ArithmeticError(
            f"negative rectangle classes: ordinary {ordinary}, semi-degenerate {semi}")
    return energy, corner, rectangles, ordinary, semi, degenerate, k0


def _rectangle_report(A: np.ndarray, C: np.ndarray, p: int, quadric: str) -> EnergyReport:
    """The report for the distinct rows A on the quadric, with rectangles,
    side isotropy and k0 read in the corner coordinates C: on the table route
    when its p^d tables are small and its transforms cheaper than the n^2
    pairs, on the pair route otherwise."""
    n, d = A.shape
    table = p**d <= _TABLE_CELLS and d * p ** (d + 1) <= _TABLE_RATIO * n * n
    route = _table_route if table else _pair_route
    energy, corner, rectangles, ordinary, semi, degenerate, k0 = route(A, C, p)
    return EnergyReport(
        energy=energy,
        corner_count=corner,
        size=n,
        rectangles=rectangles,
        ordinary=ordinary,
        semi_degenerate=semi,
        degenerate=degenerate,
        k0=k0,
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
