"""Additive energy on quadrics: the rectangle criteria and taxonomy.

Energy is the ordered-quadruple count of x + y == z + u.  Every report field
comes from one algebra on the sum and difference counts
r(s) = #{(a, b): a + b == s} and D(v) = #{(a, b): b - a == v}: energy is
sum r^2 and the corner count sum D^2; the rectangles, the geometric
pairwise-distinct view, are the pairs of unordered pairs with one sum; and
their classes by the number of isotropic sides come from D on the isotropic
differences together with counts on the isotropic lines.  On the
paraboloid or a sphere the corner value of a pair (z, x) depends only on
x - z, so sum D^2 is also the number of right corners at z whose fourth
vertex x + y - z is in the set.

For a, b on the quadric, m = (a + b) / 2 (p is odd) and u half their corner
difference, |a|^2 + |b|^2 == 2|m|^2 + 2|u|^2 on the sphere and
a_d + b_d == 2|m'|^2 + 2|u|^2 on the paraboloid.  So b - a is isotropic in
the corner coordinates exactly when m is on the quadric: isotropy depends
only on a + b, and a pair whose midpoint is in the set is isotropic.

Two routes get r, D and the line counts, chosen by the size of the set
against p^d.  The table route reads r and D on all of F_p^d, the Fourier
side of energy, E(A) = p^-d sum_xi |F(xi)|^4, exactly from transforms
modulo a prime q == 1 mod p above n, and the line counts from 1-D sums on
the lines of the census of isotropic lines in `counting`.  The pair route
orders the n^2 ordered pair sums and differences with `counting`'s one
ordering primitive, their coordinates packed into as few int64 keys as fit
(one a coordinate at p = 2^31 - 1), whose runs are the nonzero entries of r
and D, and reads the line counts from the pairs of the isotropic sum runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .counting import (_BLOCK_CELLS, _direction_lines, _runs, _scale_canonical, distinct_rows,
                       dot_mod, isotropic_directions)
from .field import MAX_MODULUS, Prime, is_prime
from .geom import GeometryError
from .quadrics import off_quadric


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


# ---------------------------------------------------------------------------
# the report from the sum and difference counts

def _report_fields(r: np.ndarray, diag: np.ndarray, D: np.ndarray, Dv: np.ndarray,
                   k0: int, degenerate: int) -> tuple[int, ...]:
    """(energy, corner count, rectangles, ordinary, semi-degenerate,
    degenerate, k0) from the sum counts r and the mask diag = [s in 2A] of
    their diagonal pairs, the difference counts D (each given on any cells
    that hold the nonzero ones), D on the isotropic differences v != 0, and the
    isotropic-line counts k0 and degenerate.

    energy = sum r^2, and the corner count is sum D^2, which counts the same
    quadruples (x + y == z + u exactly when x - z == u - y) and must agree.
    With off = r - diag, the unordered pairs of one sum number off / 2.

    Classes.  The ordered pairs of ordered pairs (z, x), (y, u) with one
    difference v, C(v) isotropic and v != 0, number sum (D(v)^2 - D(v)).  Such
    a pair with y == x or u == z is a 3-term progression along v, counted
    twice; every other one is a rectangle {x, y}, {z, u} with side v, and a
    rectangle with sides a, b is hit 4 times by each isotropic one of +-a,
    +-b.  So semi-degenerate + 2 degenerate, the isotropic sides of all
    rectangles, is (sum (D^2 - D) - 2T) / 4 for T progressions.  A pair
    whose midpoint x is in A is isotropic (see the module docstring), so T
    is the number of such ordered pairs a != b, sum off(2x) over x in A.

    Degenerate rectangles are the rectangles inside one isotropic line.  Two
    isotropic sides a, b meet at a right angle (on the quadric a.b == 0), so
    they span a totally isotropic subspace.  In dimension <= 3 (the
    paraboloid's corner coordinates, the 2-sphere) such subspaces are lines,
    so a and b are parallel.  In F_p^4 a totally isotropic plane W has
    W-perp == W, and the corner z of a sphere rectangle is orthogonal to both
    sides (|z + a|^2 == |z|^2), so z in W and |z|^2 == 0 != t.  So every
    rectangle with two isotropic sides has four collinear points on an
    isotropic line.
    """
    energy, corner = int(np.vdot(r, r)), int(np.vdot(D, D))
    if corner != energy:
        raise ArithmeticError(
            f"energy mismatch: sum table {energy} vs difference table {corner}"
        )
    off = r - diag
    if (off < 0).any() or (off % 2).any():
        raise ArithmeticError("the sum table is not a table of pair counts")
    progressions = int(off[diag].sum())
    m = np.floor_divide(off, 2, out=off)  # in place: the unordered pairs of each sum
    rectangles = (int(np.vdot(m, m)) - int(m.sum())) // 2  # sum C(m, 2)
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


# ---------------------------------------------------------------------------
# the pair route
#
# Coordinates stay below p < 2^31 and every product is reduced mod p before
# the next sum, so all of it is exact in int64.

def _pair_columns(A: np.ndarray, sign: int, p: int):
    """Yield the values A[j] + sign A[i] mod p of the ordered pairs (i, j) of
    rows of A at positions i n + j, a coordinate at a time, in one scratch."""
    scratch = np.empty((len(A), len(A)), dtype=np.int64)
    for col in A.T:
        np.add.outer(sign * col, col, out=scratch)
        scratch %= p
        yield scratch.reshape(-1)


def _isotropic(C: np.ndarray, I: np.ndarray, J: np.ndarray, p: int) -> np.ndarray:
    """Whether |C[J[g]] - C[I[g]]|^2 == 0 mod p for each g, a column at a time."""
    norm = np.zeros(len(I), dtype=np.int64)
    for col in C.T:
        norm = (norm + ((col[J] - col[I]) % p) ** 2) % p
    return norm == 0


def _pair_route(A: np.ndarray, C: np.ndarray, p: int) -> tuple[int, ...]:
    """(energy, corner count, rectangles, ordinary, semi-degenerate,
    degenerate, k0) for the distinct rows A on the quadric, with the sum and
    difference counts read from sorts of the n^2 ordered pairs.

    Isotropy depends only on the sum, so it is read once a sum run, on the
    run's head pair, and the pairs i < j of the isotropic runs are the
    isotropic pairs.  Two of them with one sum and one canonical direction
    lie on one isotropic line, through their common midpoint, so a run of c
    of them holds C(c, 2) degenerate rectangles.  The c partners j > i of one
    i along one direction lie on one line with it, and the first point of a
    line has all the others for partners, so k0 is 1 + the longest such run."""
    n = len(A)
    order, bounds = _runs(_pair_columns(A, 1, p), n * n)
    r = np.diff(bounds)
    # the diagonal pair (i, i) sits at the flat position i (n + 1), alone in
    # its run since 2a == 2b only for a == b (p is odd)
    diag = np.logical_or.reduceat(order % (n + 1) == 0, bounds[:-1])
    iso = _isotropic(C, *np.divmod(order[bounds[:-1]], n), p)
    I, J = np.divmod(order[np.repeat(iso, r)], n)
    run = np.repeat(np.flatnonzero(iso), r[iso])
    del order, bounds
    later = I < J
    I, J, run = I[later], J[later], run[later]
    # each pair's canonical direction, with one corner-width temporary at most
    V = C[J]
    V -= C[I]
    del J, later
    V %= p
    _scale_canonical(V, p)
    c = np.diff(_runs([run, *V.T], len(V))[1])
    degenerate = int((c * (c - 1) // 2).sum())
    del run
    k0 = 1 + int(np.diff(_runs([I, *V.T], len(V))[1]).max(initial=0))
    del I, V
    order, bounds = _runs(_pair_columns(A, -1, p), n * n)
    D = np.diff(bounds)
    # the zero difference sorts first; later heads (i, j) have C[j] - C[i] != 0
    I, J = np.divmod(order[bounds[1:-1]], n)
    del order, bounds
    return _report_fields(r, diag, D, D[1:][_isotropic(C, I, J, p)], k0, degenerate)


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


def _table_route(A: np.ndarray, C: np.ndarray, p: int) -> tuple[int, ...]:
    """(energy, corner count, rectangles, ordinary, semi-degenerate,
    degenerate, k0) for the distinct rows A on the quadric, read from the
    sum and difference tables; C is a leading-column slice of A."""
    # the cells v != 0 with |C(v)|^2 == 0 (multiples of isotropic directions)
    # and the line counts, taken before the tables so no temporaries meet them
    W = isotropic_directions(p, C.shape[1])
    isotropic = np.zeros((p,) * A.shape[1], dtype=bool)
    isotropic[tuple((np.arange(1, p)[:, None, None] * W % p).reshape(-1, C.shape[1]).T)] = True
    # the rectangles inside lines of four points or more, from 1-D pair sums
    # of their parameter indicators L in blocks of lines: a sum t holds the
    # diagonal pair exactly when t / 2 is in L, so its unordered pairs a != b
    # number the floor of half its ordered pairs
    k0, degenerate = min(len(C), 1), 0
    t_minus_a = np.subtract.outer(np.arange(p), np.arange(p)) % p
    for _, s, bounds, _ in _direction_lines(C, p, W):
        size = np.diff(bounds)
        k0 = max(k0, int(size.max(initial=0)))
        rich = size > 3
        L = np.zeros((rich.sum(), p), dtype=np.int64)
        L[np.repeat(np.arange(len(L)), size[rich]), s[np.repeat(rich, size)]] = 1
        for B in np.split(L, range(0, len(L), max(1, _BLOCK_CELLS // (p * p)))[1:]):
            m = np.einsum("ia,ita->it", B, B[:, t_minus_a]) // 2
            degenerate += int((m * (m - 1) // 2).sum())
    r, D = _sum_tables(A, p)
    diag = np.zeros(r.shape, dtype=bool)
    diag[tuple((2 * A % p).T)] = True
    return _report_fields(r, diag, D, D[isotropic], k0, degenerate)


def rectangle_energy_paraboloid(points, p: int) -> EnergyReport:
    """Energy report for a set on the paraboloid; rectangles, side isotropy
    and k0 live in the horizontal projection."""
    return _quadric_report(points, int(Prime(p)), None)


def rectangle_energy_sphere(points, p: int, t: int) -> EnergyReport:
    """Energy report for a set on the sphere of radius-square t != 0."""
    p = int(Prime(p))
    if t % p == 0:
        raise GeometryError("sphere energy needs t != 0")
    return _quadric_report(points, p, t)


def _quadric_report(points, p: int, t: int | None) -> EnergyReport:
    """The report for the points, checked on the paraboloid (t None) or the
    sphere |x|^2 == t, read in the corner coordinates: on the table route when
    its p^d tables are small and its transforms cheaper than the n^2 pairs,
    on the pair route otherwise."""
    A = distinct_rows(points, p)
    n, d = A.shape
    quadric = "paraboloid" if t is None else "sphere"
    if d:  # a plain [] has no width to check
        off = off_quadric(A, p, t)
        if off.any():
            raise GeometryError(f"point {tuple(A[off.argmax()].tolist())} is not on the {quadric}")
    if not n:
        return EnergyReport(0, 0, 0, 0, 0, 0, 0, 0)
    table = p**d <= _TABLE_CELLS and d * p ** (d + 1) <= _TABLE_RATIO * n * n
    route = _table_route if table else _pair_route
    energy, corner, *counts = route(A, A[:, :-1] if t is None else A, p)
    return EnergyReport(energy, corner, n, *counts)
