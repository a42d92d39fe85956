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
side of energy: E(A) = p^-d sum_xi |F(xi)|^4.  The transforms are taken
modulo a prime q == 1 mod p above n, so every table entry comes out
exactly, with integers only, and 1-D counts on each isotropic line give the
line counts.  The pair route sorts the n^2 ordered pair sums and the n^2
ordered differences, whose runs are the nonzero entries of r and D, and
reads the line counts from the pairs of the isotropic sum runs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .counting import _runs, _scale_canonical, distinct_rows, dot_mod, dot_rows
from .field import MAX_MODULUS, Prime, is_prime
from .geom import GeometryError
from .quadrics import Paraboloid, Sphere, isotropic_directions


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

def _pair_runs(A: np.ndarray, sign: int, p: int) -> tuple[np.ndarray, ...]:
    """(rows, order, bounds): the n^2 rows A[j] + sign A[i] mod p of the
    ordered pairs (i, j) of rows of A, flattened at position i n + j, and the
    order and bounds of their runs of equal rows."""
    n = len(A)
    rows = sign * A[:, None, :] + A
    rows %= p
    rows = rows.reshape(n * n, -1)
    return (rows, *_runs(rows))


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
    order, bounds = _pair_runs(A, 1, p)[1:]
    r = np.diff(bounds)
    # the diagonal pair (i, i) sits at the flat position i (n + 1), alone in
    # its run since 2a == 2b only for a == b (p is odd)
    diag = np.logical_or.reduceat(order % (n + 1) == 0, bounds[:-1])
    I, J = np.divmod(order[bounds[:-1]], n)
    V = C[J] - C[I]
    V %= p
    iso = dot_rows(V, V, p) == 0
    I, J = np.divmod(order[np.repeat(iso, r)], n)
    run = np.repeat(np.flatnonzero(iso), r[iso])
    del order, bounds, V
    later = I < J
    I, J, run = I[later], J[later], run[later]
    # one row (run, C[j] - C[i]) per pair, filled in place so that at most
    # one corner-width temporary meets it
    rows = np.empty((len(I), 1 + C.shape[1]), dtype=np.int64)
    rows[:, 0] = run
    rows[:, 1:] = C[J]
    rows[:, 1:] -= C[I]
    del J, run, later
    rows[:, 1:] %= p
    _scale_canonical(rows[:, 1:], p)
    c = np.diff(_runs(rows)[1])
    degenerate = int((c * (c - 1) // 2).sum())
    rows[:, 0] = I
    k0 = 1 + int(np.diff(_runs(rows)[1]).max(initial=0))
    del I, rows
    V, order, bounds = _pair_runs(A, -1, p)
    D = np.diff(bounds)
    # the zero difference sorts first; the run heads after it are the v != 0
    V = V[order[bounds[1:-1]], : C.shape[1]]
    del order, bounds
    Dv = D[1:][dot_rows(V, V, p) == 0]
    return _report_fields(r, diag, D, Dv, k0, degenerate)


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


def _line_counts(C: np.ndarray, p: int) -> tuple[int, int]:
    """(k0, degenerate) over the isotropic lines of the corner coordinates C:
    the most points of C on one line, and the rectangles inside one line.

    For each isotropic direction w, with w[j] == 1, the rows of C with one
    base C - C[:, j] w lie on one line parallel to w, at parameters C[:, j];
    one sort of the bases' digits, parameter last, groups them.  With the
    parameter sets of the lines holding two points or more as an indicator
    L, the 1-D ordered pair sums give the rectangles: a sum t holds the
    diagonal pair exactly when t / 2 is in L, so its unordered pairs a != b
    number the floor of half its ordered pairs."""
    n, dc = C.shape
    k0, degenerate = min(n, 1), 0
    x = np.arange(p)
    # digits[u, c p + s] = (c - s u) mod p: the coordinate c at parameter s
    # moved back to parameter 0 along a direction whose entry is u
    digits = ((x[None, :, None] - np.multiply.outer(x, x)[:, None, :]) % p).reshape(p, p * p)
    index = C * p
    s_minus_a = (x[:, None] - x) % p
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
        # the ordered pairs (a, b) of one line with a + b == t
        m = np.einsum("ia,ita->it", L, L[:, s_minus_a]) // 2
        degenerate += int((m * (m - 1) // 2).sum())
    return k0, degenerate


def _table_route(A: np.ndarray, C: np.ndarray, p: int) -> tuple[int, ...]:
    """(energy, corner count, rectangles, ordinary, semi-degenerate,
    degenerate, k0) for the distinct rows A on the quadric, read from the
    sum and difference tables; C is a leading-column slice of A."""
    d = A.shape[1]
    # the cells v != 0 of F_p^d with |C(v)|^2 == 0, and the line counts,
    # taken before the tables so that their temporaries never meet them
    norm = functools.reduce(np.add.outer, [np.arange(p) ** 2] * C.shape[1]) % p
    isotropic = np.empty((p,) * d, dtype=bool)
    isotropic[...] = (norm == 0).reshape(norm.shape + (1,) * (d - C.shape[1]))
    isotropic.flat[0] = False
    del norm
    lines = _line_counts(C, p)
    r, D = _sum_tables(A, p)
    diag = np.zeros(r.shape, dtype=bool)
    diag[tuple((2 * A % p).T)] = True
    return _report_fields(r, diag, D, D[isotropic], *lines)


def _rectangle_report(A: np.ndarray, C: np.ndarray, p: int, quadric: str) -> EnergyReport:
    """The report for the distinct rows A on the quadric, with rectangles,
    side isotropy and k0 read in the corner coordinates C: on the table route
    when its p^d tables are small and its transforms cheaper than the n^2
    pairs, on the pair route otherwise."""
    n, d = A.shape
    table = p**d <= _TABLE_CELLS and d * p ** (d + 1) <= _TABLE_RATIO * n * n
    route = _table_route if table else _pair_route
    energy, corner, *counts = route(A, C, p)  # rectangles first, k0 last
    return EnergyReport(energy, corner, n, *counts, quadric, (8, 8) if counts[0] else None)


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
