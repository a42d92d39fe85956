"""Distance sets, distance energies, bilinear-form value sets, the wedge
reduction to weighted point-plane incidences, and right-triangle counts.

All counts are exact; squared distance means the dot-square of the
difference vector, so a "zero distance" can join distinct points when their
difference is isotropic.

Distances and form values come from one pair-value kernel that reads blocks
of rows of the table s.u + a(s) + b(t) mod p from `counting._pair_values`,
the blocked-table generator the incidence engine also iterates: u = M t
gives the form value s^T M t, and u = -2t with a = |s|^2, b = |t|^2 gives
|s - t|^2.  Each row of a block is sorted into runs of equal values, so
pinned counts and E_Delta are read from run heads and lengths, with memory
O(block).  Value sets are the blocks' run values merged into one sorted,
read-only int64 array, and value histograms the same merge with the run
lengths summed.  The tables stay exact in int64 for p < 2^31.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .counting import (
    _NP_SAFE,
    WeightedPlaneSet,
    WeightedPointSet,
    _distance_terms,
    _int_rows,
    _line_census,
    _pair_values,
    _runs,
    _scale_canonical,
    distinct_rows,
    dot_mod,
    dot_rows,
)
from .field import Prime, legendre
from .geom import CoincidentPointsError, GeometryError, Vec


class NullPairError(GeometryError):
    """A construction that needs a non-null point pair received a null one."""


# ---------------------------------------------------------------------------
# the pair-value kernel

def _row_runs(V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort each row of V in place and return the flat positions of its runs
    of equal values, their values and their lengths; runs never cross rows."""
    V.sort(axis=1)
    head = np.ones(V.shape, dtype=bool)
    head[:, 1:] = V[:, 1:] != V[:, :-1]
    heads = np.flatnonzero(head)
    return heads, V.reshape(-1)[heads], np.diff(heads, append=V.size)


def _histogram(runs) -> tuple[np.ndarray, ...]:
    """(values, *counts): the sorted distinct values of runs of arrays
    (values, *counts), whose values may repeat, each with its counts summed;
    runs of values alone give the value set.  Held runs are merged into the
    histogram once they outnumber it, so each run is merged O(log) times and
    memory stays near one block plus twice the histogram.  The arrays are
    read-only; no runs give empty values and counts."""
    held, size = [], 0
    for run in runs:
        # held[0] is the histogram of the runs merged so far; merging before
        # the next run is held leaves the last merge at least one run to add
        if held and size > len(held[0][0]):
            held, size = [_merge_runs(held)], 0
        held.append(run)
        size += len(run[0])
    return _merge_runs(held or [(np.zeros(0, dtype=np.int64),) * 2])


def _merge_runs(held) -> tuple[np.ndarray, ...]:
    """One read-only histogram of runs of (values, *counts)."""
    values, *counts = (np.concatenate(x) for x in zip(*held))
    order, bounds = _runs([values], len(values))
    heads = bounds[:-1]
    merged = (values[order[heads]], *(np.add.reduceat(c[order], heads) for c in counts))
    for x in merged:
        x.flags.writeable = False
    return merged


# ---------------------------------------------------------------------------
# distance sets

@dataclass(frozen=True, eq=False)
class DistanceReport:
    """Squared distances as read-only int64 arrays: the sorted values, where
    0 (each point to itself) comes first, and the number of values pinned at
    each distinct point in sorted order, 0 included; values[1:] and
    pinned_counts - 1 leave the 0 out."""

    values: np.ndarray
    pinned_counts: np.ndarray
    zero_pairs: int  # ordered pairs of distinct points at squared distance 0
    in_semi_isotropic_plane: bool | None


def supported_in_semi_isotropic_plane(points, p: int) -> bool:
    """True when every point lies in one plane orthogonal to an isotropic direction.

    The isotropic y with y.(q - q0) == 0 for every q are the isotropic
    vectors of W-perp, W the span of the differences q - q0: none for rank 3;
    for rank 2 the one normal, if isotropic; for rank 1, W = <w>, the plane
    w-perp holds one exactly when -w.w is zero or a square (the binary form
    on w-perp has discriminant w.w), which Euler's criterion decides (at
    p = 2 every residue is a square, and w-perp always meets the isotropic
    plane (1, 1, 1)-perp); for rank 0, any isotropic vector of F_p^3.
    """
    _, P = _int_rows(points, p, 3, 0, "point")
    if len(P) <= 1:
        return True
    D = (P[1:] - P[0]) % p
    nonzero = D.any(axis=1)
    if not nonzero.any():
        return True  # every ternary form over F_p has an isotropic vector
    w = D[nonzero.argmax()][None]
    # the cross products q x w vanish exactly for the rows parallel to w;
    # each is a difference of two products below p^2, exact in int64
    N = np.cross(D, w) % p
    independent = N.any(axis=1)
    if not independent.any():
        return legendre(-int(dot_rows(w, w, p)[0]), p) >= 0
    normal = N[independent.argmax()][None]
    if dot_mod(D, normal, p).any():
        return False
    return not dot_rows(normal, normal, p).any()


def distance_set(points, p: int) -> DistanceReport:
    """Exact distance set and per-point pinned counts, from the sorted rows
    of the squared-distance table: each block's run heads give the values and
    pinned counts, and its zero runs the null pairs."""
    p = int(Prime(p))
    P = distinct_rows(points, p)
    if len(P) < 2:
        raise GeometryError("need at least two distinct points")
    n, dim = P.shape
    U, norms = _distance_terms(P, p)
    pinned = np.zeros(n, dtype=np.int64)
    zero_pairs = -n  # the distance from each point to itself pairs nothing

    def row_runs():
        nonlocal zero_pairs
        for start, V in _pair_values(P, U, p, norms, norms):
            heads, value, size = _row_runs(V)
            pinned[start : start + len(V)] = np.bincount(heads // n, minlength=len(V))
            zero_pairs += int(size[value == 0].sum())
            yield (value,)

    values = _histogram(row_runs())[0]
    pinned.flags.writeable = False
    return DistanceReport(
        values=values,
        pinned_counts=pinned,
        zero_pairs=zero_pairs,
        in_semi_isotropic_plane=(
            supported_in_semi_isotropic_plane(P, p) if dim == 3 else None
        ),
    )


def _equidistant(P, U, norms, I, J, p: int) -> int:
    """Number of (g, s) with |s - P[I[g]]|^2 == |s - P[J[g]]|^2 != 0."""
    total = 0
    for (_, A), (_, B) in zip(_pair_values(P[I], U, p, norms[I], norms),
                              _pair_values(P[J], U, p, norms[J], norms)):
        total += int(np.count_nonzero((A == B) & (A != 0)))
    return total


def energy_delta(points, p: int, restricted: bool = False) -> int:
    """Number of triples (s, t, t') with |s-t|^2 == |s-t'|^2 != 0.

    The restricted variant additionally requires the pair (t, t') to be
    non-null, dropping equidistant pairs with isotropic difference.  A run
    of c equal nonzero values in the row of s adds c^2; the restricted count
    then subtracts, for each null pair t != t', the points s equidistant
    from both.
    """
    p = int(Prime(p))
    P = distinct_rows(points, p, 3)
    U, norms = _distance_terms(P, p)
    total = 0
    for start, V in _pair_values(P, U, p, norms, norms):
        if restricted:
            I, J = np.nonzero(V == 0)
            I += start
            distinct = I != J
            total -= _equidistant(P, U, norms, I[distinct], J[distinct], p)
        _, value, size = _row_runs(V)
        size = size[value != 0]
        total += int(np.dot(size, size))
    return total


def bisector_plane(t1: Vec, t2: Vec, p: int) -> tuple[Vec, int]:
    """Plane of points equidistant from t1 and t2: 2 s.(t1-t2) == |t1|^2 - |t2|^2,
    as the (normal, offset) pair of ints that WeightedPlaneSet.of takes.

    Raises for coincident points, and for null pairs, where the locus
    degenerates (it then contains the pair itself).
    """
    p = int(Prime(p))
    _, T = _int_rows((t1, t2), p, 3, 0, "point")
    d = (T[:1] - T[1:]) % p
    if not d.any():
        raise CoincidentPointsError("equidistance plane needs two distinct points")
    if not dot_rows(d, d, p).any():
        raise NullPairError(
            f"pair with isotropic difference {tuple(d[0].tolist())} has a degenerate bisector")
    n1, n2 = dot_rows(T, T, p).tolist()
    return tuple((2 * d[0] % p).tolist()), (n1 - n2) % p


# ---------------------------------------------------------------------------
# bilinear forms

@dataclass(frozen=True)
class FormSpec:
    """Non-degenerate bilinear form on F_p^2 given by its 2x2 matrix."""

    p: int
    matrix: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        p = int(Prime(self.p))
        m = tuple(tuple(int(c) % p for c in row) for row in self.matrix)
        if len(m) != 2 or any(len(row) != 2 for row in m):
            raise GeometryError("form matrix must be 2x2")
        if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p == 0:
            raise GeometryError("form matrix is degenerate")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "matrix", m)


def wedge_form(p: int) -> FormSpec:
    return FormSpec(p, ((0, 1), (-1, 0)))


def _form_runs(S: np.ndarray, T: np.ndarray, form: FormSpec):
    """(heads, values, lengths) of the runs of form(s, t) over S x T, each
    block of the table sorted as one row."""
    # the rows M t, so that s.(M t) is the form value
    U = dot_mod(T, np.array(form.matrix), form.p)
    return (_row_runs(V.reshape(1, -1)) for _, V in _pair_values(S, U, form.p))


def form_values(points, form: FormSpec) -> np.ndarray:
    """Exact value set {form(s, t) : s, t in S} as a sorted read-only int64
    array."""
    P = distinct_rows(points, form.p, 2)
    return _histogram(run[1:2] for run in _form_runs(P, P, form))[0]


def form_solution_count(
    s_points, t_points, form: FormSpec, include_zero: bool = False
) -> int:
    """Number of quadruples (s, s', t, t') in S x S x T x T with
    form(s, t) == form(s', t'), nonzero values only unless include_zero.

    The squares of the value histogram over S x T are summed in python ints
    once they could pass int64.
    """
    S, T = distinct_rows(s_points, form.p, 2), distinct_rows(t_points, form.p, 2)
    values, counts = _histogram(run[1:] for run in _form_runs(S, T, form))
    if not include_zero:
        counts = counts[values != 0]
    # the squares sum to at most (|S| |T|)^2
    counts = counts.astype(np.int64 if (len(S) * len(T)) ** 2 < _NP_SAFE else object)
    return int(np.dot(counts, counts))


def wedge_solution_count(s_points, t_points, p: int) -> int:
    """Solutions of s ^ t == s' ^ t' != 0 over S x S x T x T."""
    return form_solution_count(s_points, t_points, wedge_form(p), include_zero=False)


# ---------------------------------------------------------------------------
# the wedge equation as a weighted point-plane system

def wedge_to_incidence(s_points, t_points, p: int) -> tuple[WeightedPointSet, WeightedPlaneSet]:
    """The wedge equation as weighted points and planes of F_p^4.

    The point (s : t') takes every (s, t') in S x T and the plane
    (t-perp : s'-perp) through the origin every (t, s') in T x S, where
    (x, y)-perp = (y, -x); both are scaled so the first nonzero coordinate
    is 1, so pairs that differ by a common dilation share a class, whose
    weight is the number of pairs it absorbs.  Since
    (s : t').(t-perp : s'-perp) == s ^ t - s' ^ t', the weighted incidences
    count the quadruples with s ^ t == s' ^ t', the zero value included:

        weighted == wedge_solution_count(S, T, p) + z^2
                 == form_solution_count(S, T, wedge_form(p), include_zero=True),

    z the number of pairs (s, t) with s ^ t == 0.  Both total weights are
    |S| |T|.
    """
    p = int(Prime(p))
    S, T = distinct_rows(s_points, p, 2), distinct_rows(t_points, p, 2)
    if not (S.any(axis=1).all() and T.any(axis=1).all()):
        raise GeometryError("the reduction needs origin-free input sets")
    points = np.hstack([np.repeat(S, len(T), axis=0), np.tile(T, (len(S), 1))])
    perp_S, perp_T = (np.stack([X[:, 1], -X[:, 0] % p], axis=1) for X in (S, T))
    planes = np.hstack([np.repeat(perp_T, len(S), axis=0), np.tile(perp_S, (len(T), 1)),
                        np.zeros((len(S) * len(T), 1), dtype=np.int64)])
    return (WeightedPointSet.of(_scale_canonical(points, p), p, dim=4),
            WeightedPlaneSet.of(planes, p, dim=4))


# ---------------------------------------------------------------------------
# right triangles in the plane

@dataclass(frozen=True)
class RightTriangleReport:
    """Count of right-angle triples and the per-corner line rows behind it.

    total counts ordered triples (x, y, z) with x != z != y and
    (x - z).(z - y) == 0.  For each corner z and each line l through z
    spanned by the set, n(l) is the number of other points on l; the
    aggregation of n(l) * n(l-perp) over corners reproduces total exactly.
    """

    total: int
    aggregated: int
    # the distinct points as rows, and the census groups as rows
    # (corner index, canonical direction, n(l)) in (corner, direction) order
    corners: np.ndarray = field(repr=False, compare=False)
    groups: np.ndarray = field(repr=False, compare=False)


def _perpendicular(D: np.ndarray, p: int) -> np.ndarray:
    """Canonical directions orthogonal to the canonical planar directions D."""
    return _scale_canonical(np.stack([-D[:, 1] % p, D[:, 0]], axis=1), p)


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


def right_triangle_count(points, p: int) -> RightTriangleReport:
    """Right-angle triples counted twice, independently: directly from the
    Gram-matrix corner form, and by aggregating the line census."""
    p = int(Prime(p))
    P = distinct_rows(points, p, 2)
    n = len(P)
    if n < 3:
        raise GeometryError("need at least three distinct points")
    # the 2n - 1 cells with x == z or y == z of each corner are right too
    M = dot_mod(P, P, p)
    total = sum(int(np.count_nonzero(right_corners(M, z, p))) for z in range(n))
    total -= n * (2 * n - 1)
    aggregated = 0
    groups = []
    for base, _, count, D in _line_census(P, p, all_partners=True):
        # blocks hold whole bases, so a (base, direction) group and the group
        # of its perpendicular direction meet in one run of two rows
        both = np.vstack([D, _perpendicular(D, p)])
        order, bounds = _runs([np.tile(base, 2), *both.T], len(both))
        pair = bounds[:-1][np.diff(bounds) == 2]
        aggregated += int(np.dot(count[order[pair]], count[order[pair + 1] - len(D)]))
        groups.append(np.column_stack([base, D, count]))
    if total != aggregated:
        raise ArithmeticError("right-triangle aggregation diverged from direct count")
    G = np.concatenate(groups)
    return RightTriangleReport(total, aggregated, P, G[_runs(G.T, len(G))[0]])
