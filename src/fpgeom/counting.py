"""Incidence counting engines.

Every counter has two routes: a vectorised exact-integer path (numpy) and a
naive nested-loop path; both produce identical results and tests hold them
to independent oracles.  Inputs are canonicalised weighted sets, so counts
do not depend on input order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import Prime
from .geom import AffineLine, DimensionMismatchError, GeometryError

# numpy's int64 products stay exact below this; larger weighted totals take
# the pure-python route.
_NP_SAFE = 1 << 62


def _packed(cols, n: int) -> list[np.ndarray]:
    """The n rows of the non-negative columns cols (most significant first,
    each read before the next is made) as int64 keys in that order, ordered
    as the rows are: each packs columns in mixed radix (largest entry + 1)
    while the radices' product stays at most 2^63 // n; a larger radix raises."""
    limit = (1 << 63) // max(n, 1)
    keys, span = [], limit + 1
    for col in cols:
        if (radix := int(col.max(initial=0)) + 1) > limit:
            raise OverflowError(f"entry {radix - 1} of {n} rows is at least 2^63 // {n}")
        if span * radix > limit:
            keys.append(col.astype(np.int64))
            span = radix
        else:
            keys[-1] *= radix
            keys[-1] += col
            span *= radix
    return keys or [np.zeros(n, dtype=np.int64)]


def _runs(cols, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of the n rows of the columns cols (as _packed takes
    them) and the bounds of its runs: run g is order[bounds[g]:bounds[g + 1]].
    Each key, least significant first, is sorted as key * n + the row's
    position so far (the top key in place, the others from a copy kept to end
    the runs): the values are distinct, so numpy's unstable sort is stable."""
    keys = _packed(cols, n)
    order = None  # the row at each position once a key is sorted
    new = np.ones(n + 1, dtype=bool)  # the first head and the last end stay set
    for i in range(len(keys) - 1, -1, -1):
        v = keys[i][order] if order is not None else keys[i] if i == 0 else keys[i].copy()
        v *= n
        v += np.arange(n)
        v.sort()
        if i == 0:  # the top key's sorted values end its runs
            top = v // n
            np.not_equal(top[1:], top[:-1], out=new[1:-1])
            del top
        v %= n
        order = v if order is None else order[v]
        del v  # freed before the next pass gathers its key
    for key in keys[1:]:
        new[1:-1] |= np.diff(key[order]) != 0
    return order, np.flatnonzero(new)


def _int_rows(items, p: int, dim: int | None, extra: int, what: str,
              copies: int = 1) -> tuple[int, np.ndarray]:
    """(dim, rows): the items as a new int64 array of rows reduced mod p,
    each copies * dim + extra long; dim defaults to an array's width or the
    first item's."""
    if not isinstance(items, np.ndarray):
        items = [[int(c) % p for c in item] for item in items]
        if dim is None and not items:
            raise ValueError("empty set needs an explicit dimension")
    if dim is None:
        width = items.shape[-1] if isinstance(items, np.ndarray) else len(items[0])
        dim = (width - extra) // copies
    width = copies * dim + extra
    if isinstance(items, np.ndarray):
        if items.ndim != 2 or items.shape[1] != width:
            raise DimensionMismatchError(f"{what} rows are not {dim}-dimensional")
        rows = items.astype(np.int64, order="C")
        rows %= p
        return dim, rows
    for item in items:
        if len(item) != width:
            raise DimensionMismatchError(f"{what} {item} is not {dim}-dimensional")
    return dim, np.array(items, dtype=np.int64).reshape(len(items), width)


def _scale_canonical(rows: np.ndarray, p: int) -> np.ndarray:
    """Scale each row of rows (reduced mod p) in place so its first nonzero
    entry is 1 and return rows; zero rows stay zero.  The scale is the
    entry's Fermat inverse a^(p-2), reduced by _reduce after every product,
    so all products stay below p^2 < 2^62."""
    a = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    scale = np.ones_like(a)
    tmp = np.empty_like(a)
    e = p - 2
    while e:
        if e & 1:
            scale *= a
            _reduce(scale, p, tmp)
        a *= a
        _reduce(a, p, tmp)
        e >>= 1
    rows *= scale[:, None]
    rows %= p  # in place, where _reduce would need a temporary like rows
    return rows


def _line_canonical(rows: np.ndarray, p: int) -> np.ndarray:
    """Put rows base + nonzero direction (reduced mod p) in place into
    AffineLine's canonical form and return them: the direction's first
    nonzero entry scaled to 1, the base moved along the line to 0 there."""
    dim = rows.shape[1] // 2
    B, D = rows[:, :dim], rows[:, dim:]
    _scale_canonical(D, p)
    B -= B[np.arange(len(B)), (D != 0).argmax(axis=1)][:, None] * D
    B %= p
    return rows


# the row layer's one memory bound: a blocked kernel (the S x U table, the
# two censuses) keeps its int64 temporaries near _BLOCK_CELLS cells; a fixed
# size, not a tuning knob.  An engine block is weighed from its plane-index
# table: a cell holds an int64 residue, its product or gathered plane weight,
# an int32 plane index and a hit flag
_BLOCK_CELLS = 1 << 16


def dot_mod(A: np.ndarray, B: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """out[i, j] += A[i].B[j] mod p for rows of A and B with entries in
    [0, p), into a new zero table when out is None; returns out.

    Each column's products are formed in one temporary shaped like out.  A
    product is below p^2 and an entry of out given below 2p, so while
    width * p^2 + 2p stays below 2^63 the columns are summed and reduced
    once; above it out is reduced after every column, which stays below 2^63
    for p < 2^31.  Either way entries of out given below 2p end below p.
    """
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatchError(f"rows of width {A.shape[1]} and {B.shape[1]}")
    if out is None:
        out = np.zeros((len(A), len(B)), dtype=np.int64)
    x = np.empty_like(out)
    once = A.shape[1] * p * p + 2 * p < 1 << 63
    for a, b in zip(A.T, B.T):
        np.multiply.outer(a, b, out=x)
        out += x
        if not once:
            _reduce(out, p, x)
    if once:
        _reduce(out, p, x)
    return out


def _reduce(out: np.ndarray, p: int, tmp: np.ndarray) -> None:
    """out %= p in place for non-negative int64 out, through tmp: numpy
    divides by a scalar about twice as fast as it takes remainders."""
    np.floor_divide(out, p, out=tmp)
    tmp *= p
    out -= tmp


def _pair_values(S: np.ndarray, U: np.ndarray, p: int, a=None, b=None):
    """Yield (start, V), the S x U table in blocks of whole rows of about
    _BLOCK_CELLS cells: V[i, j] == S[start + i].U[j] + a[start + i] + b[j]
    mod p (the offsets a and b, reduced mod p, only when given).  Every block
    is written into one table, so the next block overwrites V."""
    rows = max(1, _BLOCK_CELLS // max(1, len(U)))
    table = np.empty((min(rows, len(S)), len(U)), dtype=np.int64)
    for start in range(0, len(S), rows):
        block = S[start : start + rows]
        V = table[: len(block)]
        if a is None:
            V.fill(0)
        else:
            np.add.outer(a[start : start + rows], b, out=V)
        yield start, dot_mod(block, U, p, V)


def _distance_terms(P: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(U, norms) with |s - t|^2 == s.U[t] + norms[s] + norms[t] mod p."""
    return -2 * P % p, dot_rows(P, P, p)


def dot_rows(U: np.ndarray, V: np.ndarray, p: int) -> np.ndarray:
    """U[i].V[i] mod p for every row index i of U and V with entries in
    [0, p), reduced once per column."""
    out = np.zeros(len(V), dtype=np.int64)
    for a, b in zip(U.T, V.T, strict=True):
        out += a * b
        out %= p
    return out


@dataclass(frozen=True, eq=False)
class _WeightedRows:
    """Distinct canonical int64 rows with positive integer weights, in
    lexicographic order; the rows are read-only.

    Equal input rows merge by summing their weights, so a multiset is
    always represented the same way regardless of input order.
    """

    p: int
    dim: int
    rows: np.ndarray
    weights: tuple[int, ...]

    @classmethod
    def _canonical(cls, p: int, dim: int, rows: np.ndarray, weights, what: str):
        w = (np.ones(len(rows), dtype=np.int64) if weights is None
             else np.array([int(x) for x in weights], dtype=object))
        if len(w) != len(rows):
            raise ValueError(f"weights and {what} differ in length")
        if w.min(initial=1) < 1:
            raise ValueError(f"weights must be positive, got {w.min()}")
        # summed exactly: in int64 below _NP_SAFE, in python ints above it
        w = w.astype(np.int64 if w.sum() < _NP_SAFE else object, copy=False)
        order, bounds = _runs(rows.T, len(rows))
        # rows (a new int64 array) already sorted and distinct are kept as is
        if len(bounds) <= len(rows) or (order != np.arange(len(rows))).any():
            w = np.add.reduceat(w[order], bounds[:-1]) if len(w) else w
            rows = rows[order[bounds[:-1]]]
        del order, bounds  # freed before the weights become python ints
        rows.flags.writeable = False
        return cls(p, dim, rows, tuple(w.tolist()))

    def __eq__(self, other) -> bool:
        return (type(self) is type(other)
                and (self.p, self.dim, self.weights) == (other.p, other.dim, other.weights)
                and np.array_equal(self.rows, other.rows))

    def __len__(self) -> int:
        return len(self.rows)

    def total_weight(self) -> int:
        return sum(self.weights)

    def max_weight(self) -> int:
        return max(self.weights, default=0)


class WeightedPointSet(_WeightedRows):
    """Distinct points with positive integer weights, canonically sorted;
    a row of `rows` is one point."""

    @classmethod
    def of(cls, points, p: int, weights=None, dim: int | None = None) -> "WeightedPointSet":
        """Points given as int sequences or as an int array with one point a row."""
        p = Prime(p)
        dim, rows = _int_rows(points, p, dim, 0, "point")
        return cls._canonical(p, dim, rows, weights, "points")


def distinct_rows(points, p: int, dim: int | None = None) -> np.ndarray:
    """The distinct points reduced mod p as sorted read-only int64 rows, from
    int sequences or an int array; no points give (0, dim or input width) rows."""
    if not isinstance(points, np.ndarray):
        points = list(points)
    if not len(points):
        return np.zeros((0, dim or np.shape(points)[-1]), dtype=np.int64)
    return WeightedPointSet.of(points, p, dim=dim).rows


class WeightedPlaneSet(_WeightedRows):
    """Distinct affine hyperplanes with positive weights, canonically sorted;
    a row of `rows` is a canonical normal followed by the offset."""

    @classmethod
    def of(cls, planes, p: int, weights=None, dim: int | None = None) -> "WeightedPlaneSet":
        """Planes given as (normal, offset) pairs or as an int array whose
        rows are a normal followed by an offset.  Each is scaled so the first
        nonzero normal coordinate is 1."""
        p = Prime(p)
        if not isinstance(planes, np.ndarray):
            planes = [(*normal, offset) for normal, offset in planes]
        dim, rows = _int_rows(planes, p, dim, 1, "plane")
        if not rows[:, :dim].any(axis=1).all():
            raise GeometryError("plane normal must be nonzero")
        # the normal comes first, so its leading coordinate leads the row
        return cls._canonical(p, dim, _scale_canonical(rows, p), weights, "planes")

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(normals, offsets), read-only views of the rows."""
        return self.rows[:, :-1], self.rows[:, -1]


class WeightedLineSet(_WeightedRows):
    """Distinct affine lines with positive weights, canonically sorted; a row
    of `rows` is a base followed by a direction, in AffineLine's canonical
    form."""

    @classmethod
    def of(cls, lines, p: int, weights=None, dim: int | None = None) -> "WeightedLineSet":
        """Lines given as AffineLines, as (base, direction) pairs, as rows of
        a base followed by a direction (a witness, say), or as an int array
        of such rows."""
        p = Prime(p)
        if not isinstance(lines, np.ndarray):
            lines = [_line_items(item, p) for item in lines]
        dim, rows = _int_rows(lines, p, dim, 0, "line", copies=2)
        if not rows[:, dim:].any(axis=1).all():
            raise GeometryError("line direction must be nonzero")
        return cls._canonical(p, dim, _line_canonical(rows, p), weights, "lines")

    def covectors(self) -> np.ndarray:
        """Planar lines as rows (a, b, c) of a*x + b*y == c."""
        if self.dim != 2:
            raise DimensionMismatchError("covector form only defined for planar lines")
        p, B, D = self.p, self.rows[:, :2], self.rows[:, 2:]
        N = np.column_stack([-D[:, 1] % p, D[:, 0]])
        return np.column_stack([N, dot_rows(N, B, p)])


def _line_items(item, p: int) -> tuple[int, ...]:
    """A line's row, base then direction, from any form WeightedLineSet.of takes."""
    if isinstance(item, AffineLine):
        if item.p != p:
            raise ValueError("line modulus differs from set modulus")
        return (*item.base, *item.direction)
    if len(item) != 2:
        return tuple(item)
    base, direction = item
    return (*base, *direction)


@dataclass(frozen=True)
class IncidenceReport:
    """What a count found: the incident pairs and their weighted total, the
    most collinear points k with a witness line, and for a restricted count
    k* and its witness over the lines outside the forbidden family.  A
    witness is a line's canonical row as a tuple of 2d ints, base then
    direction, as in WeightedLineSet.  The sizes and weights of the sets
    counted, and the hypothesis flags they decide, are read from the sets
    themselves."""

    pairs: int
    weighted: int
    k: int
    k_witness: tuple[int, ...] | None
    k_star: int | None = None
    k_star_witness: tuple[int, ...] | None = None


# ---------------------------------------------------------------------------
# core incidence machinery: the normal-pencil engine
#
# Planes sharing a canonical normal form a parallel pencil, so a point's
# residue n.q mod p, taken once per distinct normal, picks out the single
# plane of that pencil through it.  The distinct normals are taken in blocks
# of b = _BLOCK_CELLS // (4p) (one at least), and each block fills one int32
# pencil table of b * p cells, local normal * p + offset -> plane index or
# -1, so a block of residues becomes its plane-index table J with one
# gather.  When one normal's table would not fit a block (p > _BLOCK_CELLS),
# the residues are matched against the sorted int64 keys normal_id * p +
# offset by binary search instead.  Either way memory is O(|points| +
# |planes|) plus a few temporaries of one _BLOCK_CELLS block, and every step
# stays exact in int64 for p < 2^31.

def _incident_pairs(P: np.ndarray, N: np.ndarray, off: np.ndarray, p: int):
    """Yield (rows, J) block by block, rows a slice of the points: J[i, j]
    is the plane of the block's normal j through point rows[i], or -1.

    P holds points as rows, N and off the normals and offsets of a
    WeightedPlaneSet in its sorted order, so the planes of one normal are
    adjacent, the keys normal_id * p + offset ascend as they are, and a key's
    position among a block's keys is its plane's index less the block's first.
    """
    if not len(P) or not len(N):
        return
    new = np.ones(len(N), dtype=bool)
    new[1:] = (N[1:] != N[:-1]).any(axis=1)
    normals = N[new]
    heads = np.append(np.flatnonzero(new), len(N))
    u = len(normals)
    table = None
    if p <= _BLOCK_CELLS:
        b = max(1, _BLOCK_CELLS // (4 * p))
        table = np.empty(min(b, u) * p, dtype=np.int32)
    else:
        b = u  # one block of every normal, searched
    for s in range(0, u, b):
        block = normals[s : s + b]
        lo, hi = heads[s], heads[s + len(block)]
        row_keys = np.arange(len(block), dtype=np.int64) * p
        keys = np.repeat(row_keys, np.diff(heads[s : s + len(block) + 1])) + off[lo:hi]
        if table is not None:
            table.fill(-1)
            table[keys] = np.arange(lo, hi)
        for start, acc in _pair_values(P, block, p):
            acc += row_keys
            if table is None:
                pos = np.searchsorted(keys, acc)  # len(keys) clips to a smaller key
                J = np.where(keys.take(pos, mode="clip") == acc, lo + pos, -1)
                del pos
            else:
                J = table[acc]
            yield slice(start, start + len(acc)), J
        del acc, J  # free this block's tables before the next block's are made


def _weigh(points, planes, blocks) -> tuple[int, int]:
    """(pairs, weighted) over blocks of (rows, J), J[i] the plane indices of
    point rows[i] or -1: the pairs, and the sum of w(q) * w(pi) over them."""
    # int64 products and sums are exact while the weighted total stays below
    # _NP_SAFE; beyond it the weights are held as python ints
    dtype = np.int64 if points.total_weight() * planes.total_weight() < _NP_SAFE else object
    wq, wp0 = np.array(points.weights, dtype=dtype), np.zeros(len(planes) + 1, dtype=dtype)
    wp0[:-1] = planes.weights  # and index -1 reads weight 0
    pairs = weighted = 0
    for rows, J in blocks:
        pairs += int(np.count_nonzero(J >= 0))
        weighted += int(np.dot(wq[rows], wp0[J].sum(axis=1)))
    return pairs, weighted


def weighted_incidences(points: WeightedPointSet, planes: WeightedPlaneSet) -> tuple[int, int]:
    """(pairs, weighted) for points and affine hyperplanes of one dimension:
    the incident pairs, and the sum of w(q) * w(pi) over them."""
    if points.dim != planes.dim:
        raise DimensionMismatchError("point and plane sets differ in dimension")
    if points.p != planes.p:
        raise ValueError("point and plane sets use different moduli")
    return _weigh(points, planes, _incident_pairs(points.rows, *planes.arrays(), points.p))


def _forbidden_pairs(P, N, off, p: int, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pairs of a point on some forbidden line (a canonical row)
    and a plane holding that line, as one _weigh block."""
    pairs = [np.zeros((2, 0), dtype=np.int64)]
    dim = P.shape[1]
    for base, d in zip(lines[:, :dim], lines[:, dim:]):
        # canonical form: d[j] == 1 and base[j] == 0, so q is on the line
        # exactly when q == base + q[j] * d
        j = int((d != 0).argmax())
        on_line = np.flatnonzero(((base + P[:, j : j + 1] * d) % p == P).all(axis=1))
        if not len(on_line):
            continue
        nb, nd = dot_mod(np.stack([base, d]), N, p)
        in_plane = np.flatnonzero((nb == off) & (nd == 0))
        pairs.append([np.repeat(on_line, len(in_plane)), np.tile(in_plane, len(on_line))])
    # a pair routed through two forbidden lines is kept once, as its run's head
    on, held = np.concatenate(pairs, axis=1)
    order, bounds = _runs([on, held], len(on))
    return on[order[bounds[:-1]]], held[order[bounds[:-1]]][:, None]


def _report(points, pairs: int, weighted: int, forbidden=None) -> IncidenceReport:
    """The report of a count, with k from the line census; a restricted
    count (forbidden line rows given) also gets k* over lines outside them."""
    (k, wit), (k_star, wit_star) = _collinearity(points, () if forbidden is None else forbidden)
    restricted = forbidden is not None
    return IncidenceReport(
        pairs=pairs,
        weighted=weighted,
        k=k,
        k_witness=wit,
        k_star=k_star if restricted else None,
        k_star_witness=wit_star if restricted else None,
    )


def count_point_plane(points: WeightedPointSet, planes: WeightedPlaneSet) -> IncidenceReport:
    """Exact weighted and unweighted point-plane incidence counts in F_p^3.

    The weighted total sums w(q) * w(pi) over incident pairs; k is the
    maximum number of collinear distinct points, ignoring weights.
    """
    _require_dim3(points, planes)
    return _report(points, *weighted_incidences(points, planes))


def count_restricted(points: WeightedPointSet, planes: WeightedPlaneSet,
                     forbidden) -> IncidenceReport:
    """Incidence count discarding pairs (q, pi) routed through a forbidden line.

    A pair is discarded when some forbidden line contains q and lies inside
    pi.  k* is the largest number of points on any line outside the
    forbidden family.  Forbidden lines are anything WeightedLineSet.of takes,
    such as the canonical rows a witness or WeightedLineSet.rows holds.
    """
    _require_dim3(points, planes)
    try:
        forb = WeightedLineSet.of(forbidden, points.p, dim=points.dim).rows
    except ValueError as exc:
        if type(exc) is GeometryError:  # a zero direction: no line at all
            raise
        # AffineLines of another modulus, or lines of another dimension
        raise DimensionMismatchError("forbidden line does not match the sets") from exc
    pairs, weighted = weighted_incidences(points, planes)
    # every forbidden pair is incident, so subtracting them is exact
    lost_pairs, lost = _weigh(points, planes,
                              [_forbidden_pairs(points.rows, *planes.arrays(), points.p, forb)])
    return _report(points, pairs - lost_pairs, weighted - lost, forb)


def count_point_plane_naive(points: WeightedPointSet, planes: WeightedPlaneSet,
                            forbidden=()) -> tuple[int, int]:
    """Reference nested-loop route over the sets' rows; returns (pairs,
    weighted).  Forbidden lines are AffineLines, (base, direction) pairs or
    rows of a base then a direction, read as they are: q lies on b + t d
    when every 2 x 2 minor of (q - b, d) vanishes, and the line lies in the
    plane n.x == c when n.b == c and n.d == 0."""
    _require_dim3(points, planes)
    p = points.p

    def dot(u, v) -> int:
        return sum(a * b for a, b in zip(u, v)) % p

    forb = []
    for line in forbidden:
        row = [int(c) % p for c in _line_items(line, p)]
        if len(row) != 6:
            raise DimensionMismatchError(f"forbidden line {row} is not 3-dimensional")
        forb.append((row[:3], row[3:]))
    plane_rows = planes.rows.tolist()
    pairs = weighted = 0
    for q, wq in zip(points.rows.tolist(), points.weights):
        for (*n, c), wp in zip(plane_rows, planes.weights):
            if dot(n, q) != c:
                continue
            if any(dot(n, b) == c and dot(n, d) == 0
                   and all((q[i] - b[i]) * d[j] % p == (q[j] - b[j]) * d[i] % p
                           for i in range(3) for j in range(i + 1, 3))
                   for b, d in forb):
                continue
            pairs += 1
            weighted += wq * wp
    return pairs, weighted


def _require_dim3(points, planes) -> None:
    if points.dim != 3 or planes.dim != 3:
        raise DimensionMismatchError("point-plane counting works in dimension 3")
    if points.p != planes.p:
        raise ValueError("point and plane sets use different moduli")


# ---------------------------------------------------------------------------
# collinearity statistics: the line census
#
# Every statistic about lines through two or more points reads the census.
# The pair census (_line_census) groups each pair of a block from
# pair_blocks by base and canonical direction (first nonzero coordinate 1);
# the census by direction (_direction_lines) groups the rows by (direction,
# base) for a block of whole directions, so each line comes once.  On a set
# of one norm (a central sphere x.x == c) a line b + s.v with v.v != 0 meets
# it in two points at most, so k with nothing excluded, the rich lines and
# the lines on a sphere read only its isotropic lines.  _census holds the one
# route rule, the one-norm test and the size rule: by direction when
# n >= 4 p^max(e, 1), e == d - 2 for the isotropic directions and d - 1 for
# all, where the n x p^e table is at most a quarter of the n^2 / 2 pairs, and
# the pairs below it (p = 2^31 - 1 included); k and k* keep each block's best
# line.  All products stay below p^2 < 2^62: every census is exact in int64
# for p < 2^31.

def pair_blocks(per_base: np.ndarray):
    """Yield (base, rank) arrays that list rank 0 .. per_base[b] - 1 for every
    base b in order, about _BLOCK_CELLS // 16 pairs a block and one base at
    least."""
    # a census pair carries about 16 int64 cells of temporaries
    size = _BLOCK_CELLS // 16
    ends = np.cumsum(per_base)
    start = 0
    while start < len(per_base):
        before = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, before + size, "right")))
        counts = per_base[start:stop]
        base = np.repeat(np.arange(start, stop), counts)
        rank = np.arange(len(base)) - np.repeat(np.cumsum(counts) - counts, counts)
        start = stop
        if len(base):
            yield base, rank


def _groups(P: np.ndarray, I: np.ndarray, J: np.ndarray, p: int):
    """(base, first partner, count, direction) arrays of the pairs (I, J),
    given in (i, j) order with every pair of a base, grouped by base and the
    canonical direction of P[j] - P[i]."""
    D = P[J]
    D -= P[I]
    D %= p
    _scale_canonical(D, p)
    # the runs are stable, so a group's head is its first pair, and the heads
    # in (i, j) order are the groups in (base, first partner) order
    order, bounds = _runs([I, *D.T], len(I))
    count = np.zeros(len(I), dtype=np.int64)
    count[order[bounds[:-1]]] = np.diff(bounds)
    first = np.flatnonzero(count)
    return I[first], J[first], count[first], D[first]


def _line_census(P: np.ndarray, p: int, all_partners: bool = False):
    """Yield (base, first partner, count, direction) arrays, block by block.

    A group gathers the partners j of base i whose difference P[j] - P[i]
    has one canonical direction, so count + 1 rows of P lie on that line
    through P[i].  Every row is a base; its partners are the later rows
    j > i, or every j != i with all_partners.  Groups come in (base, first
    partner) order.
    """
    n = len(P)
    per_base = np.full(n, n - 1) if all_partners else np.arange(n - 1, -1, -1)
    for I, rank in pair_blocks(per_base):
        J = rank + (rank >= I) if all_partners else I + 1 + rank
        yield _groups(P, I, J, p)


def _isotropic_census(P: np.ndarray, p: int, all_partners: bool = False):
    """Yield _line_census(P, p, all_partners)'s groups whose direction is
    isotropic, block by block: the pairs (i, j), j > i or with all_partners
    j != i, with |P[i] - P[j]|^2 == 0 mod p, the zeros of the blocked
    squared-distance table, grouped."""
    U, norms = _distance_terms(P, p)
    for start, V in _pair_values(P, U, p, norms, norms):
        I, J = np.nonzero(V == 0)
        I += start
        kept = J != I if all_partners else J > I
        I, J = I[kept], J[kept]
        if not len(I):
            continue
        # grouped in pair_blocks' chunks of whole bases, as the line census
        # groups, so a table of isotropic pairs stays near its memory
        per_base = np.bincount(I - I[0])
        heads = np.cumsum(per_base) - per_base
        for b, rank in pair_blocks(per_base):
            t = heads[b] + rank
            yield _groups(P, I[t], J[t], p)


def _sqrt_table(p: int) -> np.ndarray:
    """The square roots of each residue mod p (odd) as a (p, 2) table, the
    smaller first and -1 where there is none."""
    x = np.arange(p)
    root = np.full((p, 2), -1)
    root[x * x % p, 2 * x // p] = x
    return root


def _all_rows(p: int, m: int) -> np.ndarray:
    """Every row of F_p^m, in lex order."""
    return np.arange(p**m)[:, None] // p ** np.arange(m - 1, -1, -1) % p


def _norm_rows(p: int, m: int, t: int) -> np.ndarray:
    """The rows x of F_p^m with x.x == t, in lex order: every head of m - 1
    entries with each root y of y^2 == t - head.head."""
    H = _all_rows(p, m - 1)
    y = _sqrt_table(p)[(t - (H * H % p).sum(axis=1)) % p].ravel()
    k = np.flatnonzero(y >= 0)  # head k // 2 with its root y[k]
    return np.column_stack([H[k // 2], y[k]])


def _leading_one(d: int, tails) -> np.ndarray:
    """The width-d rows (0, .., 0, 1, t), t a row of tails(m) for the m entries
    after the 1: by the position of the 1, earliest first, then tails' order."""
    rows = [np.zeros((0, d), dtype=np.int64)]
    for lead in range(d):
        T = tails(d - lead - 1)
        rows.append(np.column_stack([np.zeros((len(T), lead), int), np.ones(len(T), int), T]))
    return np.concatenate(rows)


def isotropic_directions(p: int, d: int) -> np.ndarray:
    """The canonical directions v.v == 0 of F_p^d, about p^(d-2) rows in
    leading-one order, each tail of norm -1 (none is empty) in lex order."""
    return _leading_one(d, lambda m: _norm_rows(p, m, -1) if m else np.zeros((0, 0), int))


def _direction_lines(C: np.ndarray, p: int, W: np.ndarray):
    """Yield (I, s, bounds, W) arrays, block by block: line g of a block holds
    the rows I[bounds[g]:bounds[g + 1]] of C, increasing, at parameters s
    along its direction W[g], one of the canonical directions W; every line
    comes once.  Row a lies on the line of base a - a[j] w at parameter a[j]
    (w[j] == 1 leads w), so one sort of the keys (direction, base) groups a
    block of whole directions, about _BLOCK_CELLS cells of rows and
    directions.  On rows of one norm and isotropic w only the zeros a.w == 0
    of the block's table C.w are kept (|a + s w|^2 == |a|^2 + 2 s a.w);
    otherwise every cell is kept and no table is formed."""
    lead = (W != 0).argmax(axis=1)
    zeros = np.ptp(dot_rows(C, C, p)) == 0 and not dot_rows(W, W, p).any()
    rows = max(1, _BLOCK_CELLS // max(1, len(C)))
    for start in range(0, len(W), rows):
        block = W[start : start + rows]
        if zeros:
            v, I = np.nonzero(dot_mod(block, C, p) == 0)
        else:
            v, I = np.indices((len(block), len(C))).reshape(2, -1)
        v += start
        s = C[I, lead[v]]
        base = C[I] - s[:, None] * W[v]
        base %= p
        order, bounds = _runs([v, *base.T], len(v))
        yield I[order], s[order], bounds, W[v[order[bounds[:-1]]]]


def _census(P: np.ndarray, p: int, rich: bool, all_partners: bool = False):
    """Yield P's lines as _line_census groups, block by block: only the
    isotropic ones when rich (the caller reads only lines of three points or
    more) and P is of one norm.  Past the size rule by direction, each line
    once from its two least rows; below it the pairs with all_partners, from
    _isotropic_census on the isotropic lines and _line_census otherwise."""
    d = P.shape[1]
    one_norm = rich and len(P) > 0 and np.ptp(dot_rows(P, P, p)) == 0
    if 4 * p ** max(d - 2 if one_norm else d - 1, 1) > len(P):
        yield from (_isotropic_census if one_norm else _line_census)(P, p, all_partners)
        return
    W = isotropic_directions(p, d) if one_norm else _leading_one(d, lambda m: _all_rows(p, m))
    for I, _, bounds, W in _direction_lines(P, p, W):
        size = np.diff(bounds)
        head = bounds[:-1][size > 1]
        yield I[head], I[head + 1], size[size > 1] - 1, W[size > 1]


def _collinearity(points: WeightedPointSet,
                  exclude=()) -> tuple[tuple[int, tuple[int, ...] | None], ...]:
    """(k, witness) over all lines and (k*, witness) over lines not in exclude
    (anything WeightedLineSet.of takes), from one pass; a witness is the
    canonical row, as a tuple, of the line of most points with the least
    (base, first partner).  With nothing excluded k asks the census only for
    lines of three points or more: k == 2 keeps the line through rows 0, 1."""
    P, p, n = points.rows, points.p, len(points)
    if n <= 1:
        return (n, None), (n, None)
    banned = set(map(tuple, WeightedLineSet.of(exclude, p, dim=points.dim).rows.tolist()))

    def row(line) -> tuple[int, ...]:
        return tuple(_line_canonical(np.hstack(line)[None], p)[0].tolist())

    # a line is keyed (-size, base * n + first partner): the least key is the best
    best = best_star = ((-1, n * n), None) if banned else ((-2, 1), (P[0], (P[1] - P[0]) % p))
    for base, first, count, D in _census(P, p, not banned):
        (s, t), _ = best_star
        key, at = -1 - count, base * n + first
        beats = np.flatnonzero((key < s) | ((key == s) & (at < t)))
        # best first, until a line outside exclude
        for g in beats[_runs((x[beats] for x in (n + key, base, first)), len(beats))[0]]:
            line = ((int(key[g]), int(at[g])), (P[base[g]], D[g]))
            best = min(best, line, key=lambda item: item[0])
            if not banned or row(line[1]) not in banned:
                best_star = line
                break
    return tuple((-neg, line and row(line)) for (neg, _), line in (best, best_star))


def max_collinear(points, p: int) -> tuple[int, tuple[int, ...]]:
    """Largest number of collinear points and a witness line achieving it:
    the first line to reach it in (base, first partner) order, as its
    canonical row (a tuple of 2d ints, base then direction)."""
    if not isinstance(points, np.ndarray):
        points = list(points)
    if len(points) < 2 or len(points := WeightedPointSet.of(points, p)) < 2:
        raise GeometryError("need at least two distinct points")
    # two distinct points always give a witness line
    return _collinearity(points)[0]


def rich_lines(points, k: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(lines, counts): every line of F_p^d holding at least k of the
    distinct points, as read-only int64 arrays.  A row of lines (m x 2d) is
    a canonical base then direction, as in WeightedLineSet; counts[i] is the
    number of points on line i.  Most points come first, ties in row order."""
    if k < 2:
        raise ValueError("richness threshold must be at least 2")
    P = distinct_rows(points, p)
    dim = P.shape[1]
    rows = [np.zeros((0, 1 + 2 * dim), dtype=np.int64)]  # (n - points, base, direction)
    for base, first, count, D in _census(P, p, k >= 3, all_partners=True):
        # each line once, from its earliest point: a base no partner precedes
        g = (first > base) & (count + 1 >= k)
        line = _line_canonical(np.hstack([P[base[g]], D[g]]), p)
        rows.append(np.column_stack([len(P) - 1 - count[g], line]))
    R = np.concatenate(rows)
    del rows  # the blocks are freed before the reordered copy is made
    R = R[_runs(R.T, len(R))[0]]  # most points first, then in row order
    counts = len(P) - R[:, 0]
    R.flags.writeable = counts.flags.writeable = False
    return R[:, 1:], counts


# ---------------------------------------------------------------------------
# planar point-line incidences

def count_point_line_2d_naive(points, lines, p: int) -> int:
    """Reference loop for planar point-line incidences between the distinct
    points and the distinct lines.  A line is a row (a, b, c) of
    a*x + b*y == c or a row (base, direction), which becomes the covector
    (-d_y, d_x, -d_y b_x + d_x b_y) here; each covector is scaled so its
    first nonzero entry is 1 before equal lines merge."""
    pts = set()
    for q in points:
        if len(q) != 2:
            raise DimensionMismatchError(f"point {tuple(q)} is not 2-dimensional")
        pts.add((int(q[0]) % p, int(q[1]) % p))
    covs = set()
    for row in lines:
        if len(row) == 4:
            bx, by, dx, dy = map(int, row)
            row = (-dy, dx, -dy * bx + dx * by)
        if len(row) != 3:
            raise DimensionMismatchError(f"line {tuple(row)} is not 2-dimensional")
        a, b, c = (int(x) % p for x in row)
        if a == b == 0:
            raise GeometryError("line normal must be nonzero")
        s = pow(a or b, p - 2, p)
        covs.add((a * s % p, b * s % p, c * s % p))
    return sum(1 for x, y in pts for a, b, c in covs if (a * x + b * y - c) % p == 0)
