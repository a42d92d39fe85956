"""Affine and projective geometry over a prime field in dimensions 2, 3, 4.

Points are plain int tuples with coordinates in [0, p).  Lines, planes and
homogeneous objects are frozen dataclasses that canonicalise themselves on
construction, so equality and hashing coincide with geometric identity and
deduplication is exact.  Canonical scaling throughout: the first nonzero
coordinate of a homogeneous tuple equals 1.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .field import inv

Vec = tuple[int, ...]


class GeometryError(ValueError):
    """Invalid geometric input (zero vectors, coincident points, bad dimensions)."""


class DimensionMismatchError(GeometryError):
    pass


class CoincidentPointsError(GeometryError):
    pass


# ---------------------------------------------------------------------------
# vector helpers (raw int tuples mod p)

def as_vec(q, p: int, dim: int | None = None) -> Vec:
    v = tuple(int(c) % p for c in q)
    if dim is not None and len(v) != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {len(v)}")
    return v


def vadd(u: Vec, v: Vec, p: int) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple((a + b) % p for a, b in zip(u, v))


def vsub(u: Vec, v: Vec, p: int) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple((a - b) % p for a, b in zip(u, v))


def smul(c: int, v: Vec, p: int) -> Vec:
    return tuple(c * a % p for a in v)


def dot(u: Vec, v: Vec, p: int) -> int:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v)) % p


def norm_sq(v: Vec, p: int) -> int:
    return sum(a * a for a in v) % p


def is_zero(v: Vec) -> bool:
    return all(c == 0 for c in v)


def scale_canonical(v: Vec, p: int) -> Vec:
    """Projective representative with first nonzero coordinate equal to 1."""
    v = tuple(int(c) % p for c in v)
    for c in v:
        if c != 0:
            if c == 1:
                return v
            return smul(inv(c, p), v, p)
    raise GeometryError("zero vector has no canonical scaling")


def is_isotropic(v: Vec, p: int) -> bool:
    """True iff the nonzero vector v satisfies v.v == 0.  Zero vectors are rejected."""
    v = as_vec(v, p)
    if is_zero(v):
        raise GeometryError("the zero vector is neither isotropic nor anisotropic")
    return norm_sq(v, p) == 0


def dir_perp(d: Vec, p: int) -> Vec:
    """Canonical planar direction orthogonal to d; a projective involution."""
    d = as_vec(d, p, 2)
    if is_zero(d):
        raise GeometryError("zero direction has no perpendicular")
    return scale_canonical((-d[1] % p, d[0]), p)


# ---------------------------------------------------------------------------
# affine planes and lines

@dataclass(frozen=True, order=True)
class AffinePlane:
    """Affine hyperplane {x : normal . x == offset}, canonically scaled."""

    p: int
    normal: Vec
    offset: int

    def __post_init__(self):
        if is_zero(int(c) % self.p for c in self.normal):
            raise GeometryError("plane normal must be nonzero")
        # the normal leads the row, so its first nonzero entry is scaled to 1
        *n, off = scale_canonical((*self.normal, self.offset), self.p)
        object.__setattr__(self, "normal", tuple(n))
        object.__setattr__(self, "offset", off)

    @property
    def dim(self) -> int:
        return len(self.normal)

    def contains(self, q: Vec) -> bool:
        return dot(self.normal, as_vec(q, self.p, self.dim), self.p) == self.offset

    def contains_line(self, line: "AffineLine") -> bool:
        return self.contains(line.base) and dot(self.normal, line.direction, self.p) == 0


@dataclass(frozen=True, order=True)
class AffineLine:
    """Affine line {base + t * direction}.

    Canonical form: the direction has leading coordinate 1 at some index j
    and the base has coordinate 0 there, so two lines are equal as objects
    exactly when they coincide as point sets.
    """

    p: int
    base: Vec
    direction: Vec

    def __post_init__(self):
        d = scale_canonical(self.direction, self.p)
        b = tuple(int(c) % self.p for c in self.base)
        if len(b) != len(d):
            raise DimensionMismatchError("base and direction dimensions differ")
        j = next(i for i, c in enumerate(d) if c != 0)
        b = vsub(b, smul(b[j], d, self.p), self.p)
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "base", b)

    @classmethod
    def through(cls, q1: Vec, q2: Vec, p: int) -> "AffineLine":
        q1, q2 = as_vec(q1, p), as_vec(q2, p, len(q1))
        d = vsub(q2, q1, p)
        if is_zero(d):
            raise CoincidentPointsError(f"no unique line through coincident points {q1}")
        return cls(p, q1, d)

    @property
    def dim(self) -> int:
        return len(self.direction)

    def contains(self, q: Vec) -> bool:
        q = as_vec(q, self.p, self.dim)
        j = next(i for i, c in enumerate(self.direction) if c != 0)
        t = q[j]  # base[j] == 0 and direction[j] == 1 in canonical form
        return vadd(self.base, smul(t, self.direction, self.p), self.p) == q

    def points(self) -> list[Vec]:
        return [vadd(self.base, smul(t, self.direction, self.p), self.p) for t in range(self.p)]

    def is_isotropic(self) -> bool:
        return norm_sq(self.direction, self.p) == 0


def line_through(q1: Vec, q2: Vec, p: int) -> AffineLine:
    """Canonical affine line containing both (distinct) points."""
    return AffineLine.through(q1, q2, p)


def incident(q: Vec, plane: AffinePlane) -> bool:
    """Point-plane incidence: normal . q == offset."""
    return plane.contains(q)


# line <-> covector conversion in the plane
def line_as_covector(line: AffineLine) -> AffinePlane:
    if line.dim != 2:
        raise DimensionMismatchError("covector form only defined for planar lines")
    p = line.p
    n = (-line.direction[1] % p, line.direction[0])
    return AffinePlane(p, n, dot(n, line.base, p))


def covector_as_line(plane: AffinePlane) -> AffineLine:
    if plane.dim != 2:
        raise DimensionMismatchError("only planar covectors convert to lines")
    p = plane.p
    a, b = plane.normal
    d = (b, -a % p)
    base = (plane.offset * inv(a, p) % p, 0) if a != 0 else (0, plane.offset * inv(b, p) % p)
    return AffineLine(p, base, d)


# ---------------------------------------------------------------------------
# projective objects and the Klein correspondence

@dataclass(frozen=True, order=True)
class ProjPoint:
    """Projective point given by a canonically scaled homogeneous tuple."""

    p: int
    coords: Vec

    def __post_init__(self):
        object.__setattr__(self, "coords", scale_canonical(self.coords, self.p))

    def __len__(self) -> int:
        return len(self.coords)


@dataclass(frozen=True, order=True)
class ProjPlane:
    """Projective hyperplane given by a canonically scaled homogeneous covector."""

    p: int
    coords: Vec

    def __post_init__(self):
        object.__setattr__(self, "coords", scale_canonical(self.coords, self.p))

    def __len__(self) -> int:
        return len(self.coords)


def proj_incident(q: ProjPoint, h: ProjPlane) -> bool:
    return dot(q.coords, h.coords, q.p) == 0


_PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@dataclass(frozen=True, order=True)
class PluckerLine:
    """Line of projective 3-space as a canonical 6-tuple on the Klein quadric.

    Coordinate order (p01, p02, p03, p12, p13, p23); construction enforces
    the quadratic relation p01*p23 - p02*p13 + p03*p12 == 0.
    """

    p: int
    coords: Vec

    def __post_init__(self):
        c = scale_canonical(self.coords, self.p)
        if len(c) != 6:
            raise GeometryError("Plucker coordinates need 6 entries")
        object.__setattr__(self, "coords", c)
        if self.quadric_residual() != 0:
            raise GeometryError(f"{c} violates the Plucker relation mod {self.p}")

    def quadric_residual(self) -> int:
        c, p = self.coords, self.p
        return (c[0] * c[5] - c[1] * c[4] + c[2] * c[3]) % p


def klein_map(a: ProjPoint, b: ProjPoint) -> PluckerLine:
    """Plucker coordinates of the line of P^3 spanned by two distinct points."""
    if a.p != b.p:
        raise GeometryError("mixed moduli")
    p = a.p
    av, bv = a.coords, b.coords
    coords = tuple((av[i] * bv[j] - av[j] * bv[i]) % p for i, j in _PLUCKER_PAIRS)
    if is_zero(coords):
        raise CoincidentPointsError("projectively coincident points span no line")
    return PluckerLine(p, coords)


def plucker_points(line: PluckerLine) -> tuple[ProjPoint, ProjPoint]:
    """Two spanning points of the physical line behind a Klein point.

    The antisymmetric matrix M with M[i][j] = p_ij sends any covector w to
    a point of the line (the intersection with the hyperplane w), so two
    independent nonzero columns of M span the line.
    """
    p, c = line.p, line.coords
    m = [[0] * 4 for _ in range(4)]
    for (i, j), v in zip(_PLUCKER_PAIRS, c):
        m[i][j] = v
        m[j][i] = -v % p
    cols = [tuple(m[i][k] for i in range(4)) for k in range(4)]
    found: list[ProjPoint] = []
    for col in cols:
        if is_zero(col):
            continue
        pt = ProjPoint(p, col)
        if pt not in found:
            found.append(pt)
        if len(found) == 2:
            return found[0], found[1]
    raise GeometryError(f"could not span a line from {c}")  # unreachable for valid input


def plane_point_basis(h: ProjPlane) -> tuple[ProjPoint, ...]:
    """Deterministic spanning points of a projective hyperplane (kernel basis)."""
    p, c = h.p, h.coords
    piv = next(i for i, x in enumerate(c) if x != 0)
    s = inv(c[piv], p)
    basis = []
    for j in range(len(c)):
        if j == piv:
            continue
        v = [0] * len(c)
        v[j] = 1
        v[piv] = -c[j] * s % p
        basis.append(ProjPoint(p, tuple(v)))
    return tuple(basis)


def alpha_beta_meet(q: ProjPoint, h: ProjPlane) -> PluckerLine | None:
    """Klein point witnessing that the line families of q and of h intersect.

    When q lies on h the pencil of lines through q inside h is nonempty; a
    deterministic member (through q and the first independent spanning point
    of h) is returned.  When q is off h the two families are disjoint and the
    result is None.
    """
    if dot(q.coords, h.coords, q.p) != 0:
        return None
    for b in plane_point_basis(h):
        if b.coords != q.coords:
            return klein_map(q, b)
    raise GeometryError("degenerate hyperplane")  # unreachable for valid input


# ---------------------------------------------------------------------------
# isotropy classification in dimension 4

class PlaneType(Enum):
    ORDINARY = "ordinary"
    SEMI_ISOTROPIC = "semi-isotropic"
    FULLY_ISOTROPIC = "fully-isotropic"


def classify_plane4(u: Vec, v: Vec, p: int) -> PlaneType:
    """Isotropy type of the 2-plane of F_p^4 spanned by independent u, v.

    The dot product restricted to the plane has Gram matrix G; the plane is
    fully isotropic when G == 0, semi-isotropic when G has rank 1, ordinary
    when G is invertible.
    """
    u, v = as_vec(u, p, 4), as_vec(v, p, 4)
    if not any((u[i] * v[j] - u[j] * v[i]) % p for i in range(4) for j in range(i + 1, 4)):
        raise GeometryError("spanning vectors are linearly dependent")
    g11, g12, g22 = norm_sq(u, p), dot(u, v, p), norm_sq(v, p)
    if g11 == 0 and g12 == 0 and g22 == 0:
        return PlaneType.FULLY_ISOTROPIC
    if (g11 * g22 - g12 * g12) % p == 0:
        return PlaneType.SEMI_ISOTROPIC
    return PlaneType.ORDINARY


# ---------------------------------------------------------------------------
# null-pair statistics and null triangles

@dataclass(frozen=True)
class NullPairStats:
    """Share of ordered point pairs with isotropic difference, plus the
    largest number of input points collected by one isotropic line."""

    ordered_null_pairs: int
    ordered_pairs: int
    fraction: Fraction
    max_on_isotropic_line: int
    witness: AffineLine | None


def null_pair_stats(points, p: int) -> NullPairStats:
    # the line census lives in counting, which builds on this module
    from .counting import distinct_rows, isotropic_lines

    n = len(distinct_rows(points, p))
    if n < 2:
        raise GeometryError("need at least two points")
    null_pairs, best, witness = isotropic_lines(points, p)
    return NullPairStats(
        ordered_null_pairs=2 * null_pairs,
        ordered_pairs=n * (n - 1),
        fraction=Fraction(2 * null_pairs, n * (n - 1)),
        max_on_isotropic_line=best,
        witness=witness,
    )


@dataclass(frozen=True)
class NullTriangleReport:
    is_null_triangle: bool
    side_isotropy: tuple[bool, bool, bool]
    collinear: bool | None
    line: AffineLine | None


def null_triangle_check(r: Vec, s: Vec, t: Vec, p: int) -> NullTriangleReport:
    """Check whether all three sides of the triangle r, s, t are isotropic.

    A positive answer comes with the collinearity witness: in three
    dimensions such triples necessarily sit on a single isotropic line.
    """
    r, s, t = as_vec(r, p), as_vec(s, p, len(r)), as_vec(t, p, len(r))
    if r == s or s == t or r == t:
        raise CoincidentPointsError("triangle vertices must be pairwise distinct")
    sides = (vsub(s, r, p), vsub(t, s, p), vsub(r, t, p))
    iso = tuple(norm_sq(d, p) == 0 for d in sides)
    if not all(iso):
        return NullTriangleReport(False, iso, None, None)
    line = AffineLine.through(r, s, p)
    return NullTriangleReport(True, iso, line.contains(t), line if line.contains(t) else None)


# ---------------------------------------------------------------------------
# exhaustive enumerations (desk-scale p)

def iter_homogeneous_reps(p: int, length: int) -> Iterator[Vec]:
    """All canonical projective representatives of nonzero tuples, in lex
    order, one at a time."""
    for lead in range(length):
        head = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=length - lead - 1):
            yield head + tail


def homogeneous_reps(p: int, length: int) -> list[Vec]:
    """All canonical projective representatives of nonzero tuples, in lex order."""
    return list(iter_homogeneous_reps(p, length))


def isotropic_directions(p: int, d: int) -> list[Vec]:
    return [v for v in homogeneous_reps(p, d) if norm_sq(v, p) == 0]


def proj_points(p: int, length: int = 4) -> list[ProjPoint]:
    return [ProjPoint(p, c) for c in homogeneous_reps(p, length)]


def proj_planes(p: int, length: int = 4) -> list[ProjPlane]:
    return [ProjPlane(p, c) for c in homogeneous_reps(p, length)]


def proj_lines(p: int) -> list[PluckerLine]:
    """Every line of projective 3-space, via Klein images of point pairs."""
    pts = proj_points(p)
    out = {klein_map(a, b) for a, b in itertools.combinations(pts, 2)}
    return sorted(out)
