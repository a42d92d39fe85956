"""Affine geometry over a prime field in dimensions 2, 3, 4.

Points are plain int tuples with coordinates in [0, p).  Lines and planes
are frozen dataclasses that canonicalise themselves on construction, so
equality and hashing coincide with geometric identity and deduplication is
exact.  Canonical scaling throughout: the first nonzero coordinate of a
homogeneous tuple (a direction, or a plane's normal and offset) equals 1.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def dim(self) -> int:
        return len(self.direction)

    def contains(self, q: Vec) -> bool:
        q = as_vec(q, self.p, self.dim)
        j = next(i for i, c in enumerate(self.direction) if c != 0)
        t = q[j]  # base[j] == 0 and direction[j] == 1 in canonical form
        return vadd(self.base, smul(t, self.direction, self.p), self.p) == q


# a planar line as a covector
def line_as_covector(line: AffineLine) -> AffinePlane:
    if line.dim != 2:
        raise DimensionMismatchError("covector form only defined for planar lines")
    p = line.p
    n = (-line.direction[1] % p, line.direction[0])
    return AffinePlane(p, n, dot(n, line.base, p))

