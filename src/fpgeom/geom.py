"""Affine geometry over a prime field in dimensions 2, 3, 4.

Points, planes and lines are int rows with entries in [0, p): a point is its
coordinates, a plane its normal followed by its offset, a line its base
followed by its direction.  The counters canonicalise whole arrays of such
rows at once.  AffineLine is the one geometric object, kept as an input
form: a frozen dataclass that canonicalises itself on construction.
Canonical scaling throughout: the first nonzero coordinate of a homogeneous
tuple (a direction, or a plane's normal and offset) equals 1.
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

def vsub(u: Vec, v: Vec, p: int) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple((a - b) % p for a, b in zip(u, v))


def smul(c: int, v: Vec, p: int) -> Vec:
    return tuple(c * a % p for a in v)


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
# affine lines

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
