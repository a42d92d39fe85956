"""Affine geometry over a prime field in dimensions 2, 3, 4.

Points, planes and lines are int rows with entries in [0, p): a point is its
coordinates, a plane its normal followed by its offset, a line its base
followed by its direction.  The counters canonicalise whole arrays of such
rows at once.  AffineLine is the one geometric object, kept as an input
form: a frozen dataclass that puts itself on construction into the
counters' canonical line form.
Canonical scaling throughout: the first nonzero coordinate of a homogeneous
tuple (a direction, or a plane's normal and offset) equals 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Vec = tuple[int, ...]


class GeometryError(ValueError):
    """Invalid geometric input (zero vectors, coincident points, bad dimensions)."""


class DimensionMismatchError(GeometryError):
    pass


class CoincidentPointsError(GeometryError):
    pass


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
        from .counting import _line_canonical  # counting imports this module

        b, d = ([int(c) % self.p for c in v] for v in (self.base, self.direction))
        if not any(d):
            raise GeometryError("zero vector has no canonical scaling")
        if len(b) != len(d):
            raise DimensionMismatchError("base and direction dimensions differ")
        row = _line_canonical(np.array([b + d], dtype=np.int64), self.p)[0].tolist()
        object.__setattr__(self, "base", tuple(row[: len(b)]))
        object.__setattr__(self, "direction", tuple(row[len(b) :]))
