"""Additive energy on quadrics: rectangle criteria, taxonomy, slice energies
and the Fourier restriction ratio at tiny p.

Energy is the ordered-quadruple count of x + y == z + u.  For sets on the
paraboloid or a sphere the same number is recomputed through the
right-angle corner criterion and the two routes are required to agree;
geometric rectangles are the deduplicated, pairwise-distinct view.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .counting import isotropic_lines
from .field import Prime
from .geom import (
    AffineLine,
    GeometryError,
    Vec,
    as_vec,
    dot,
    norm_sq,
    vadd,
    vsub,
)
from .quadrics import Paraboloid, Sphere, slice_lift


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


def additive_energy(a_points, b_points, p: int) -> int:
    """Ordered quadruples (x, y, z, u) in A x B x A x B with x + y == z + u."""
    p = int(Prime(p))
    A = sorted({as_vec(q, p) for q in a_points})
    B = sorted({as_vec(q, p) for q in b_points})
    sums = Counter(vadd(x, y, p) for x in A for y in B)
    return sum(c * c for c in sums.values())


def max_on_isotropic_line(points, p: int) -> int:
    """Largest number of the points collected by one isotropic line.

    Lines are spanned by point pairs; sets without a null pair score
    min(|A|, 1).
    """
    n = len({as_vec(q, p) for q in points})
    if n < 2:
        return n
    return max(1, isotropic_lines(points, p)[1])


# ---------------------------------------------------------------------------
# rectangle machinery

def _pack_keys(arr: np.ndarray, p: int) -> np.ndarray:
    if p ** arr.shape[-1] >= 1 << 62:
        raise OverflowError("modulus too large for packed point keys")
    keys = np.zeros(arr.shape[:-1], dtype=np.int64)
    for c in range(arr.shape[-1]):
        keys = keys * p + arr[..., c]
    return keys


def _corner_count(full: list[Vec], corner: list[Vec], p: int) -> int:
    """Count triples (x, y, z) with a right corner at z (in corner coords)
    whose fourth vertex x + y - z (in full coords) is back in the set."""
    n = len(full)
    if n == 0:
        return 0
    A = np.array(full, dtype=np.int64)
    C = np.array(corner, dtype=np.int64)
    keys = np.sort(_pack_keys(A, p))
    pair_sums = (A[:, None, :] + A[None, :, :]) % p
    total = 0
    for zi in range(n):
        V = (C[zi] - C) % p
        G = np.zeros((n, n), dtype=np.int64)
        for c in range(C.shape[1]):
            G = (G + np.outer(V[:, c], V[:, c])) % p
        U = (pair_sums - A[zi]) % p
        member = np.isin(_pack_keys(U, p), keys)
        total += int(((G == 0) & member).sum())
    return total


def _classify_structure(diag1: tuple[Vec, Vec], diag2: tuple[Vec, Vec], p: int) -> RectangleClass:
    """Classify a rectangle given its two diagonals (opposite vertex pairs)."""
    x, y = diag1
    z, _u = diag2
    side_a = vsub(x, z, p)  # parallel pair {xz, uy}
    side_b = vsub(y, z, p)  # parallel pair {zy, xu}
    iso_a = norm_sq(side_a, p) == 0
    iso_b = norm_sq(side_b, p) == 0
    if iso_a and iso_b:
        line = AffineLine(p, x, side_a)
        if not (line.contains(y) and line.contains(z) and line.contains(_u)):
            raise NotARectangleError(
                "both side directions isotropic but vertices are not collinear"
            )
        return RectangleClass.DEGENERATE
    if iso_a or iso_b:
        return RectangleClass.SEMI_DEGENERATE
    return RectangleClass.ORDINARY


def classify_rectangle(x: Vec, y: Vec, z: Vec, u: Vec, p: int) -> RectangleClass:
    """Classify the rectangle with diagonals {x, y} and {z, u}.

    The quadruple must satisfy x + y == z + u with pairwise distinct
    vertices and a right angle at every vertex; otherwise
    NotARectangleError is raised.
    """
    p = int(Prime(p))
    x, y = as_vec(x, p), as_vec(y, p, len(x))
    z, u = as_vec(z, p, len(x)), as_vec(u, p, len(x))
    if len({x, y, z, u}) != 4:
        raise NotARectangleError("rectangle vertices must be pairwise distinct")
    if vadd(x, y, p) != vadd(z, u, p):
        raise NotARectangleError("diagonals do not share a midpoint-sum")
    for corner, n1, n2 in ((z, x, y), (u, x, y), (x, z, u), (y, z, u)):
        if dot(vsub(n1, corner, p), vsub(n2, corner, p), p) != 0:
            raise NotARectangleError(f"no right angle at vertex {corner}")
    return _classify_structure((x, y), (z, u), p)


def _rectangle_report(points: list[Vec], corner_coords: list[Vec], p: int, quadric: str) -> EnergyReport:
    n = len(points)
    sums: dict[Vec, list[tuple[Vec, Vec]]] = {}
    for x in points:
        for y in points:
            sums.setdefault(vadd(x, y, p), []).append((x, y))
    energy = sum(len(v) ** 2 for v in sums.values())
    corner = _corner_count(points, corner_coords, p)
    if corner != energy:
        raise ArithmeticError(
            f"energy mismatch: sum grouping {energy} vs corner criterion {corner}"
        )
    proj = dict(zip(points, corner_coords))
    census: Counter = Counter()
    for pairs in sums.values():
        if len(pairs) < 2:
            continue
        for x, y in pairs:
            if x == y:
                continue
            for z, u in pairs:
                if z == u or x in (z, u) or y in (z, u):
                    continue
                census[frozenset((frozenset((x, y)), frozenset((z, u))))] += 1
    counts = {cls: 0 for cls in RectangleClass}
    mults: list[int] = []
    for key, mult in census.items():
        if not 4 <= mult <= 16:
            raise ArithmeticError(f"rectangle hit {mult} times by ordered solutions")
        mults.append(mult)
        d1, d2 = sorted(tuple(sorted(d)) for d in key)
        cls = _classify_structure(
            (proj[d1[0]], proj[d1[1]]), (proj[d2[0]], proj[d2[1]]), p
        )
        counts[cls] += 1
    return EnergyReport(
        energy=energy,
        corner_count=corner,
        size=n,
        rectangles=len(census),
        ordinary=counts[RectangleClass.ORDINARY],
        semi_degenerate=counts[RectangleClass.SEMI_DEGENERATE],
        degenerate=counts[RectangleClass.DEGENERATE],
        k0=max_on_isotropic_line(corner_coords, p),
        quadric=quadric,
        multiplicity_range=(min(mults), max(mults)) if mults else None,
    )


def rectangle_energy_paraboloid(points, p: int) -> EnergyReport:
    """Energy report for a set on the paraboloid; rectangles, side isotropy
    and k0 live in the horizontal projection."""
    p = int(Prime(p))
    pts = sorted({as_vec(q, p) for q in points})
    if not pts:
        return EnergyReport(0, 0, 0, 0, 0, 0, 0, 0, "paraboloid", None)
    par = Paraboloid(p, len(pts[0]))
    for q in pts:
        if not par.contains(q):
            raise GeometryError(f"point {q} is not on the paraboloid")
    horiz = [q[:-1] for q in pts]
    return _rectangle_report(pts, horiz, p, "paraboloid")


def rectangle_energy_sphere(points, p: int, t: int) -> EnergyReport:
    """Energy report for a set on the sphere of radius-square t != 0."""
    p = int(Prime(p))
    if t % p == 0:
        raise GeometryError("sphere energy needs t != 0")
    pts = sorted({as_vec(q, p) for q in points})
    if not pts:
        return EnergyReport(0, 0, 0, 0, 0, 0, 0, 0, "sphere", None)
    sph = Sphere(p, len(pts[0]), t)
    for q in pts:
        if not sph.contains(q):
            raise GeometryError(f"point {q} is not on the sphere")
    return _rectangle_report(pts, pts, p, "sphere")


# ---------------------------------------------------------------------------
# slice energies and the restriction-norm ratio

@dataclass(frozen=True)
class SliceEnergyReport:
    per_height: tuple[tuple[int, int], ...]  # (h, energy of the lifted slice)
    quarter_power_sum: float

    def energies(self) -> dict[int, int]:
        return dict(self.per_height)


def slice_energy_sum(points, p: int) -> SliceEnergyReport:
    """Energy of every lifted horizontal slice and the quarter-power total."""
    p = int(Prime(p))
    pts = sorted({as_vec(q, p) for q in points})
    per: list[tuple[int, int]] = []
    total = 0.0
    heights = sorted({q[-1] for q in pts})
    for h in heights:
        lifted = slice_lift(pts, h, p)
        report = rectangle_energy_paraboloid(lifted, p)
        per.append((h, report.energy))
        total += report.energy ** 0.25
    return SliceEnergyReport(per_height=tuple(per), quarter_power_sum=total)


@dataclass(frozen=True)
class RestrictionReport:
    lhs: float
    rhs: float
    ratio: float | None
    support_size: int
    slice_energies: tuple[tuple[int, int], ...]
    normalization: str


_NORMALIZATION = (
    "ghat(xi) = sum_x g(x) exp(2*pi*i*(x.xi)/p); "
    "|ghat|_{L2}^2 = p^-(d-1) * sum over the p^(d-1) paraboloid points"
)


def fourier_transform(g, p: int, xis) -> np.ndarray:
    """Character sums ghat(xi) = sum_x g(x) e_p(x . xi) over the given xi list."""
    p = int(Prime(p))
    items = [(as_vec(x, p), complex(v)) for x, v in g.items() if v != 0]
    if not items:
        return np.zeros(len(list(xis)), dtype=complex)
    X = np.array([x for x, _ in items], dtype=np.int64)
    vals = np.array([v for _, v in items], dtype=complex)
    Xi = np.array([as_vec(x, p) for x in xis], dtype=np.int64)
    phases = np.zeros((X.shape[0], Xi.shape[0]), dtype=np.int64)
    for c in range(X.shape[1]):
        phases = (phases + X[:, c : c + 1] * Xi[:, c]) % p
    return vals @ np.exp(2j * math.pi * phases / p)


def restriction_ratio(g, p: int, d: int) -> RestrictionReport:
    """Restriction norm of ghat on the dual paraboloid against the slice-energy bound.

    g maps points of F_p^d to complex values with sup norm at most 1.  The
    right-hand side is |S|^(1/2) + |S|^(3/8) * p^(-(d-2)/8) * sqrt of the
    quarter-power slice-energy sum; implied constant fixed at 1.
    """
    p = int(Prime(p))
    if d not in (3, 4):
        raise GeometryError("restriction ratio supports d = 3 and 4")
    support = {}
    for x, v in g.items():
        v = complex(v)
        if v == 0:
            continue
        if abs(v) > 1 + 1e-12:
            raise ValueError(f"sup norm exceeded at {x}: |{v}| > 1")
        key = as_vec(x, p, d)
        if key in support:
            raise ValueError(f"two support points reduce to the same residue {key}")
        support[key] = v
    slice_rep = (
        slice_energy_sum(list(support), p)
        if support
        else SliceEnergyReport((), 0.0)
    )
    if not support:
        return RestrictionReport(0.0, 0.0, None, 0, (), _NORMALIZATION)
    par = Paraboloid(p, d)
    xis = par.points()
    ghat = fourier_transform(support, p, xis)
    lhs = math.sqrt(float(np.sum(np.abs(ghat) ** 2)) / p ** (d - 1))
    s = len(support)
    rhs = s ** 0.5 + s ** 0.375 * p ** (-(d - 2) / 8) * math.sqrt(
        slice_rep.quarter_power_sum
    )
    return RestrictionReport(
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs if rhs > 0 else None,
        support_size=s,
        slice_energies=slice_rep.per_height,
        normalization=_NORMALIZATION,
    )
