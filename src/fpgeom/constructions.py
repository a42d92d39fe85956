"""Generators for the extremal configurations used in the sharpness sweeps.

Each generator validates its wraparound constraints as hard preconditions
and emits its points, planes and lines as read-only int64 rows, in the
forms the weighted sets' `of` take: a point is its coordinates, a plane its
normal then its offset, a line its base then its direction.  Randomised
variants are seed-driven and deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .counting import WeightedPlaneSet, WeightedPointSet
from .field import Prime, inv, legendre
from .geom import Vec
from .quadrics import lines_on_sphere, sphere_points


class ConstraintError(ValueError):
    """A generator precondition (wraparound bound, feasibility) failed."""


def _nonnegative(count: int, what: str) -> int:
    """A requested object count, which must not be negative."""
    if count < 0:
        raise ConstraintError(f"need a nonnegative {what} count, got {count}")
    return count


def sphere_config(p: int, planes: int = 0, rng=None) -> tuple[WeightedPointSet, WeightedPlaneSet]:
    """The unit sphere of F_p^3 against the complete affine plane family, or
    against `planes` of its planes drawn by rng when 0 < planes < its size."""
    p = int(Prime(p))
    points = WeightedPointSet.of(sphere_points(p, 3, 1), p, dim=3)
    # each canonical normal with each offset c, in the set's own order:
    # (0, 0, 1, c), then (0, 1, b, c), then (1, a, b, c)
    family = np.zeros((p * p + p + 1, p, 4), dtype=np.int64)
    family[..., 3] = np.arange(p)
    family[0, :, 2] = family[1 : p + 1, :, 1] = family[p + 1 :, :, 0] = 1
    family[1:, :, 2] = np.arange(p * p + p)[:, None] % p
    family[p + 1 :, :, 1] = np.arange(p * p)[:, None] // p
    family = WeightedPlaneSet.of(family.reshape(-1, 4), p, dim=3)
    if 0 < _nonnegative(planes, "plane") < len(family):
        # sampling indices picks the planes a sample of the plane list would
        family = WeightedPlaneSet.of(family.rows[rng.sample(range(len(family)), planes)], p, dim=3)
    return points, family


def coprime_lattice(n_max: int, p: int) -> np.ndarray:
    """Points of [1..N]^2 with coprime coordinates, as read-only int64 rows
    in lex order.

    Requires N < sqrt(p)/2, so every pairwise dot product lives in
    [2, 2N^2] below p/2 and no value wraps around.
    """
    p = int(Prime(p))
    if n_max < 1:
        raise ConstraintError("N must be positive")
    if 4 * n_max * n_max >= p:
        raise ConstraintError(f"need N < sqrt(p)/2: N={n_max}, p={p}")
    r = np.arange(1, n_max + 1)
    points = np.column_stack(np.nonzero(np.gcd.outer(r, r) == 1)) + 1
    points.flags.writeable = False
    return points


@dataclass(frozen=True, eq=False)
class ElekesGrid:
    """The uneven grid [1..n] x [1..2n^2] with its n^3 covering lines.

    Every line y = a*x + b (a in [1..n], b in [1..n^2]) meets the grid in
    exactly n points, so the incidence count is n^4.  The points are
    read-only int64 rows in lex order; the lines are read-only int64 covector
    rows (a, -1, -b) of a*x - y == -b, reduced mod p, for a then b increasing.
    """

    points: np.ndarray
    lines: np.ndarray


def elekes_grid(n: int, p: int) -> ElekesGrid:
    p = int(Prime(p))
    if n < 1:
        raise ConstraintError("n must be positive")
    if 2 * n * n >= p:
        raise ConstraintError(f"need p > 2n^2 to avoid wraparound: n={n}, p={p}")
    points = np.column_stack([np.repeat(np.arange(1, n + 1), 2 * n * n),
                              np.tile(np.arange(1, 2 * n * n + 1), n)])
    a = np.repeat(np.arange(1, n + 1), n * n)
    lines = np.column_stack([a, np.full_like(a, p - 1), -np.tile(np.arange(1, n * n + 1), n) % p])
    points.flags.writeable = lines.flags.writeable = False
    return ElekesGrid(points=points, lines=lines)


@dataclass(frozen=True, eq=False)
class SemiIsotropicSet:
    """Points on k parallel isotropic lines inside one semi-isotropic plane,
    as read-only int64 rows, line by line.

    Squared distances collapse to (a - a')^2 * |x|^2, so at most k distinct
    nonzero values occur however the points sit along the lines.
    """

    points: np.ndarray
    isotropic_direction: Vec
    cross_direction: Vec


def semi_isotropic_set(k: int, l: int, p: int, seed: int | None = None) -> SemiIsotropicSet:
    p = int(Prime(p))
    if not 1 <= k <= l:
        raise ConstraintError("need 1 <= k <= l")
    if l > p:
        raise ConstraintError(f"cannot place {l} distinct points on a line over F_{p}")
    if k >= p:
        raise ConstraintError(f"need k < p distinct line offsets, got k={k}")
    y, x = _semi_isotropic_directions(p)
    rng = random.Random(seed)
    # the offsets b of the l points a x + b y on each line a = 1..k; each
    # product is below p^2, so the int64 sum stays below 2 (p - 1)^2 < 2^63
    offsets = [range(1, l + 1) if seed is None else rng.sample(range(p), l) for _ in range(k)]
    points = (np.outer(np.repeat(np.arange(1, k + 1), l), x) + np.outer(offsets, y)) % p
    points.flags.writeable = False
    return SemiIsotropicSet(points=points, isotropic_direction=y, cross_direction=x)


def _semi_isotropic_directions(p: int) -> tuple[Vec, Vec]:
    """(y, x) in closed form: the first isotropic direction y of F_p^3 in
    leading-one order (grouped by the position of the leading 1, earliest
    first, each group in lex order of the tail), and the first direction
    x != y in that order with x.y == 0.  y-perp meets the cone only in
    span(y), so x is not isotropic."""
    if p % 4 == 1:
        # y = (1, 0, i) for the lesser root i of i^2 == -1, a power of the
        # least non-residue; -1/i == i, so y is its own first orthogonal
        # direction (1, 0, -1/i) and x is the next one, (1, 1, i)
        g = next(g for g in range(2, p) if legendre(g, p) == -1)
        i = pow(g, (p - 1) // 4, p)
        i = min(i, p - i)
        return (1, 0, i), (1, 1, i)
    # -1 is no square: y = (1, a, b) for the least a with -1 - a^2 a square
    # and b its lesser root, and x = (1, 0, -1/b), which is not y as a != 0
    a = next(a for a in range(1, p) if legendre(-1 - a * a, p) == 1)
    b = pow(-1 - a * a, (p + 1) // 4, p)
    b = min(b, p - b)
    return (1, a, b), (1, 0, -inv(b, p) % p)


@dataclass(frozen=True, eq=False)
class CylinderSet:
    """k0 points on each of m parallel isotropic generator lines of the
    cylinder cut on the 3-sphere by the orthogonal complement of one of its
    isotropic lines, as read-only int64 rows (k0 m x 4), line by line; the
    generators are read-only int64 rows (m x 8) of a canonical base then
    direction, as lines_on_sphere gives them."""

    points: np.ndarray
    generators: np.ndarray


def cylinder_set(p: int, t: int, k0: int, m: int) -> CylinderSet:
    p = int(Prime(p))
    t %= p
    if t == 0:
        raise ConstraintError("the cylinder lives on a sphere with t != 0")
    if k0 < 1 or m < 1:
        raise ConstraintError("need k0 >= 1 and m >= 1")
    if k0 > p:
        raise ConstraintError(f"a line over F_{p} has only {p} points, asked for {k0}")
    # every sphere |x|^2 == t != 0 of F_p^4 holds (p^2 - 1)(p + 1) lines, so
    # rows[0] exists
    rows = lines_on_sphere(p, 4, t)
    # the axis is the first line on the sphere; with x and u its base and
    # direction, the cylinder's generators are the lines b + s u on the
    # sphere with (b - x).u == 0.  b.u == 0 on every line b + s u on the
    # sphere, the axis too, so they are all the lines parallel to the axis,
    # the axis first
    parallel = rows[(rows[:, 4:] == rows[0, 4:]).all(axis=1)]
    if len(parallel) < m:
        raise ConstraintError(
            f"cylinder offers only {len(parallel)} generators, asked for {m}"
        )
    kept = parallel[:m]
    # the k0 points b + s u, s = 0..k0-1, on each kept line b + s u
    points = (np.repeat(kept[:, :4], k0, axis=0)
              + np.tile(np.arange(k0), m)[:, None] * np.repeat(kept[:, 4:], k0, axis=0)) % p
    points.flags.writeable = kept.flags.writeable = False
    return CylinderSet(points=points, generators=kept)


# ---------------------------------------------------------------------------
# seeded random configurations (CLI construct / sweep fodder)

def random_points(p: int, dim: int, count: int, rng: random.Random) -> np.ndarray:
    """count drawn points as read-only int64 rows (count x dim)."""
    p, count = int(Prime(p)), _nonnegative(count, "point")
    rows = np.array([[rng.randrange(p) for _ in range(dim)] for _ in range(count)],
                    dtype=np.int64).reshape(count, dim)
    rows.flags.writeable = False
    return rows


def random_planes(p: int, dim: int, count: int, rng: random.Random) -> np.ndarray:
    """count drawn planes as read-only int64 rows of a nonzero normal then an
    offset, for WeightedPlaneSet.of; a zero normal is drawn again."""
    p, count = int(Prime(p)), _nonnegative(count, "plane")
    out = []
    while len(out) < count:
        normal = [rng.randrange(p) for _ in range(dim)]
        if any(normal):
            out.append([*normal, rng.randrange(p)])
    rows = np.array(out, dtype=np.int64).reshape(count, dim + 1)
    rows.flags.writeable = False
    return rows


def random_lines(p: int, dim: int, count: int, rng: random.Random) -> np.ndarray:
    """count drawn lines as read-only int64 rows of a base then a nonzero
    direction, for WeightedLineSet.of; the direction is drawn first, and a
    zero one again."""
    p, count = int(Prime(p)), _nonnegative(count, "line")
    out = []
    while len(out) < count:
        direction = [rng.randrange(p) for _ in range(dim)]
        if any(direction):
            out.append([*(rng.randrange(p) for _ in range(dim)), *direction])
    rows = np.array(out, dtype=np.int64).reshape(count, 2 * dim)
    rows.flags.writeable = False
    return rows
