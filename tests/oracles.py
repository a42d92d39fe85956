"""Independent nested-loop reference implementations.

Everything here works on raw integer tuples and literal definitions only;
no counting or geometry code from the package is reused, so agreement with
the library is a genuine cross-check.  (The config line reader at the end
builds the package's document; it pins how object lines are read.)
"""

from __future__ import annotations

from collections import Counter
from itertools import product

import numpy as np

from fpgeom.configio import ConfigDoc, ConfigParseError, _parse_header


# ---------------------------------------------------------------------------
# raw predicates

def dot(u, v, p) -> int:
    return sum(a * b for a, b in zip(u, v)) % p


def on_plane(q, normal, offset, p) -> bool:
    return sum(a * b for a, b in zip(normal, q)) % p == offset % p


def line_points(base, direction, p) -> list[tuple[int, ...]]:
    return [
        tuple((b + t * d) % p for b, d in zip(base, direction)) for t in range(p)
    ]


def on_line(q, base, direction, p) -> bool:
    return tuple(q) in line_points(base, direction, p)


def line_in_plane(base, direction, normal, offset, p) -> bool:
    return all(on_plane(x, normal, offset, p) for x in line_points(base, direction, p))


def on_line_by_minors(q, base, direction, p) -> bool:
    """q - base is a multiple of the direction; no enumeration, so any p."""
    second = tuple((b + d) % p for b, d in zip(base, direction))
    return collinear(base, second, q, p)


def line_in_plane_by_two_points(base, direction, normal, offset, p) -> bool:
    """A line lies in a plane exactly when two distinct points of it do."""
    second = tuple((b + d) % p for b, d in zip(base, direction))
    return on_plane(base, normal, offset, p) and on_plane(second, normal, offset, p)


def collinear(a, b, c, p) -> bool:
    u = tuple((x - y) % p for x, y in zip(b, a))
    v = tuple((x - y) % p for x, y in zip(c, a))
    n = len(u)
    return all(
        (u[i] * v[j] - u[j] * v[i]) % p == 0 for i in range(n) for j in range(i + 1, n)
    )


def nsq(v, p) -> int:
    return sum(c * c for c in v) % p


def diff(a, b, p):
    return tuple((x - y) % p for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# canonical weighted sets: the dict merge and tuple sort

def _merge_sorted(keys, weights):
    merged = {}
    for key, w in zip(keys, weights):
        merged[key] = merged.get(key, 0) + w
    keys = sorted(merged)
    return keys, [merged[k] for k in keys]


def canonical_points(points, weights, p):
    """(sorted distinct points, summed weights), coordinates reduced mod p."""
    return _merge_sorted([tuple(c % p for c in q) for q in points], weights)


def canonical_planes(planes, weights, p):
    """(sorted distinct (normal, offset) planes, summed weights), each plane
    scaled so the first nonzero normal coordinate is 1."""
    keys = []
    for normal, offset in planes:
        normal = [c % p for c in normal]
        s = pow(next(c for c in normal if c), p - 2, p)
        keys.append((tuple(c * s % p for c in normal), offset * s % p))
    return _merge_sorted(keys, weights)


# ---------------------------------------------------------------------------
# incidence counters

def count_point_plane(points, weights_q, planes, weights_pi, p):
    """planes: list of (normal, offset). Returns (pairs, weighted)."""
    pairs = weighted = 0
    for q, wq in zip(points, weights_q):
        for (normal, offset), wpi in zip(planes, weights_pi):
            if on_plane(q, normal, offset, p):
                pairs += 1
                weighted += wq * wpi
    return pairs, weighted


def count_restricted(points, weights_q, planes, weights_pi, forbidden, p,
                     on_line=on_line, line_in_plane=line_in_plane):
    """forbidden: list of (base, direction). Literal triple-loop definition.

    The default predicates enumerate all p points of each line; pass the
    `_by_minors` / `_by_two_points` pair for large p.
    """
    pairs = weighted = 0
    for q, wq in zip(points, weights_q):
        for (normal, offset), wpi in zip(planes, weights_pi):
            if not on_plane(q, normal, offset, p):
                continue
            routed = False
            for base, direction in forbidden:
                if on_line(q, base, direction, p) and line_in_plane(
                    base, direction, normal, offset, p
                ):
                    routed = True
                    break
            if not routed:
                pairs += 1
                weighted += wq * wpi
    return pairs, weighted


def max_collinear(points, p) -> int:
    pts = sorted(set(points))
    best = min(len(pts), 2) if len(pts) >= 2 else len(pts)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            c = sum(1 for q in pts if collinear(pts[i], pts[j], q, p))
            best = max(best, c)
    return best


def count_point_line_2d(points, lines, p) -> int:
    """lines: list of (a, b, c) with a*x + b*y == c."""
    return sum(
        1
        for q in points
        for (a, b, c) in lines
        if (a * q[0] + b * q[1]) % p == c % p
    )


def line_point_count(points, a, b, c, p) -> int:
    return sum(1 for q in points if (a * q[0] + b * q[1]) % p == c % p)


# ---------------------------------------------------------------------------
# distances and energies

def distance_values(points, p) -> set[int]:
    return {nsq(diff(s, t, p), p) for s in points for t in points}


def pinned_counts(points, p) -> list[int]:
    return [len({nsq(diff(s, t, p), p) for t in points}) for s in points]


def energy_delta(points, p, restricted=False) -> int:
    total = 0
    for s in points:
        for t in points:
            r1 = nsq(diff(s, t, p), p)
            if r1 == 0:
                continue
            for t2 in points:
                if nsq(diff(s, t2, p), p) != r1:
                    continue
                if restricted and t != t2 and nsq(diff(t, t2, p), p) == 0:
                    continue
                total += 1
    return total


def zero_pairs(points, p) -> int:
    """Ordered pairs of distinct points at squared distance 0."""
    return sum(1 for s in points for t in points if s != t and nsq(diff(s, t, p), p) == 0)


def semi_isotropic_plane(points, p) -> bool:
    """Some nonzero isotropic y in F_p^3 has y.q constant over the points;
    every y is enumerated, so p stays small."""
    points = list(points)
    for y in product(range(p), repeat=3):
        if any(y) and nsq(y, p) == 0:
            if len({sum(a * b for a, b in zip(y, q)) % p for q in points}) <= 1:
                return True
    return False


def additive_energy(A, B, p) -> int:
    total = 0
    for x in A:
        for y in B:
            s = tuple((a + b) % p for a, b in zip(x, y))
            for z in A:
                for u in B:
                    if tuple((a + b) % p for a, b in zip(z, u)) == s:
                        total += 1
    return total


def corner_count(A, C, p) -> int:
    """Triples (x, y, z) of the rows of A whose corner coordinates (the rows
    of C) have (x - z).(y - z) == 0 and whose fourth vertex x + y - z is a
    row of A."""
    A = [tuple(int(c) for c in a) for a in A]
    C = [tuple(int(c) for c in row) for row in C]
    rows = set(A)
    total = 0
    for x, cx in zip(A, C):
        for y, cy in zip(A, C):
            for z, cz in zip(A, C):
                if sum((a - c) * (b - c) for a, b, c in zip(cx, cy, cz)) % p:
                    continue
                if tuple((a + b - c) % p for a, b, c in zip(x, y, z)) in rows:
                    total += 1
    return total


def right_triangles(points, p) -> int:
    total = 0
    for z in points:
        for x in points:
            if x == z:
                continue
            for y in points:
                if y == z:
                    continue
                dx = diff(x, z, p)
                dy = diff(z, y, p)
                if (dx[0] * dy[0] + dx[1] * dy[1]) % p == 0:
                    total += 1
    return total


def right_triangle_tables(points, p):
    """(aggregated count, per-corner tables) over sorted distinct planar
    points: for each corner z the rows (canonical line through z, other
    points on it) in direction order, and the sum of n(l) * n(l-perp)."""
    aggregated, tables = 0, []
    for i, z in enumerate(points):
        groups = direction_groups(points, i, [j for j in range(len(points)) if j != i], p)
        for (a, b), c in groups.items():
            aggregated += c * groups.get(canonical_direction((-b % p, a), p), 0)
        tables.append((z, [(canonical_line(z, d, p), c) for d, c in sorted(groups.items())]))
    return aggregated, tables


def form_apply(m, s, t, p) -> int:
    return (
        s[0] * (m[0][0] * t[0] + m[0][1] * t[1])
        + s[1] * (m[1][0] * t[0] + m[1][1] * t[1])
    ) % p


def form_values(points, m, p) -> set[int]:
    return {form_apply(m, s, t, p) for s in points for t in points}


def wedge_solutions(S, T, p, include_zero=False) -> int:
    total = 0
    for s in S:
        for s2 in S:
            for t in T:
                for t2 in T:
                    v1 = (s[0] * t[1] - s[1] * t[0]) % p
                    v2 = (s2[0] * t2[1] - s2[1] * t2[0]) % p
                    if v1 == v2 and (include_zero or v1 != 0):
                        total += 1
    return total


def wedge_classes(S, T, p):
    """The wedge reduction by dict merge over sorted distinct S and T:
    ((point classes, weights), (plane classes, weights)), a point class the
    projective scaling of (s : t') and a plane class that of
    (t-perp : s'-perp), with (x, y)-perp = (y, -x)."""
    S, T = sorted(set(S)), sorted(set(T))
    points = [canonical_direction((*s, *t2), p) for s in S for t2 in T]
    planes = [canonical_direction((t[1], -t[0] % p, s2[1], -s2[0] % p), p)
              for t in T for s2 in S]
    return _merge_sorted(points, [1] * len(points)), _merge_sorted(planes, [1] * len(planes))


def engg_solutions(S, T, p) -> int:
    """Quadruples with s ^ t + t' ^ s' == 0, zero values included."""
    total = 0
    for s in S:
        for t in T:
            for s2 in S:
                for t2 in T:
                    v = (
                        s[0] * t[1] - s[1] * t[0] + t2[0] * s2[1] - t2[1] * s2[0]
                    ) % p
                    if v == 0:
                        total += 1
    return total


# ---------------------------------------------------------------------------
# quadrics

def sphere_scan(p, d, t) -> list[tuple[int, ...]]:
    return [x for x in product(range(p), repeat=d) if nsq(x, p) == t % p]


def sphere_lines_scan(p, d, t) -> list:
    """Canonical (base, direction) of every line on the sphere |x|^2 == t,
    by scanning every canonical direction and every base zero at its
    leading coordinate; sorted."""
    out = []
    for d_vec in product(range(p), repeat=d):
        if not any(d_vec) or d_vec[next(i for i, c in enumerate(d_vec) if c)] != 1:
            continue
        j = next(i for i, c in enumerate(d_vec) if c)
        for base in product(range(p), repeat=d):
            if base[j] != 0:
                continue  # one canonical base per line
            if all(nsq(x, p) == t % p for x in line_points(base, d_vec, p)):
                out.append((base, d_vec))
    return sorted(out)


def homogeneous_reps(p, length):
    """Every canonical projective representative of a nonzero tuple, lazily,
    in leading-one order: grouped by the position of the leading 1, earliest
    first, each group in lex order of the entries after the 1.  So (1, 0, 0)
    comes first and (0, ..., 0, 1) last."""
    for lead in range(length):
        for tail in product(range(p), repeat=length - lead - 1):
            yield (0,) * lead + (1,) + tail


def semi_isotropic_directions(p):
    """(y, x) from the listing of F_p^3: the first isotropic direction y, and
    the first direction x != y orthogonal to it."""
    y = next(v for v in homogeneous_reps(p, 3) if nsq(v, p) == 0)
    x = next(v for v in homogeneous_reps(p, 3)
             if v != y and sum(a * b for a, b in zip(v, y)) % p == 0)
    return y, x


def cylinder_generators(base, u, p) -> list:
    """Canonical (base, direction) of the isotropic cylinder's generators
    around the axis base + s u on the 3-sphere, sorted: the axis, and for
    each direction v with u.v == 0 and v.v != 0 the line through
    base + beta v parallel to the axis, beta = -2 (base.v) / (v.v) putting
    that point back on the sphere."""
    lines = {canonical_line(base, u, p)}
    for v in homogeneous_reps(p, len(u)):
        vv = nsq(v, p)
        if sum(a * b for a, b in zip(u, v)) % p or vv == 0:
            continue
        beta = -2 * sum(a * b for a, b in zip(base, v)) * pow(vv, p - 2, p) % p
        lines.add(canonical_line(tuple((b + beta * c) % p for b, c in zip(base, v)), u, p))
    return sorted(lines)


def legendre_by_squares(a, p) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if a in {x * x % p for x in range(1, p)} else -1


def sqrt_by_squares(a, p):
    a %= p
    roots = tuple(sorted(x for x in range(p) if x * x % p == a))
    return roots if roots else None


# ---------------------------------------------------------------------------
# line census: the per-pair direction-group loop
#
# Lines come back as canonical (base, direction) tuples: direction scaled so
# its first nonzero coordinate is 1, base zero at that coordinate.

def canonical_direction(v, p):
    lead = next(c for c in v if c % p)
    s = pow(lead, p - 2, p)
    return tuple(c * s % p for c in v)


def canonical_line(base, direction, p):
    d = canonical_direction(direction, p)
    j = next(i for i, c in enumerate(d) if c)
    return tuple((b - base[j] * c) % p for b, c in zip(base, d)), d


def direction_groups(pts, i, partners, p) -> dict:
    """Counts of the partner points by canonical direction from pts[i], in
    order of first sighting."""
    groups: dict = {}
    for j in partners:
        d = canonical_direction(diff(pts[j], pts[i], p), p)
        groups[d] = groups.get(d, 0) + 1
    return groups


def collinearity(pts, p, exclude=()):
    """((k, witness), (k*, witness*)) over sorted distinct pts.

    Bases take their later points as partners; each witness is the first
    line in (base, first partner) order to reach its maximum, and k* skips
    the (base, direction) lines of exclude.
    """
    n = len(pts)
    if n <= 1:
        return (n, None), (n, None)
    banned = {canonical_line(b, d, p) for b, d in exclude}
    best, witness, best_star, witness_star = 1, None, 1, None
    for i in range(n):
        for d, c in direction_groups(pts, i, range(i + 1, n), p).items():
            line = canonical_line(pts[i], d, p)
            if c + 1 > best:
                best, witness = c + 1, line
            if c + 1 > best_star and line not in banned:
                best_star, witness_star = c + 1, line
    return (best, witness), (best_star, witness_star)


def spanned_lines(pts, p) -> dict:
    """Line -> point count, each line entered from its earliest point."""
    out: dict = {}
    for i in range(len(pts)):
        for d, c in direction_groups(pts, i, range(i + 1, len(pts)), p).items():
            out.setdefault(canonical_line(pts[i], d, p), c + 1)
    return out


def isotropic_lines(pts, p):
    """(ordered null pairs, most points on one line spanned by a null pair,
    the smallest such line), by membership counts."""
    null = [(a, b) for a in pts for b in pts if a != b and nsq(diff(b, a, p), p) == 0]
    lines = {canonical_line(a, diff(b, a, p), p) for a, b in null}
    best, witness = 0, None
    for base, d in sorted(lines):
        c = sum(1 for q in pts if on_line_by_minors(q, base, d, p))
        if c > best:
            best, witness = c, (base, d)
    return len(null), best, witness


# ---------------------------------------------------------------------------
# rectangle census: sum groups, one Counter key per rectangle and a
# per-rectangle classification
#
# `corner` gives each point's corner coordinates (the horizontal projection
# on the paraboloid, the point itself on a sphere).

def rectangle_census(points, corner, p):
    """(energy, rectangles, ordinary, semi-degenerate, degenerate,
    (least, most) ordered solutions per rectangle or None)."""
    proj = dict(zip(points, corner))
    sums: dict = {}
    for x in points:
        for y in points:
            sums.setdefault(tuple((a + b) % p for a, b in zip(x, y)), []).append((x, y))
    energy = sum(len(v) ** 2 for v in sums.values())
    census: Counter = Counter()
    for pairs in sums.values():
        for x, y in pairs:
            for z, u in pairs:
                if len({x, y, z, u}) == 4:
                    census[frozenset((frozenset((x, y)), frozenset((z, u))))] += 1
    classes = [0, 0, 0]
    for key in census:
        (x, y), (z, u) = sorted(tuple(sorted(d)) for d in key)
        x, y, z, u = proj[x], proj[y], proj[z], proj[u]
        iso_a = nsq(diff(x, z, p), p) == 0
        iso_b = nsq(diff(y, z, p), p) == 0
        if iso_a and iso_b and not (collinear(x, z, y, p) and collinear(x, z, u, p)):
            raise ValueError("both sides isotropic but the vertices are not collinear")
        classes[iso_a + iso_b] += 1
    mults = census.values()
    return (energy, len(census), *classes,
            (min(mults), max(mults)) if census else None)


# ---------------------------------------------------------------------------
# config text, read line by line: the reference for configio.parse_config.
# It shares the header parser, the error type and the document (whose `of`
# canonicalises) with the package; what it pins is the reading of object
# lines, each on its own, and the first faulty line and its message.

_SECTIONS = ("points", "planes", "lines")


def _section_rules(dim: int) -> dict[str, tuple]:
    """section -> (row width, arity message, columns not all zero, zero message)"""
    return {
        "points": (dim, f"point needs {dim} coordinates", None, None),
        "planes": (dim + 1, f"plane needs {dim} normal coordinates and an offset",
                   slice(dim), "plane normal must be nonzero"),
        "lines": (2 * dim, f"line needs {dim} base and {dim} direction coordinates",
                  slice(dim, None), "zero vector has no canonical scaling"),
    }


def parse_config_lines(text: str):
    """parse_config line by line, raising ConfigParseError at the first
    faulty line."""
    header = None
    section: str | None = None
    rows: dict[str, list[list[int]]] = {name: [] for name in _SECTIONS}
    weights: dict[str, list[int]] = {name: [] for name in _SECTIONS}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            header = p, dim = _parse_header(line, lineno)
            rules = _section_rules(dim)
            continue
        if line.startswith("["):
            name = line.strip("[]").strip().lower()
            if name not in _SECTIONS:
                raise ConfigParseError(f"unknown section [{name}]", lineno)
            section = name
            continue
        if section is None:
            raise ConfigParseError("object before any section header", lineno)
        values, weight = _parse_object_line(line, lineno, p)
        width, arity, nonzero, zero = rules[section]
        if len(values) != width:
            raise ConfigParseError(arity, lineno)
        if zero and not any(values[nonzero]):
            raise ConfigParseError(zero, lineno)
        rows[section].append(values)
        weights[section].append(weight)
    if header is None:
        raise ConfigParseError("empty configuration: missing 'p=... dim=...' header", 0)
    arrays = [np.array(rows[name], dtype=np.int64).reshape(len(rows[name]), rules[name][0])
              for name in _SECTIONS]
    return ConfigDoc.of(p, dim, *arrays, weights=[weights[name] for name in _SECTIONS])


def _parse_object_line(line: str, lineno: int, p: int) -> tuple[list[int], int]:
    """(values reduced mod p, weight) of an object line."""
    weight = 1
    tokens = line.split()
    if tokens and tokens[-1].startswith("w="):
        try:
            weight = int(tokens[-1][2:])
        except ValueError:
            raise ConfigParseError(f"bad weight token {tokens[-1]!r}", lineno)
        if weight < 1:
            raise ConfigParseError("weights must be positive", lineno)
        tokens = tokens[:-1]
    values = []
    for tok in tokens:
        try:
            values.append(int(tok) % p)
        except ValueError:
            raise ConfigParseError(f"expected an integer, got {tok!r}", lineno)
    if not values:
        raise ConfigParseError("empty object line", lineno)
    return values, weight
