"""The benchmark's three workloads: their inputs, CLI arguments and output checks.

Each workload is a list of CLI invocations.  An invocation carries the
arguments that follow the program name and a check that reads the CSV the
CLI printed and returns an error message, or None when the output is right.

CLI surface kept out on purpose:
  * no `random_3d` / `random_2d` sweep cells and no `max_collinear(sample=...)`:
    they seed `random.Random` with a tuple, which raises TypeError on
    Python 3.11, so the benchmark makes its random inputs itself with
    `random.Random(int)`;
  * no `--strict`: it exits 3 on any flags text containing "=0", including
    the informational T54/T55 branch flag;
  * no `--threads`: the option may be deleted, and one CLI process at a time
    is the closed loop this benchmark measures.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REF_DIR = Path(__file__).resolve().parent / "ref"

SPHERE_PRIMES = (11, 13, 17, 19, 23, 29, 31)
PARABOLOID_P = 17

# random_mixed sizes
RESTRICTED_P = 101
FORBIDDEN_LINES = 40
LOADED_LINES = 20          # forbidden lines that carry points
POINTS_PER_LOADED_LINE = 10
FREE_POINTS = 600
PLANES_PER_FORBIDDEN_LINE = 2
PLANES = 4000
MAX_WEIGHT = 5
PLANAR_P = 1009
PLANAR_POINTS = 4000
PLANAR_LINES = 4000
SEMI_K, SEMI_L, SEMI_P = 20, 40, 101

# Planes and lines the reference is also checked on with the library's naive
# loops each run.  The naive loops over the full inputs take about 50 s, too
# long to repeat in every run, so the full reference is an independent
# histogram count and the naive loops confirm it on a seeded sample.
NAIVE_SAMPLE_PLANES = 60
NAIVE_SAMPLE_LINES = 64


@dataclass
class Invocation:
    args: list[str]
    check: Callable[[str], str | None]


@dataclass
class Workload:
    invocations: list[Invocation]
    # a problem with the inputs or the reference, found before any timing
    setup_error: str | None = None


def build(name: str, seed: int, workdir: Path) -> Workload:
    return {
        "sphere_sweep": _sphere_sweep,
        "paraboloid_energy": _paraboloid_energy,
        "random_mixed": _random_mixed,
    }[name](seed, workdir)


# ---------------------------------------------------------------------------
# output parsing

def _rows(text: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _fields(cell: str) -> dict[str, str]:
    return dict(item.split("=", 1) for item in cell.split(";") if item)


def _expect_pinned(name: str) -> Callable[[str], str | None]:
    expected = (REF_DIR / f"{name}.csv").read_text(encoding="utf-8")

    def check(text: str) -> str | None:
        if text != expected:
            return f"output differs from {REF_DIR.name}/{name}.csv"
        return None

    return check


# ---------------------------------------------------------------------------
# fixed workloads

def _sphere_sweep(seed: int, workdir: Path) -> Workload:
    spec = workdir / "sphere.spec"
    spec.write_text(
        "construction=sphere\ntheorem=T1\np=" + ",".join(map(str, SPHERE_PRIMES)) + "\n",
        encoding="utf-8")
    pinned = _expect_pinned("sphere_sweep")

    def check(text: str) -> str | None:
        rows = _rows(text)
        if [int(r["p"]) for r in rows] != list(SPHERE_PRIMES):
            return "sweep rows do not cover the primes in order"
        for r in rows:
            # every point of F_p^3 lies on p^2 + p + 1 planes of the complete family
            p, q = int(r["p"]), int(_fields(r["params"])["q"])
            if int(r["count"]) != q * (p * p + p + 1):
                return f"p={p}: count {r['count']} != q*(p^2+p+1)"
        return pinned(text)

    return Workload([Invocation(["sweep", str(spec)], check)])


def _paraboloid_energy(seed: int, workdir: Path) -> Workload:
    p = PARABOLOID_P
    cfg = workdir / "paraboloid.cfg"
    lines = [f"p={p} dim=3", "[points]"]
    lines += [f"{x} {y} {(x * x + y * y) % p}" for x in range(p) for y in range(p)]
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = ["energy", str(cfg), "--quadric", "paraboloid", "--theorem", "T53"]
    return Workload([Invocation(args, _expect_pinned("paraboloid_energy"))])


# ---------------------------------------------------------------------------
# random_mixed: inputs

def _inv(a: int, p: int) -> int:
    return pow(a, p - 2, p)


def _canonical_covector(normal: tuple[int, ...], offset: int, p: int):
    """Scale so the first nonzero normal coordinate is 1."""
    lead = next(c for c in normal if c % p)
    s = _inv(lead % p, p)
    return tuple(c * s % p for c in normal), offset * s % p


def _nonzero(rng: random.Random, p: int, dim: int) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randrange(p) for _ in range(dim))
        if any(v):
            return v


def _dot(u, v, p: int) -> int:
    return sum(a * b for a, b in zip(u, v)) % p


def _merge(items) -> dict:
    """Sum the weights of equal keys, as the config parser does."""
    merged: dict = defaultdict(int)
    for key, w in items:
        merged[key] += w
    return dict(merged)


def _restricted_inputs(rng: random.Random):
    p = RESTRICTED_P
    lines = [(tuple(rng.randrange(p) for _ in range(3)), _nonzero(rng, p, 3))
             for _ in range(FORBIDDEN_LINES)]
    points = []
    for base, d in lines[:LOADED_LINES]:
        for t in rng.sample(range(p), POINTS_PER_LOADED_LINE):
            points.append(tuple((b + t * c) % p for b, c in zip(base, d)))
    points += [tuple(rng.randrange(p) for _ in range(3)) for _ in range(FREE_POINTS)]
    planes = []
    for base, d in lines:  # planes through forbidden lines, so the restriction bites
        for _ in range(PLANES_PER_FORBIDDEN_LINE):
            n = _nonzero(rng, p, 3)
            while _dot(n, d, p):
                n = _nonzero(rng, p, 3)
            planes.append((n, _dot(n, base, p)))
    while len(planes) < PLANES:
        planes.append((_nonzero(rng, p, 3), rng.randrange(p)))
    wpoints = _merge((q, rng.randint(1, MAX_WEIGHT)) for q in points)
    wplanes = _merge((_canonical_covector(n, c, p), rng.randint(1, MAX_WEIGHT))
                     for n, c in planes)
    return wpoints, wplanes, lines


def _planar_inputs(rng: random.Random):
    p = PLANAR_P
    points = {(rng.randrange(p), rng.randrange(p)) for _ in range(PLANAR_POINTS)}
    lines = {_canonical_covector(_nonzero(rng, p, 2), rng.randrange(p), p)
             for _ in range(PLANAR_LINES)}
    return sorted(points), sorted(lines)


def _write_config(path: Path, p: int, dim: int, points, planes=(), lines=()) -> None:
    """points/planes are (object, weight) pairs; lines are (base, direction)."""
    out = [f"p={p} dim={dim}", "[points]"]
    out += [" ".join(map(str, q)) + f" w={w}" for q, w in points]
    if planes:
        out.append("[planes]")
        out += [" ".join(map(str, n)) + f" {c} w={w}" for (n, c), w in planes]
    if lines:
        out.append("[lines]")
        out += [" ".join(map(str, b + d)) for b, d in lines]
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# random_mixed: references
#
# The references group planes (lines) by their canonical normal, take each
# point's residue n.q mod p once per normal, and read every plane's offset out
# of a histogram of those residues.  No code is shared with fpgeom's counters.

def _pencil_counts(P: np.ndarray, wq: np.ndarray, planes: dict, p: int) -> tuple[int, int]:
    by_normal: dict = defaultdict(list)
    for (n, c), w in planes.items():
        by_normal[n].append((c, w))
    pairs = weighted = 0
    for n, members in by_normal.items():
        r = P @ np.array(n, dtype=np.int64) % p
        cnt = np.bincount(r, minlength=p)
        wsum = np.zeros(p, dtype=np.int64)
        np.add.at(wsum, r, wq)
        for c, w in members:
            pairs += int(cnt[c])
            weighted += w * int(wsum[c])
    return pairs, weighted


def _restricted_reference(points: dict, planes: dict, lines, p: int) -> tuple[int, int]:
    """(pairs, weighted) of point-plane incidences, less the pairs (q, pi) with
    q on a forbidden line that lies inside pi."""
    qs = list(points)
    P = np.array(qs, dtype=np.int64)
    wq = np.array([points[q] for q in qs], dtype=np.int64)
    pairs, weighted = _pencil_counts(P, wq, planes, p)
    pls = list(planes)
    N = np.array([n for n, _ in pls], dtype=np.int64)
    C = np.array([c for _, c in pls], dtype=np.int64)
    forbidden = set()
    for base, d in lines:
        rel = (P - np.array(base)) % p
        d = np.array(d, dtype=np.int64)
        on_line = np.flatnonzero(~(np.cross(rel, d) % p).any(axis=1))
        in_plane = np.flatnonzero((N @ d % p == 0) & (N @ np.array(base) % p == C))
        forbidden.update((i, j) for i in on_line for j in in_plane)
    for i, j in forbidden:
        pairs -= 1
        weighted -= int(wq[i]) * planes[pls[j]]
    return pairs, weighted


def _planar_reference(points, lines, p: int) -> int:
    P = np.array(points, dtype=np.int64)
    return _pencil_counts(P, np.ones(len(points), dtype=np.int64),
                          {ln: 1 for ln in lines}, p)[0]


def _confirm_with_naive(rng, wpoints, wplanes, lines, planar_points, planar_lines):
    """Check both references against fpgeom's naive loops on a sample."""
    from fpgeom import counting
    from fpgeom.geom import AffineLine

    p = RESTRICTED_P
    forb = tuple(AffineLine(p, b, d) for b, d in lines)
    through = [pl for pl in wplanes if any(
        _dot(pl[0], d, p) == 0 and _dot(pl[0], b, p) == pl[1] for b, d in lines)]
    sample = sorted(set(through) | set(rng.sample(sorted(wplanes), NAIVE_SAMPLE_PLANES)))
    sub = {pl: wplanes[pl] for pl in sample}
    qs = list(wpoints)
    naive = counting.count_point_plane_naive(
        counting.WeightedPointSet.of(qs, p, [wpoints[q] for q in qs], dim=3),
        counting.WeightedPlaneSet.of(sample, p, [sub[pl] for pl in sample], dim=3),
        forb)
    ours = _restricted_reference(wpoints, sub, lines, p)
    if ours != naive:
        return f"restricted reference {ours} != naive {naive} on a plane sample"
    line_sample = rng.sample(planar_lines, NAIVE_SAMPLE_LINES)
    naive2 = counting.count_point_line_2d_naive(
        planar_points, [n + (c,) for n, c in line_sample], PLANAR_P)
    ours2 = _planar_reference(planar_points, line_sample, PLANAR_P)
    if ours2 != naive2:
        return f"planar reference {ours2} != naive {naive2} on a line sample"
    return None


def _row_check(theorem: str, p: int, count: int, params: dict[str, int],
               at_least: dict[str, int] | None = None) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        rows = _rows(text)
        if len(rows) != 1:
            return f"expected one report row, got {len(rows)}"
        row = rows[0]
        got = _fields(row["params"])
        if (row["theorem"], row["p"], row["count"]) != (theorem, str(p), str(count)):
            return (f"row {row['theorem']},{row['p']},{row['count']} "
                    f"!= {theorem},{p},{count}")
        for key, want in params.items():
            if got.get(key) != str(want):
                return f"param {key}={got.get(key)} != {want}"
        for key, low in (at_least or {}).items():
            if int(got.get(key, -1)) < low:
                return f"param {key}={got.get(key)} < {low}"
        return None

    return check


def _random_mixed(seed: int, workdir: Path) -> Workload:
    from fpgeom.constructions import semi_isotropic_set

    rng = random.Random(seed)
    wpoints, wplanes, lines = _restricted_inputs(rng)
    planar_points, planar_lines = _planar_inputs(rng)
    semi = semi_isotropic_set(SEMI_K, SEMI_L, SEMI_P, seed=seed)

    restricted_cfg = workdir / "restricted.cfg"
    _write_config(restricted_cfg, RESTRICTED_P, 3, wpoints.items(), wplanes.items(), lines)
    planar_cfg = workdir / "planar.cfg"
    _write_config(planar_cfg, PLANAR_P, 2, [(q, 1) for q in planar_points],
                  [(ln, 1) for ln in planar_lines])
    semi_cfg = workdir / "semi.cfg"
    _write_config(semi_cfg, SEMI_P, 3, [(q, 1) for q in semi.points])

    pairs, weighted = _restricted_reference(wpoints, wplanes, lines, RESTRICTED_P)
    planar = _planar_reference(planar_points, planar_lines, PLANAR_P)
    invocations = [
        Invocation(
            ["count", str(restricted_cfg), "--restricted", "--theorem", "T1B"],
            # k counts the points loaded onto one forbidden line, at least
            _row_check("T1B", RESTRICTED_P, pairs,
                       {"weighted": weighted, "q": len(wpoints), "pi": len(wplanes)},
                       at_least={"k": POINTS_PER_LOADED_LINE})),
        Invocation(
            ["count", str(planar_cfg), "--theorem", "VINH"],
            _row_check("VINH", PLANAR_P, planar,
                       {"q": len(planar_points), "l": len(planar_lines)})),
        Invocation(
            ["distances", str(semi_cfg), "--theorem", "T42"],
            # squared distances are (a - a')^2 |x|^2 for line indices a, a' in
            # 1..k, so there are k values and a point on an end line pins all k
            _row_check("T42", SEMI_P, SEMI_K,
                       {"s": SEMI_K * SEMI_L, "values": SEMI_K})),
    ]
    error = _confirm_with_naive(rng, wpoints, wplanes, lines, planar_points, planar_lines)
    return Workload(invocations, error)
