"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is either exact combinatorics or an
independently coded nested-loop oracle evaluated in-place.
"""

import json

import oracles
from conftest import random_distinct_points, random_raw_lines, random_raw_planes, rng_for, tuples
from fpgeom.cli import main
from fpgeom.constructions import (
    coprime_lattice,
    elekes_grid,
    semi_isotropic_set,
    sphere_config,
)
from fpgeom.counting import (
    WeightedPlaneSet,
    WeightedPointSet,
    count_point_plane,
    count_restricted,
    max_collinear,
    weighted_incidences,
)
from fpgeom.energy import rectangle_energy_paraboloid, rectangle_energy_sphere
from fpgeom.erdos import (
    FormSpec,
    distance_set,
    energy_delta,
    form_solution_count,
    right_triangle_count,
    wedge_solution_count,
    wedge_to_incidence,
)
from fpgeom.field import is_prime, legendre
from fpgeom.geom import AffineLine
from fpgeom.quadrics import (
    lines_on_sphere,
    paraboloid_lift,
    sphere_points,
)

PRIMES_CYCLE = (5, 7, 11, 31)


def announce(number: int, message: str) -> None:
    print(f"ACCEPTANCE C{number:02d} PASS: {message}")


def test_c02_point_plane_oracle_equivalence():
    checked = 0
    for i in range(100):
        rng = rng_for("acc-cpp", i)
        p = PRIMES_CYCLE[i % 4]
        if i >= 96:
            nq, npl = rng.randrange(250, 400), rng.randrange(300, 501)
        else:
            nq, npl = rng.randrange(1, 80), rng.randrange(1, 80)
        pts = random_distinct_points(rng, p, 3, nq)
        raw_planes = random_raw_planes(rng, p, 3, npl)
        wq = [rng.randrange(1, 5) for _ in pts]
        wp = [rng.randrange(1, 5) for _ in raw_planes]
        Q = WeightedPointSet.of(pts, p, weights=wq, dim=3)
        Pi = WeightedPlaneSet.of(raw_planes, p, weights=wp, dim=3)
        rep = count_point_plane(Q, Pi)
        raw = [(tuple(r[:-1]), r[-1]) for r in Pi.rows.tolist()]
        pts = list(map(tuple, Q.rows.tolist()))
        pairs, weighted = oracles.count_point_plane(pts, Q.weights, raw, Pi.weights, p)
        assert (rep.pairs, rep.weighted) == (pairs, weighted)
        checked += 1
    assert checked == 100
    announce(2, "point-plane and weighted counts equal the nested-loop oracle on 100 seeded configs")


def test_c02_restricted_oracle_equivalence():
    for i in range(100):
        rng = rng_for("acc-restricted", i)
        p = PRIMES_CYCLE[i % 4]
        pts = random_distinct_points(rng, p, 3, rng.randrange(2, 35))
        raw_planes = random_raw_planes(rng, p, 3, rng.randrange(1, 35))
        lines = [AffineLine(p, b, d) for b, d in random_raw_lines(rng, p, 3, rng.randrange(1, 5))]
        lines.append(AffineLine(p, pts[0], oracles.diff(pts[1], pts[0], p)) if len(pts) > 1
                     else AffineLine(p, pts[0], (1, 0, 0)))
        Q = WeightedPointSet.of(pts, p, weights=[rng.randrange(1, 4) for _ in pts], dim=3)
        Pi = WeightedPlaneSet.of(raw_planes, p, dim=3)
        rep = count_restricted(Q, Pi, lines)
        raw = [(tuple(r[:-1]), r[-1]) for r in Pi.rows.tolist()]
        raw_l = [(l.base, l.direction) for l in lines]
        pts = list(map(tuple, Q.rows.tolist()))
        pairs, weighted = oracles.count_restricted(pts, Q.weights, raw, Pi.weights, raw_l, p)
        assert (rep.pairs, rep.weighted) == (pairs, weighted)
    announce(2, "restricted counts equal the literal triple-loop oracle on 100 seeded configs")


def test_c02_point_line_oracle_equivalence():
    for i in range(100):
        rng = rng_for("acc-ptline", i)
        p = PRIMES_CYCLE[i % 4]
        if i >= 97:
            nq, nl = rng.randrange(200, 501), rng.randrange(100, 300)
        else:
            nq, nl = rng.randrange(1, 70), rng.randrange(1, 50)
        pts = random_distinct_points(rng, p, 2, nq)
        lines = set()
        for _ in range(nl):
            a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
            if (a, b) != (0, 0):
                lines.add((a, b, c))
        # the engine merges equal lines, the oracle reads them once each
        dedup = [n + (c,) for n, c in oracles.canonical_planes(
            [((a, b), c) for a, b, c in lines], [1] * len(lines), p)[0]]
        L = WeightedPlaneSet.of([((a, b), c) for a, b, c in lines], p, dim=2)
        got = weighted_incidences(WeightedPointSet.of(pts, p, dim=2), L)[0]
        assert got == oracles.count_point_line_2d(pts, dedup, p)
    announce(2, "planar point-line counts equal the nested-loop oracle on 100 seeded configs")


def test_c02_distance_energy_oracle_equivalence():
    for i in range(100):
        rng = rng_for("acc-edelta", i)
        p = PRIMES_CYCLE[i % 4]
        pts = random_distinct_points(rng, p, 3, rng.randrange(2, 22))
        assert energy_delta(pts, p) == oracles.energy_delta(pts, p)
        assert energy_delta(pts, p, restricted=True) == oracles.energy_delta(pts, p, restricted=True)
    announce(2, "distance energies (plain and restricted) equal the triple-loop oracle on 100 seeded configs")


def test_c02_quadric_energy_oracle_equivalence():
    for i in range(100):
        rng = rng_for("acc-qenergy", i)
        p = PRIMES_CYCLE[i % 4]
        if i % 2 == 0:
            base = random_distinct_points(rng, p, 2, rng.randrange(1, 11))
            A = tuples(paraboloid_lift(base, p))
            rep = rectangle_energy_paraboloid(A, p)
        else:
            t = rng.randrange(1, p)
            pool = tuples(sphere_points(p, 3, t))
            if not pool:
                continue
            A = sorted(rng.sample(pool, min(len(pool), rng.randrange(1, 11))))
            rep = rectangle_energy_sphere(A, p, t)
        assert rep.energy == oracles.additive_energy(A, A, p)
    announce(2, "quadric rectangle energies equal the quadruple-loop oracle on 100 seeded configs")


def test_c02_right_triangle_oracle_equivalence():
    for i in range(100):
        rng = rng_for("acc-right", i)
        p = PRIMES_CYCLE[i % 4]
        pts = random_distinct_points(rng, p, 2, rng.randrange(3, 22))
        assert right_triangle_count(pts, p).total == oracles.right_triangles(pts, p)
    announce(2, "right-triangle counts equal the triple-loop oracle on 100 seeded configs")


def test_c02_wedge_solution_oracle_equivalence():
    for i in range(100):
        rng = rng_for("acc-wedge", i)
        p = PRIMES_CYCLE[i % 4]
        S = random_distinct_points(rng, p, 2, rng.randrange(1, 9))
        T = random_distinct_points(rng, p, 2, rng.randrange(1, 9))
        assert wedge_solution_count(S, T, p) == oracles.wedge_solutions(S, T, p)
    announce(2, "wedge-equation solution counts equal the quadruple-loop oracle on 100 seeded configs")


def test_c03_sphere_ruling_and_cone():
    for p in (3, 5, 7, 11, 13):
        for t in range(1, p):
            ruled = len(lines_on_sphere(p, 3, t)) > 0
            assert ruled == (legendre(-t, p) == 1), (p, t)
        cone = lines_on_sphere(p, 3, 0)
        assert len(cone) == p + 1
        covered = set()
        for line in cone.tolist():
            assert oracles.on_line((0, 0, 0), line[:3], line[3:], p)
            covered |= set(oracles.line_points(line[:3], line[3:], p))
        assert covered == set(tuples(sphere_points(p, 3, 0)))
    announce(3, "ruling iff -t is a square, and the cone splits into p+1 lines, for p in {3,5,7,11,13}")


def test_c04_energy_rectangle_equivalence():
    grid36 = rectangle_energy_paraboloid(
        paraboloid_lift([(0, 0), (1, 0), (0, 1), (1, 1)], 7), 7)
    assert grid36.energy == grid36.corner_count == 36
    frame = []
    for i in range(4):
        for s in (1, 6):
            v = [0, 0, 0, 0]
            v[i] = s
            frame.append(tuple(v))
    frame168 = rectangle_energy_sphere(frame, 7, 1)
    assert frame168.energy == frame168.corner_count == 168

    small_primes = (5, 7, 11, 13)
    for i in range(50):
        rng = rng_for("acc-c4-p2", i)
        p = small_primes[i % 4]
        base = random_distinct_points(rng, p, 2, min(p * p, rng.randrange(2, 61)))
        rep = rectangle_energy_paraboloid(paraboloid_lift(base, p), p)
        assert rep.energy == rep.corner_count
    for i in range(50):
        rng = rng_for("acc-c4-p3", i)
        p = small_primes[i % 4]
        base = random_distinct_points(rng, p, 3, rng.randrange(2, 61))
        rep = rectangle_energy_paraboloid(paraboloid_lift(base, p), p)
        assert rep.energy == rep.corner_count
    for i in range(50):
        rng = rng_for("acc-c4-s2", i)
        p = small_primes[i % 4]
        t = rng.randrange(1, p)
        pool = tuples(sphere_points(p, 3, t))
        if len(pool) < 2:
            continue
        A = sorted(rng.sample(pool, min(len(pool), rng.randrange(2, 61))))
        rep = rectangle_energy_sphere(A, p, t)
        assert rep.energy == rep.corner_count
    for i in range(50):
        rng = rng_for("acc-c4-s3", i)
        p = small_primes[i % 4]
        t = rng.randrange(1, p)
        pool = tuples(sphere_points(p, 4, t))
        A = sorted(rng.sample(pool, min(len(pool), rng.randrange(2, 61))))
        rep = rectangle_energy_sphere(A, p, t)
        assert rep.energy == rep.corner_count
    announce(4, "group energy equals the corner-criterion count on 200 seeded quadric sets; E=36 and E=168 reproduced")


def test_c05_unit_sphere_sharpness_band():
    ratios = []
    for p in (7, 11, 19, 23):
        Q, Pi = sphere_config(p)
        rep = count_point_plane(Q, Pi)
        ratios.append(rep.pairs / (len(Pi) * len(Q) ** 0.5))
        assert p % 4 == 3
        k, _ = max_collinear(Q.rows, p)
        assert k == 2
    band = max(ratios) / min(ratios)
    assert band <= 4
    announce(5, f"unit-sphere incidence ratios stay in a band of {band:.3f} <= 4 with k=2 across p in {{7,11,19,23}}")


def test_c06_coprime_lattice_solution_band():
    for N in (4, 6, 8, 10):
        p = 4 * N * N + 2
        while not is_prime(p):
            p += 1
        S = coprime_lattice(N, p)
        count = form_solution_count(S, S, FormSpec(p, ((1, 0), (0, 1))), include_zero=False)
        cube = len(S) ** 3
        assert cube / 8 <= count <= 8 * cube, (N, p, count, cube)
    announce(6, "coprime-lattice dot-product solution counts sit within a factor 8 of |S|^3 for N in {4,6,8,10}")


def test_c07_elekes_exact_incidences():
    for n in (2, 3, 4):
        p = 2 * n * n + 1
        while not is_prime(p):
            p += 1
        grid = elekes_grid(n, p)
        L = WeightedPlaneSet.of(grid.lines, p, dim=2)
        assert weighted_incidences(WeightedPointSet.of(grid.points, p), L)[0] == n ** 4
    announce(7, "Elekes grids give exactly n^4 incidences for n in {2,3,4}")


def test_c08_wedge_reduction_weighted_incidences():
    for i in range(50):
        rng = rng_for("acc-engg", i)
        p = PRIMES_CYCLE[i % 4]
        S = [q for q in random_distinct_points(rng, p, 2, rng.randrange(2, 12)) if q != (0, 0)]
        T = [q for q in random_distinct_points(rng, p, 2, rng.randrange(2, 12)) if q != (0, 0)]
        if not S or not T:
            continue
        points, planes = wedge_to_incidence(S, T, p)
        assert weighted_incidences(points, planes)[1] == oracles.engg_solutions(S, T, p)
        assert points.total_weight() == len(S) * len(T)
        assert planes.total_weight() == len(S) * len(T)
    announce(8, "weighted incidences of the wedge reduction equal the quadruple-loop solution count on 50 seeded pairs")


def test_c09_semi_isotropic_vs_random_pinned_distances():
    for (k, l, p) in ((2, 3, 13), (3, 5, 13), (4, 6, 17), (5, 13, 17), (9, 11, 13)):
        built = semi_isotropic_set(k, l, p)
        rep = distance_set(built.points, p)
        assert len(rep.values[1:]) <= k, (k, l, p)
    for p in (13, 17):
        for n in (6, 24, 65, 99):
            for seed in range(1, 6):
                rng = rng_for("acc-c9", p, n, seed)
                pts = random_distinct_points(rng, p, 3, n)
                pinned = distance_set(pts, p).pinned_counts.max()
                assert pinned >= n ** 0.5, (p, n, seed, pinned)
    announce(9, "parallel-line sets stay at <= k nonzero distances while seeded random sets exceed sqrt(|S|) pinned values")


def test_c10_right_triangle_identity():
    assert right_triangle_count([(0, 0), (1, 0), (0, 1)], 5).total == 2
    assert right_triangle_count([(0, 0), (1, 2), (2, 4)], 5).total == 12
    for i in range(40):
        rng = rng_for("acc-c10", i)
        p = PRIMES_CYCLE[i % 4]
        pts = random_distinct_points(rng, p, 2, rng.randrange(3, 25))
        rep = right_triangle_count(pts, p)
        assert rep.total == rep.aggregated
        # each corner's groups: n(l) by the canonical direction of l
        tables: dict[int, dict] = {}
        for z, d0, d1, n_l in rep.groups.tolist():
            tables.setdefault(z, {})[(d0, d1)] = n_l
        recomputed = 0
        for table in tables.values():
            for (d0, d1), n_l in table.items():
                perp = oracles.canonical_direction((-d1 % p, d0), p)
                recomputed += n_l * table.get(perp, 0)
        assert recomputed == rep.total
    announce(10, "right-triangle direct counts match the per-corner n(l)*n(l-perp) aggregation, including N=2 and N=12")


def test_c12_cli_determinism(tmp_path):
    spec = tmp_path / "sweep.txt"
    spec.write_text("construction=sphere\ntheorem=T1\np=7,11\n")
    outputs = []
    for run_idx in ("a", "b"):
        out = tmp_path / f"sweep-{run_idx}.csv"
        assert main(["--seed", "3", "--out", str(out), "sweep", str(spec)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    cfgs = []
    for run_idx in ("a", "b"):
        out = tmp_path / f"cfg-{run_idx}.txt"
        assert main(["--seed", "9", "--out", str(out), "construct", "random-3d",
                     "--p", "11", "--points", "25", "--planes", "20", "--lines", "3"]) == 0
        cfgs.append(out.read_bytes())
    assert cfgs[0] == cfgs[1]

    counts = []
    cfg = tmp_path / "cfg-a.txt"
    for run_idx in ("a", "b"):
        out = tmp_path / f"count-{run_idx}.csv"
        assert main(["--out", str(out), "count", str(cfg), "--theorem", "T1B"]) == 0
        counts.append(out.read_bytes())
    assert counts[0] == counts[1]

    jous = []
    for run_idx in ("a", "b"):
        out = tmp_path / f"sweep-{run_idx}.json"
        assert main(["--seed", "3", "--format", "json", "--out", str(out),
                     "sweep", str(spec)]) == 0
        jous.append(out.read_bytes())
    assert jous[0] == jous[1]
    json.loads(jous[0])
    announce(12, "construct, count and sweep pipelines re-emit byte-identical CSV/JSON under a fixed seed")
