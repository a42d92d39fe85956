import contextlib
import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import isotropic_line_max, random_distinct_points, rng_for, tuples
from fpgeom import counting, energy
from fpgeom.constructions import cylinder_set
from fpgeom.energy import (
    EnergyReport,
    rectangle_energy_paraboloid,
    rectangle_energy_sphere,
)
from fpgeom.field import legendre
from fpgeom.geom import GeometryError
from fpgeom.quadrics import lines_on_sphere, paraboloid_lift, sphere_points

BIG = 2147483647  # 2^31 - 1
# residues near 0 and near p add up without wrapping or with it
_BIG_COORD = st.one_of(st.sampled_from((0, 1, 2, 3, BIG - 1, BIG - 2)),
                       st.integers(0, BIG - 1))


def _full_paraboloid(p):
    return paraboloid_lift(itertools.product(range(p), repeat=2), p)


def _line_points(line, p):
    """The points of a line row (an int array, base then direction)."""
    d = len(line) // 2
    return oracles.line_points(line[:d].tolist(), line[d:].tolist(), p)


def _nonsquare(p):
    return next(a for a in range(2, p) if legendre(a, p) == -1)


ROUTES = ("_pair_route", "_table_route")


@contextlib.contextmanager
def _route(name):
    """Send the public energy functions down one route, and yield the
    monkeypatch: no p^d table fits in 0 cells, and every set with p^d under
    the table cap passes a ratio of 2^62."""
    with pytest.MonkeyPatch.context() as mp:
        if name == "_pair_route":
            mp.setattr(energy, "_TABLE_CELLS", 0)
        else:
            mp.setattr(energy, "_TABLE_RATIO", 1 << 62)
        yield mp


def _traced(f):
    """(f(), the peak of the memory traced while it ran)."""
    tracemalloc.start()
    try:
        result = f()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestParaboloidEnergy:
    def test_grid_hand_value(self):
        A = paraboloid_lift([(0, 0), (1, 0), (0, 1), (1, 1)], 7)
        rep = rectangle_energy_paraboloid(A, 7)
        assert rep.energy == 36
        assert rep.corner_count == 36
        assert rep.rectangles == 1 and rep.ordinary == 1

    def test_singleton(self):
        rep = rectangle_energy_paraboloid([(2, 3, 2 * 2 + 3 * 3)], 7)
        assert rep.energy == 1 and rep.rectangles == 0

    def test_energy_at_least_size(self):
        rng = rng_for("par-size")
        p = 11
        base = random_distinct_points(rng, p, 2, 20)
        A = paraboloid_lift(base, p)
        rep = rectangle_energy_paraboloid(A, p)
        assert rep.energy >= len(A)

    def test_full_isotropic_line_cubes(self):
        # the full line is sum-closed, so every additive triple closes inside it
        p = 5  # direction (1,2) is isotropic
        base = [(t % p, 2 * t % p) for t in range(p)]
        A = paraboloid_lift(base, p)
        rep = rectangle_energy_paraboloid(A, p)
        assert rep.energy == p ** 3
        assert rep.rectangles > 0
        assert rep.degenerate == rep.rectangles
        assert rep.ordinary == rep.semi_degenerate == 0
        assert rep.k0 == p

    def test_isotropic_line_subset_all_degenerate(self):
        # a proper subset of the line is not sum-closed: the energy drops to
        # the additive-quadruple count of the parameter set, here 52 < 4^3
        p, m = 5, 4
        base = [(t % p, 2 * t % p) for t in range(m)]
        A = tuples(paraboloid_lift(base, p))
        rep = rectangle_energy_paraboloid(A, p)
        assert rep.energy == oracles.additive_energy(A, A, p) == 52
        assert rep.rectangles > 0 and rep.degenerate == rep.rectangles
        assert rep.k0 == m

    def test_off_paraboloid_rejected(self):
        with pytest.raises(GeometryError):
            rectangle_energy_paraboloid([(1, 1, 3)], 7)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_quadruple_loop(self, seed):
        rng = rng_for("par-oracle", seed)
        p = rng.choice([5, 7, 13])
        base = random_distinct_points(rng, p, 2, rng.randrange(1, 11))
        A = tuples(paraboloid_lift(base, p))
        rep = rectangle_energy_paraboloid(A, p)
        assert rep.energy == oracles.additive_energy(A, A, p)

    def test_multiplicities_in_range(self):
        rng = rng_for("par-mult")
        p = 13
        base = random_distinct_points(rng, p, 2, 25)
        pts = tuples(paraboloid_lift(base, p))
        # two distinct pairs with one sum are disjoint, so every rectangle is
        # hit by exactly 2 * 2 * 2 ordered solutions
        census = oracles.rectangle_census(pts, [q[:-1] for q in pts], p)
        assert census[1] == rectangle_energy_paraboloid(pts, p).rectangles > 0
        assert census[-1] == (8, 8)

    def test_class_counts_sum(self):
        rng = rng_for("par-classes")
        p = 5
        base = random_distinct_points(rng, p, 2, 18)
        rep = rectangle_energy_paraboloid(paraboloid_lift(base, p), p)
        assert rep.ordinary + rep.semi_degenerate + rep.degenerate == rep.rectangles


class TestSphereEnergy:
    def test_frame_hand_value(self):
        p = 7
        frame = []
        for i in range(4):
            for s in (1, p - 1):
                v = [0, 0, 0, 0]
                v[i] = s
                frame.append(tuple(v))
        rep = rectangle_energy_sphere(frame, p, 1)
        assert rep.energy == 168
        assert rep.energy == oracles.additive_energy(frame, frame, p)

    def test_singleton(self):
        rep = rectangle_energy_sphere([(1, 0, 0, 0)], 7, 1)
        assert rep.energy == 1

    def test_full_isotropic_line_cubes(self):
        p = 5
        t = next(t for t in range(1, p) if len(lines_on_sphere(p, 4, t)))
        A = _line_points(lines_on_sphere(p, 4, t)[0], p)
        rep = rectangle_energy_sphere(A, p, t)
        assert rep.energy == p ** 3
        assert rep.degenerate == rep.rectangles > 0
        assert rep.k0 == p

    def test_isotropic_line_subset_all_degenerate(self):
        p = 5
        t = next(t for t in range(1, p) if len(lines_on_sphere(p, 4, t)))
        A = _line_points(lines_on_sphere(p, 4, t)[0], p)[:4]
        rep = rectangle_energy_sphere(A, p, t)
        assert rep.energy == oracles.additive_energy(A, A, p)
        assert rep.degenerate == rep.rectangles > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_quadruple_loop(self, seed):
        rng = rng_for("sphere-oracle", seed)
        p, d = rng.choice([5, 7, 13]), rng.choice([3, 4])
        t = rng.randrange(1, p)
        pool = tuples(sphere_points(p, d, t))
        A = sorted(rng.sample(pool, min(len(pool), rng.randrange(1, 13))))
        rep = rectangle_energy_sphere(A, p, t)
        assert rep.energy == oracles.additive_energy(A, A, p)

    def test_off_sphere_rejected(self):
        with pytest.raises(GeometryError):
            rectangle_energy_sphere([(1, 1, 1, 1)], 7, 1)

    def test_degenerate_bound_by_isotropic_line_budget(self):
        # degenerate rectangles need four collinear points of one isotropic line
        p = 5
        t = next(t for t in range(1, p) if len(lines_on_sphere(p, 4, t)))
        pts = _line_points(lines_on_sphere(p, 4, t)[0], p)[:3]
        rep = rectangle_energy_sphere(pts, p, t)
        iso_lines = 1
        assert rep.degenerate <= iso_lines * rep.k0 ** 3

    @pytest.mark.parametrize("seed", range(5))
    def test_degenerate_budget_random_sets(self, seed):
        from fpgeom.quadrics import sphere_points

        rng = rng_for("deg-budget", seed)
        p = 13
        t = rng.randrange(1, p)
        pool = tuples(sphere_points(p, 3, t))
        if len(pool) < 4:
            return
        A = sorted(rng.sample(pool, min(len(pool), 30)))
        rep = rectangle_energy_sphere(A, p, t)
        iso_lines = set()
        for i in range(len(A)):
            for j in range(i + 1, len(A)):
                d = oracles.diff(A[j], A[i], p)
                if oracles.nsq(d, p) == 0:
                    iso_lines.add(oracles.canonical_line(A[i], d, p))
        assert rep.degenerate <= max(1, len(iso_lines)) * rep.k0 ** 3

    def test_semi_degenerate_cross_lines(self):
        built = cylinder_set(5, 1, 2, 2)
        rep = rectangle_energy_sphere(built.points, 5, 1)
        assert rep.semi_degenerate >= 1


class TestMaxOnIsotropicLine:
    def test_no_null_pairs(self):
        assert isotropic_line_max([(0, 0), (1, 0), (0, 1)], 7) == 1

    def test_counts_line_membership(self):
        p = 5
        pts = [(t % p, 2 * t % p) for t in range(3)] + [(1, 0)]
        assert isotropic_line_max(pts, p) == 3


# ---------------------------------------------------------------------------
# the vectorised census against the pure-Python census in `oracles`

def _expected(points, p, quadric):
    """The EnergyReport the oracles give for a set on the quadric."""
    pts = sorted({tuple(map(int, q)) for q in points})
    corner = [q[:-1] for q in pts] if quadric == "paraboloid" else pts
    energy_, rects, ordinary, semi, degenerate, mults = oracles.rectangle_census(
        pts, corner, p)
    # every rectangle is hit by exactly 8 ordered solutions
    assert mults == ((8, 8) if rects else None)
    k0 = len(pts) if len(pts) < 2 else max(1, oracles.isotropic_lines(corner, p)[1])
    return EnergyReport(energy_, energy_, len(pts), rects, ordinary, semi, degenerate, k0)


def _report(points, p, quadric, t=None):
    if quadric == "paraboloid":
        return rectangle_energy_paraboloid(points, p)
    return rectangle_energy_sphere(points, p, t)


@st.composite
def paraboloid_sets(draw):
    """(p, points on the paraboloid in dimension 3 or 4): lifted free points
    plus a few planted horizontal lines, so degenerate rectangles occur."""
    p = draw(st.sampled_from((3, 5, 7, 13)))
    d = draw(st.sampled_from((3, 4)))
    vec = st.tuples(*(st.integers(0, p - 1) for _ in range(d - 1)))
    base = set(draw(st.lists(vec, min_size=1, max_size=14)))
    for h, u, ts in draw(st.lists(
            st.tuples(vec, vec, st.sets(st.integers(0, p - 1), min_size=2)), max_size=2)):
        base.update(tuple((a + t * b) % p for a, b in zip(h, u)) for t in ts)
    return p, tuples(paraboloid_lift(sorted(base), p))


_sphere_lines = functools.lru_cache(maxsize=None)(lines_on_sphere)


@st.composite
def sphere_sets(draw):
    """(p, t, points on the sphere |x|^2 = t in dimension 3 or 4): a sample of
    the sphere plus, for p <= 7, the points of a few lines on it (the line
    scan takes seconds at p = 13, d = 4)."""
    p = draw(st.sampled_from((3, 5, 7, 13)))
    d = draw(st.sampled_from((3, 4)))
    t = draw(st.integers(1, p - 1))
    pool = tuples(sphere_points(p, d, t))
    pts = {pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=14))}
    lines = _sphere_lines(p, d, t) if p <= 7 else ()
    if len(lines):
        for i in draw(st.lists(st.integers(0, len(lines) - 1), max_size=2)):
            pts.update(_line_points(lines[i], p))
    return p, t, sorted(pts) or [pool[0]]


class TestCensusAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(paraboloid_sets())
    def test_paraboloid(self, case):
        p, pts = case
        assert rectangle_energy_paraboloid(pts, p) == _expected(pts, p, "paraboloid")

    @settings(max_examples=60, deadline=None)
    @given(sphere_sets())
    def test_sphere(self, case):
        p, t, pts = case
        assert rectangle_energy_sphere(pts, p, t) == _expected(pts, p, "sphere")

    @pytest.mark.parametrize("p, slope", [(5, 2), (13, 5)])  # 1 + slope^2 == 0
    def test_full_isotropic_line(self, p, slope):
        base = [(s, slope * s % p) for s in range(p)]
        pts = paraboloid_lift(base, p)
        rep = rectangle_energy_paraboloid(pts, p)
        assert rep == _expected(pts, p, "paraboloid")
        assert rep.degenerate == rep.rectangles > 0

    def test_cylinder_set_semi_degenerate(self):
        pts = cylinder_set(5, 1, 2, 2).points
        rep = rectangle_energy_sphere(pts, 5, 1)
        assert rep == _expected(pts, 5, "sphere")
        assert rep.semi_degenerate > 0

    @pytest.mark.parametrize("block", [1, 2, 5, 13])
    def test_block_boundaries(self, monkeypatch, block):
        # the census of isotropic lines takes about _BLOCK_CELLS table cells a
        # block of directions, and its sum counts _BLOCK_CELLS // p^2 lines
        monkeypatch.setattr(counting, "_BLOCK_CELLS", 16 * block)
        cases = [
            (_full_paraboloid(5), 5, "paraboloid", None),
            (cylinder_set(5, 1, 2, 2).points, 5, "sphere", 1),
            (sphere_points(7, 3, 3), 7, "sphere", 3),
        ]
        for pts, p, quadric, t in cases:
            assert _report(pts, p, quadric, t) == _expected(pts, p, quadric)

    def test_full_paraboloid_p17(self):
        # the pinned census of the benchmark's paraboloid_energy workload,
        # which takes the table route
        p = 17
        pts = _full_paraboloid(p)
        rep, peak = _traced(lambda: rectangle_energy_paraboloid(pts, p))
        assert (rep.energy, rep.corner_count, rep.rectangles) == (1498465, 1498465, 164152)
        assert (rep.ordinary, rep.semi_degenerate, rep.degenerate) == (147968, 0, 16184)
        assert rep.k0 == 17
        pair = energy._pair_route(pts, pts[:, :-1], p)
        assert pair == (1498465, 1498465, 164152, 147968, 0, 16184, 17)
        # the table route holds a few p^d-cell tables and the n points
        assert peak < 1 << 20, peak


@pytest.mark.parametrize("route", ROUTES)
class TestCrossChecks:
    """Each guard of the shared report arithmetic, reached through both
    routes on the full paraboloid over F_5 by corrupting one of its inputs
    (r, diag, D, Dv, k0, degenerate)."""

    A = _full_paraboloid(5)

    def run(self, monkeypatch, route, edit):
        fields = energy._report_fields
        monkeypatch.setattr(energy, "_report_fields", lambda *args: fields(*edit(*args)))
        return getattr(energy, route)(self.A, self.A[:, :-1], 5)

    def test_difference_table_must_agree(self, monkeypatch, route):
        # one more difference count of 1 adds 1 to sum D^2
        def edit(r, diag, D, *rest):
            return (r, diag, np.append(D, 1), *rest)

        with pytest.raises(ArithmeticError, match="energy mismatch"):
            self.run(monkeypatch, route, edit)

    def test_sum_table_must_count_pairs(self, monkeypatch, route):
        # a diagonal pair more or less at the first sum leaves it an odd
        # number of off-diagonal ordered pairs, or a negative one
        def edit(r, diag, *rest):
            diag = diag.copy()
            diag.flat[0] = not diag.flat[0]
            return (r, diag, *rest)

        with pytest.raises(ArithmeticError, match="not a table of pair counts"):
            self.run(monkeypatch, route, edit)

    def test_class_identity_must_divide_by_four(self, monkeypatch, route):
        # one more isotropic difference count of 2 adds 2 to sum (Dv^2 - Dv)
        def edit(r, diag, D, Dv, *rest):
            return (r, diag, D, np.append(Dv, 2), *rest)

        with pytest.raises(ArithmeticError, match="not 4 per rectangle side"):
            self.run(monkeypatch, route, edit)

    def test_classes_must_not_go_negative(self, monkeypatch, route):
        def edit(*args):
            return (*args[:-1], args[-1] + 10**6)  # more degenerate

        with pytest.raises(ArithmeticError, match="negative rectangle classes"):
            self.run(monkeypatch, route, edit)


def _rows_and_corner(points, quadric):
    A = np.array(sorted(set(map(tuple, points))), dtype=np.int64)
    return A, (A[:, :-1] if quadric == "paraboloid" else A)


def _case(label, p, points, quadric):
    return pytest.param(p, points, quadric, id=label)


def _route_cases():
    """pytest params (p, points, quadric): full and seeded-half paraboloids
    and spheres in d = 3 and 4, the spheres at a square and a non-square t,
    full isotropic lines and cylinder sets."""
    for p in (3, 5, 7, 11, 13):
        rng = rng_for("routes", p)
        for d in (3, 4) if p <= 7 else (3,):
            full = tuples(paraboloid_lift(itertools.product(range(p), repeat=d - 1), p))
            yield _case(f"paraboloid-{p}-{d}", p, full, "paraboloid")
            half = rng.sample(full, len(full) // 2)
            yield _case(f"half-paraboloid-{p}-{d}", p, half, "paraboloid")
            for t in (1, _nonsquare(p)):
                pool = tuples(sphere_points(p, d, t))
                yield _case(f"sphere-{p}-{d}-{t}", p, pool, "sphere")
                half = rng.sample(pool, len(pool) // 2)
                yield _case(f"half-sphere-{p}-{d}-{t}", p, half, "sphere")
    for p, slope in ((5, 2), (13, 5)):  # 1 + slope^2 == 0
        line = paraboloid_lift([(s, slope * s % p) for s in range(p)], p)
        yield _case(f"isotropic-line-{p}", p, line, "paraboloid")
    yield _case("sphere-line-5", 5, _line_points(lines_on_sphere(5, 4, 1)[0], 5), "sphere")
    yield _case("cylinder-5", 5, cylinder_set(5, 1, 2, 2).points, "sphere")
    yield _case("cylinder-13", 13, cylinder_set(13, 1, 3, 4).points, "sphere")


class TestRoutesAgree:
    """The table route against the pair route, field by field."""

    @pytest.mark.parametrize("p, points, quadric", list(_route_cases()))
    def test_every_field(self, p, points, quadric):
        A, C = _rows_and_corner(points, quadric)
        assert energy._table_route(A, C, p) == energy._pair_route(A, C, p)

    def test_cases_have_every_class(self):
        # the cases above are not all ordinary: semi-degenerate and
        # degenerate rectangles both occur
        totals = np.zeros(3, dtype=np.int64)
        for case in _route_cases():
            p, points, quadric = case.values
            if p <= 5:
                A, C = _rows_and_corner(points, quadric)
                totals += np.array(energy._table_route(A, C, p)[3:6]) > 0
        assert (totals > 0).all()

    def test_rule_sends_full_sets_to_the_tables(self, monkeypatch):
        # d p^(d+1) == 1875 <= 8 n^2 == 5000 for the full paraboloid over F_5
        def refuse(A, C, p):
            raise AssertionError("pair route")

        monkeypatch.setattr(energy, "_pair_route", refuse)
        rep = rectangle_energy_paraboloid(_full_paraboloid(5), 5)
        assert rep == _expected(_full_paraboloid(5), 5, "paraboloid")

    @pytest.mark.parametrize("points, p", [
        (_full_paraboloid(5)[:8], 5),  # d p^(d+1) > 8 n^2
        ([(1, 2, 5), (3, 4, 25)], BIG),  # p^d above the table cap
    ])
    def test_rule_keeps_small_sets_and_large_p_on_pairs(self, monkeypatch, points, p):
        def refuse(A, C, p):
            raise AssertionError("table route")

        monkeypatch.setattr(energy, "_table_route", refuse)
        assert rectangle_energy_paraboloid(points, p) == _expected(points, p, "paraboloid")


class TestSumTables:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 31, 97])
    def test_transform_modulus(self, p):
        for bound in (1, p, p**3, 1 << 20):
            q, w = energy._transform_modulus(p, bound)
            assert bound < q < 2**31 and q % p == 1
            assert all(q % f for f in range(2, int(q**0.5) + 1))
            assert w != 1 and pow(w, p, q) == 1

    def test_no_modulus_past_the_field_cap(self):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            energy._transform_modulus(3, 2**31)

    @pytest.mark.parametrize("seed", range(6))
    def test_tables_count_sums_and_differences(self, seed):
        rng = rng_for("sum-tables", seed)
        p, d = rng.choice([(3, 2), (5, 3), (7, 3), (3, 4)])
        pts = random_distinct_points(rng, p, d, rng.randrange(1, 30))
        r, D = energy._sum_tables(np.array(pts, dtype=np.int64), p)
        sums, diffs = np.zeros_like(r), np.zeros_like(D)
        for a, b in itertools.product(pts, repeat=2):
            sums[tuple((x + y) % p for x, y in zip(a, b))] += 1
            diffs[oracles.diff(b, a, p)] += 1
        assert (r == sums).all() and (D == diffs).all()


class TestLargestModulus:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(_BIG_COORD, _BIG_COORD), min_size=1, max_size=12))
    def test_paraboloid_d3(self, base):
        pts = tuples(paraboloid_lift(sorted(set(base)), BIG))
        rep = rectangle_energy_paraboloid(pts, BIG)
        assert rep.energy == oracles.additive_energy(pts, pts, BIG)
        assert rep == _expected(pts, BIG, "paraboloid")

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.integers(0, 383), min_size=1, max_size=14))
    def test_sphere_d4(self, picks):
        # signed permutations of (1, 2, 3, 4) lie on |x|^2 = 30
        frame = sorted(
            tuple(s * c % BIG for s, c in zip(signs, perm))
            for perm in itertools.permutations((1, 2, 3, 4))
            for signs in itertools.product((1, -1), repeat=4)
        )
        pts = [frame[i] for i in sorted(picks)]
        rep = rectangle_energy_sphere(pts, BIG, 30)
        assert rep.energy == oracles.additive_energy(pts, pts, BIG)
        assert rep == _expected(pts, BIG, "sphere")

    def test_isotropic_lines_paraboloid_d4(self):
        # (1, 2, 2041534867) is isotropic in F_p^3: 40 points of one line
        # along it and 12 of a parallel one, among 30 random points, lifted
        # to the paraboloid of F_p^4; the CI pins the same set's report row
        rng = random.Random(11)
        w = (1, 2, 2041534867)
        assert sum(c * c for c in w) % BIG == 0
        base = []
        for size in (40, 12):
            c = [rng.randrange(BIG) for _ in range(3)]
            base += [[(x + s * y) % BIG for x, y in zip(c, w)] for s in range(size)]
        base += [[rng.randrange(BIG) for _ in range(3)] for _ in range(30)]
        pts = paraboloid_lift(base, BIG)
        rep = rectangle_energy_paraboloid(pts, BIG)
        assert (rep.degenerate, rep.k0) == (4845, 40)
        assert rep == _expected(pts, BIG, "paraboloid")


@st.composite
def big_quadric_sets(draw):
    """(points, quadric) at p = 2^31 - 1: lifted random points with a
    planted run of the isotropic line c + s (1, 2, 2041534867) on the
    paraboloid of F_p^4, lifted random points on that of F_p^3 (-1 is not a
    square, so no corner pair is isotropic), or signed permutations of
    (1, 2, 2), (1, 2, 3), (0, 1, 2, 3) or (1, 2, 3, 4) on the spheres of
    radius-square 9, 14, 14 and 30 (squares: 9, 30)."""
    if draw(st.booleans()):
        d = draw(st.sampled_from((3, 4)))
        vec = st.lists(_BIG_COORD, min_size=d - 1, max_size=d - 1)
        base = draw(st.lists(vec, min_size=1, max_size=8))
        if d == 4:
            c = draw(vec)
            base += [[(x + s * y) % BIG for x, y in zip(c, (1, 2, 2041534867))]
                     for s in draw(st.sets(st.integers(0, 9), max_size=6))]
        return tuples(paraboloid_lift(base, BIG)), "paraboloid"
    v = draw(st.sampled_from(((1, 2, 2), (1, 2, 3), (0, 1, 2, 3), (1, 2, 3, 4))))
    frame = sorted({tuple(s * c % BIG for s, c in zip(signs, perm))
                    for perm in itertools.permutations(v)
                    for signs in itertools.product((1, -1), repeat=len(v))})
    picks = draw(st.sets(st.integers(0, len(frame) - 1), min_size=1, max_size=16))
    return [frame[i] for i in sorted(picks)], "sphere"


def _check_midpoints(points, p, quadric):
    """For every pair a != b of the points on the quadric: b - a is isotropic
    in the corner coordinates exactly when (a + b) / 2 is on the quadric."""
    half = (p + 1) // 2
    t = oracles.nsq(points[0], p)  # the sphere's radius-square
    for a, b in itertools.combinations(points, 2):
        m = tuple((x + y) * half % p for x, y in zip(a, b))
        if quadric == "paraboloid":
            isotropic = oracles.nsq(oracles.diff(b[:-1], a[:-1], p), p) == 0
            on = oracles.nsq(m[:-1], p) == m[-1]
        else:
            isotropic = oracles.nsq(oracles.diff(b, a, p), p) == 0
            on = oracles.nsq(m, p) == t
        assert isotropic == on, (a, b)


class TestMidpointIdentity:
    """Energy reads isotropy from sums alone: on the quadric, b - a is
    isotropic in the corner coordinates exactly when the midpoint of a and b
    is on the quadric."""

    @settings(max_examples=40, deadline=None)
    @given(paraboloid_sets())
    def test_paraboloid(self, case):
        p, pts = case
        _check_midpoints(pts, p, "paraboloid")

    @settings(max_examples=40, deadline=None)
    @given(sphere_sets())
    def test_sphere(self, case):
        p, t, pts = case
        _check_midpoints(pts, p, "sphere")

    @settings(max_examples=40, deadline=None)
    @given(big_quadric_sets())
    def test_largest_modulus(self, case):
        pts, quadric = case
        _check_midpoints(pts, BIG, quadric)

    @pytest.mark.parametrize("p", [5, 13])
    def test_both_sides_occur(self, p):
        # the full paraboloid over F_p, p == 1 mod 4, has isotropic and
        # non-isotropic pairs, so neither side of the identity is vacuous
        pts = tuples(_full_paraboloid(p))
        _check_midpoints(pts, p, "paraboloid")
        corner = [q[:-1] for q in pts]
        assert 0 < oracles.isotropic_lines(corner, p)[0] < len(pts) * (len(pts) - 1)


def test_pair_route_reads_no_pair_value_table(monkeypatch):
    # the pair route reads its isotropic pairs from the sum sort, not from
    # the blocked squared-distance table
    calls = []
    real = counting._pair_values
    monkeypatch.setattr(counting, "_pair_values", lambda *a: calls.append(a) or real(*a))
    A = sphere_points(7, 4, 1)
    assert energy._pair_route(A, A, 7)[5:] == (8064, 7)
    assert calls == []


class TestCornerCount:
    """corner_count, sum D^2 on both routes, is the right-corner count of
    `oracles.corner_count` on the quadric."""

    @pytest.mark.parametrize("route", ROUTES)
    @settings(max_examples=20, deadline=None)
    @given(paraboloid_sets())
    def test_paraboloid(self, route, case):
        p, pts = case
        with _route(route):
            rep = rectangle_energy_paraboloid(pts, p)
        assert rep.corner_count == oracles.corner_count(pts, [q[:-1] for q in pts], p)

    @pytest.mark.parametrize("route", ROUTES)
    @settings(max_examples=20, deadline=None)
    @given(sphere_sets())
    def test_sphere(self, route, case):
        p, t, pts = case
        with _route(route):
            rep = rectangle_energy_sphere(pts, p, t)
        assert rep.corner_count == oracles.corner_count(pts, pts, p)


@st.composite
def d4_sphere_sets(draw):
    """(p, t, points of the sphere |x|^2 = t in F_p^4, t a square or not): a
    sample plus the points of a few lines on it."""
    p = draw(st.sampled_from((3, 5, 7)))
    t = draw(st.sampled_from((1, _nonsquare(p))))
    pool = tuples(sphere_points(p, 4, t))
    pts = {pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=10))}
    lines = _sphere_lines(p, 4, t)
    for i in draw(st.lists(st.integers(0, len(lines) - 1), max_size=2)):
        pts.update(_line_points(lines[i], p))
    return p, t, sorted(pts) or [pool[0]]


class TestClassCensus:
    """Rectangle classes on both routes against the per-rectangle
    classification of `oracles.rectangle_census`, across block sizes."""

    @pytest.mark.parametrize("route", ROUTES)
    @settings(max_examples=40, deadline=None)
    @given(d4_sphere_sets(), st.sampled_from((1, 16, 100, counting._BLOCK_CELLS)))
    def test_matches_oracle_on_spheres(self, route, case, cells):
        p, t, pts = case
        with _route(route) as mp:
            mp.setattr(counting, "_BLOCK_CELLS", cells)
            rep = rectangle_energy_sphere(pts, p, t)
        assert rep == _expected(pts, p, "sphere")


@pytest.mark.parametrize("case", ["paraboloid17", "sphere7", "isotropic_line401"])
def test_pair_route_memory(case):
    # the pair route holds one table of the n^2 ordered pair sums or
    # differences at a time, with its sort order and its sorted keys, and one
    # row per isotropic pair; on the full isotropic line (1, i, 3) + s (1, i, 0)
    # of F_401^3, i^2 == -1, lifted to the paraboloid, every one of the
    # n (n - 1) / 2 corner pairs is isotropic
    if case == "paraboloid17":
        p, A = 17, _full_paraboloid(17)
        C = A[:, :-1]
    elif case == "sphere7":
        p, A = 7, sphere_points(7, 4, 1)
        C = A
    else:
        p, i = 401, 20
        assert i * i % p == p - 1
        A = paraboloid_lift([(s, i * s % p, 3) for s in range(p)], p)
        C = A[:, :-1]
    n = len(A)
    peak = _traced(lambda: energy._pair_route(A, C, p))[1]
    assert peak < 8 * n * n * 8, (peak, 64 * n * n)


def test_pair_route_memory_at_the_largest_modulus():
    # at p = 2^31 - 1 each coordinate's n^2 pair values take an int64 key of
    # their own, and on random points every pair sum but its mirror is new:
    # the route holds the d keys, the order and one sort pass's gathered key
    # and positions, under 8 n^2 words for 1,000 points of F_p^4
    rng = rng_for("pair-route-big")
    pts = {tuple(rng.randrange(BIG) for _ in range(3)) for _ in range(1000)}
    A = paraboloid_lift(sorted(pts), BIG)
    n = len(A)
    rep, peak = _traced(lambda: energy._pair_route(A, A[:, :-1], BIG))
    assert rep == (2 * n * n - n,) * 2 + (0,) * 4 + (1,)
    assert peak <= 8 * n * n * 8, (peak, peak / (8 * n * n))


@pytest.mark.parametrize("p", [7, 11])
def test_pair_route_packs_its_keys(p):
    # each ordered pair's sum or difference is packed into one int64 key of
    # n^2 entries, sorted in place as key * n^2 + position and then kept as
    # the order: the route holds about three n^2 words, the key with the
    # pair-column scratch or the positions, and the run bounds
    A = sphere_points(p, 4, 1)
    n = len(A)
    rep, peak = _traced(lambda: energy._pair_route(A, A, p))
    assert rep == energy._table_route(A, A, p)
    assert peak <= 3.5 * n * n * 8, (peak, peak / (8 * n * n))


def _table_cases():
    """pytest params (p, points, quadric): full and seeded-half paraboloids
    and spheres in d = 3 and 4 small enough for the oracles' census."""
    for p, d in ((5, 3), (13, 3), (3, 4), (5, 4)):
        rng = rng_for("table-census", p, d)
        full = tuples(paraboloid_lift(itertools.product(range(p), repeat=d - 1), p))
        sets = [("paraboloid", full)]
        if d == 3 or p == 3:
            sets += [("sphere", tuples(sphere_points(p, d, t))) for t in (1, _nonsquare(p))]
        for quadric, pts in sets:
            yield _case(f"{quadric}-{p}-{d}-{len(pts)}", p, pts, quadric)
            half = rng.sample(pts, len(pts) // 2)
            yield _case(f"half-{quadric}-{p}-{d}-{len(pts)}", p, half, quadric)


class TestTableRouteLineCensus:
    """k0 and degenerate on the table route, read from the census of the
    isotropic lines, against `oracles.rectangle_census` and
    `oracles.isotropic_lines`."""

    @pytest.mark.parametrize("p, points, quadric", list(_table_cases()))
    def test_full_and_half_sets(self, p, points, quadric):
        t = None if quadric == "paraboloid" else sum(c * c for c in points[0]) % p
        with _route("_table_route"):
            rep = _report(points, p, quadric, t)
        assert rep == _expected(points, p, quadric)

    @settings(max_examples=40, deadline=None)
    @given(paraboloid_sets())
    def test_paraboloid(self, case):
        p, pts = case
        with _route("_table_route"):
            rep = rectangle_energy_paraboloid(pts, p)
        assert rep == _expected(pts, p, "paraboloid")

    @settings(max_examples=40, deadline=None)
    @given(sphere_sets())
    def test_sphere(self, case):
        p, t, pts = case
        with _route("_table_route"):
            rep = rectangle_energy_sphere(pts, p, t)
        assert rep == _expected(pts, p, "sphere")
