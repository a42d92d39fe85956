import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_distinct_points, rng_for
from fpgeom import counting, energy
from fpgeom.constructions import cylinder_set
from fpgeom.energy import (
    EnergyReport,
    NotARectangleError,
    max_on_isotropic_line,
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


def _line_points(line):
    return oracles.line_points(line.base, line.direction, line.p)


def _nonsquare(p):
    return next(a for a in range(2, p) if legendre(a, p) == -1)


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
        A = paraboloid_lift(base, p)
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
        A = paraboloid_lift(base, p)
        rep = rectangle_energy_paraboloid(A, p)
        assert rep.energy == oracles.additive_energy(A, A, p)

    def test_multiplicities_in_range(self):
        rng = rng_for("par-mult")
        p = 13
        base = random_distinct_points(rng, p, 2, 25)
        rep = rectangle_energy_paraboloid(paraboloid_lift(base, p), p)
        # two distinct pairs with one sum are disjoint, so every rectangle is
        # hit by exactly 2 * 2 * 2 ordered solutions
        assert rep.rectangles > 0
        assert rep.multiplicity_range == (8, 8)

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
        t = next(t for t in range(1, p) if lines_on_sphere(p, 4, t))
        A = _line_points(lines_on_sphere(p, 4, t)[0])
        rep = rectangle_energy_sphere(A, p, t)
        assert rep.energy == p ** 3
        assert rep.degenerate == rep.rectangles > 0
        assert rep.k0 == p

    def test_isotropic_line_subset_all_degenerate(self):
        p = 5
        t = next(t for t in range(1, p) if lines_on_sphere(p, 4, t))
        A = _line_points(lines_on_sphere(p, 4, t)[0])[:4]
        rep = rectangle_energy_sphere(A, p, t)
        assert rep.energy == oracles.additive_energy(A, A, p)
        assert rep.degenerate == rep.rectangles > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_quadruple_loop(self, seed):
        rng = rng_for("sphere-oracle", seed)
        p, d = rng.choice([5, 7, 13]), rng.choice([3, 4])
        t = rng.randrange(1, p)
        pool = sphere_points(p, d, t)
        A = sorted(rng.sample(pool, min(len(pool), rng.randrange(1, 13))))
        rep = rectangle_energy_sphere(A, p, t)
        assert rep.energy == oracles.additive_energy(A, A, p)

    def test_off_sphere_rejected(self):
        with pytest.raises(GeometryError):
            rectangle_energy_sphere([(1, 1, 1, 1)], 7, 1)

    def test_degenerate_bound_by_isotropic_line_budget(self):
        # degenerate rectangles need four collinear points of one isotropic line
        p = 5
        t = next(t for t in range(1, p) if lines_on_sphere(p, 4, t))
        pts = _line_points(lines_on_sphere(p, 4, t)[0])[:3]
        rep = rectangle_energy_sphere(pts, p, t)
        iso_lines = 1
        assert rep.degenerate <= iso_lines * rep.k0 ** 3

    @pytest.mark.parametrize("seed", range(5))
    def test_degenerate_budget_random_sets(self, seed):
        from fpgeom.geom import AffineLine
        from fpgeom.quadrics import sphere_points

        rng = rng_for("deg-budget", seed)
        p = 13
        t = rng.randrange(1, p)
        pool = sphere_points(p, 3, t)
        if len(pool) < 4:
            return
        A = sorted(rng.sample(pool, min(len(pool), 30)))
        rep = rectangle_energy_sphere(A, p, t)
        iso_lines = set()
        for i in range(len(A)):
            for j in range(i + 1, len(A)):
                d = oracles.diff(A[j], A[i], p)
                if oracles.nsq(d, p) == 0:
                    iso_lines.add(AffineLine(p, A[i], d))
        assert rep.degenerate <= max(1, len(iso_lines)) * rep.k0 ** 3

    def test_semi_degenerate_cross_lines(self):
        built = cylinder_set(5, 1, 2, 2)
        rep = rectangle_energy_sphere(built.points, 5, 1)
        assert rep.semi_degenerate >= 1


class TestMaxOnIsotropicLine:
    def test_no_null_pairs(self):
        assert max_on_isotropic_line([(0, 0), (1, 0), (0, 1)], 7) == 1

    def test_counts_line_membership(self):
        p = 5
        pts = [(t % p, 2 * t % p) for t in range(3)] + [(1, 0)]
        assert max_on_isotropic_line(pts, p) == 3


# ---------------------------------------------------------------------------
# the vectorised census against the pure-Python census in `oracles`

def _expected(points, p, quadric):
    """The EnergyReport the oracles give for a set on the quadric."""
    pts = sorted(set(points))
    corner = [q[:-1] for q in pts] if quadric == "paraboloid" else pts
    energy_, rects, ordinary, semi, degenerate, mults = oracles.rectangle_census(
        pts, corner, p)
    k0 = len(pts) if len(pts) < 2 else max(1, oracles.isotropic_lines(corner, p)[1])
    return EnergyReport(energy_, energy_, len(pts), rects, ordinary, semi, degenerate,
                        k0, quadric, mults)


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
    return p, paraboloid_lift(sorted(base), p)


_sphere_lines = functools.lru_cache(maxsize=None)(lines_on_sphere)


@st.composite
def sphere_sets(draw):
    """(p, t, points on the sphere |x|^2 = t in dimension 3 or 4): a sample of
    the sphere plus, for p <= 7, the points of a few lines on it (the line
    scan takes seconds at p = 13, d = 4)."""
    p = draw(st.sampled_from((3, 5, 7, 13)))
    d = draw(st.sampled_from((3, 4)))
    t = draw(st.integers(1, p - 1))
    pool = sphere_points(p, d, t)
    pts = {pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=14))}
    lines = _sphere_lines(p, d, t) if p <= 7 else []
    if lines:
        for i in draw(st.lists(st.integers(0, len(lines) - 1), max_size=2)):
            pts.update(_line_points(lines[i]))
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
        # pair_blocks takes _BLOCK_CELLS // 16 rectangles a block
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
        assert rep.k0 == 17 and rep.multiplicity_range == (8, 8)
        A = np.array(pts, dtype=np.int64)
        pair, pair_peak = _traced(lambda: energy._pair_route(A, A[:, :-1], p))
        assert pair == (1498465, 1498465, 164152, 147968, 0, 16184, 17)
        # on the pair route the n^2 ordered pair sums (3 columns), their sort
        # order and one sorted column set the peak (about 6 n^2 words, near
        # 4 MB here); a frozenset key per rectangle took over 100 MB
        n = p * p
        assert pair_peak < 8 * n * n * 8, pair_peak
        # the table route holds a few p^d-cell tables and the n points
        assert peak < 1 << 20, peak


class TestCrossChecks:
    # the full paraboloid over F_5 takes the table route through the public
    # functions, so the pair route's checks call it directly
    A = np.array(_full_paraboloid(5), dtype=np.int64)

    def pair_route(self):
        return energy._pair_route(self.A, self.A[:, :-1], 5)

    def table_route(self):
        return energy._table_route(self.A, self.A[:, :-1], 5)

    def test_corner_criterion_must_agree(self, monkeypatch):
        monkeypatch.setattr(energy, "_corner_count", lambda A, C, p: 0)
        with pytest.raises(ArithmeticError, match="energy mismatch"):
            self.pair_route()

    def test_eight_solutions_per_rectangle(self, monkeypatch):
        # losing one pair of the unordered grouping breaks the identity
        # between the two sorts
        unordered = energy._unordered_sums

        def lossy(A, p):
            X, Y, bounds = unordered(A, p)
            return X[:-1], Y[:-1], np.append(bounds[:-1], bounds[-1] - 1)

        monkeypatch.setattr(energy, "_unordered_sums", lossy)
        with pytest.raises(ArithmeticError, match="not 8 each"):
            self.pair_route()

    def test_difference_table_must_agree(self, monkeypatch):
        sum_tables = energy._sum_tables

        def corrupted(A, p):
            r, D = sum_tables(A, p)
            D.flat[1] += 1
            return r, D

        monkeypatch.setattr(energy, "_sum_tables", corrupted)
        with pytest.raises(ArithmeticError, match="energy mismatch"):
            self.table_route()

    def test_sum_table_must_count_pairs(self, monkeypatch):
        # the sums of this set have 4 or 9 pairs and the differences 0, 5 or
        # 25: a sum count 4 -> 5 and a difference count 0 -> 3 both add 9, so
        # the energies still agree, but 5 - 1 off-diagonal pairs is odd
        sum_tables = energy._sum_tables

        def corrupted(A, p):
            r, D = sum_tables(A, p)
            r.flat[int((r.reshape(-1) == 4).argmax())] = 5
            D.flat[int((D.reshape(-1) == 0).argmax())] = 3
            return r, D

        monkeypatch.setattr(energy, "_sum_tables", corrupted)
        with pytest.raises(ArithmeticError, match="not a table of pair counts"):
            self.table_route()

    def test_class_identity_must_divide_by_four(self, monkeypatch):
        line_counts = energy._line_counts

        def one_more_progression(C, p):
            k0, degenerate, progressions = line_counts(C, p)
            return k0, degenerate, progressions + 1

        monkeypatch.setattr(energy, "_line_counts", one_more_progression)
        with pytest.raises(ArithmeticError, match="not 4 per rectangle side"):
            self.table_route()

    def test_classes_must_not_go_negative(self, monkeypatch):
        line_counts = energy._line_counts

        def too_many_degenerate(C, p):
            k0, degenerate, progressions = line_counts(C, p)
            return k0, degenerate + 10**6, progressions

        monkeypatch.setattr(energy, "_line_counts", too_many_degenerate)
        with pytest.raises(ArithmeticError, match="negative rectangle classes"):
            self.table_route()


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
            full = paraboloid_lift(itertools.product(range(p), repeat=d - 1), p)
            yield _case(f"paraboloid-{p}-{d}", p, full, "paraboloid")
            half = rng.sample(full, len(full) // 2)
            yield _case(f"half-paraboloid-{p}-{d}", p, half, "paraboloid")
            for t in (1, _nonsquare(p)):
                pool = sphere_points(p, d, t)
                yield _case(f"sphere-{p}-{d}-{t}", p, pool, "sphere")
                half = rng.sample(pool, len(pool) // 2)
                yield _case(f"half-sphere-{p}-{d}-{t}", p, half, "sphere")
    for p, slope in ((5, 2), (13, 5)):  # 1 + slope^2 == 0
        line = paraboloid_lift([(s, slope * s % p) for s in range(p)], p)
        yield _case(f"isotropic-line-{p}", p, line, "paraboloid")
    yield _case("sphere-line-5", 5, _line_points(lines_on_sphere(5, 4, 1)[0]), "sphere")
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


class TestIsotropicSidesGuard:
    # the pair route's class census; in F_5^4 the sides a = (1, 2, 0, 0) and b = (0, 0, 1, 2) are isotropic,
    # orthogonal and not parallel
    A, B = (1, 2, 0, 0), (0, 0, 1, 2)

    def test_classes_raise_on_crafted_corner_coords(self):
        C = np.array([self.A, self.B, (0, 0, 0, 0)], dtype=np.int64)
        with pytest.raises(NotARectangleError, match="not collinear"):
            energy._rectangle_classes(C, energy._isotropy(C, 5), *np.array([[0], [1], [2]]), 5)

    def test_parallel_isotropic_sides_are_degenerate(self):
        C = np.array([(1, 2, 0, 0), (3, 1, 0, 0), (0, 0, 0, 0)], dtype=np.int64)
        iso = energy._isotropy(C, 5)
        assert energy._rectangle_classes(C, iso, *np.array([[0], [1], [2]]), 5).tolist() == [2]


class TestLargestModulus:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(_BIG_COORD, _BIG_COORD), min_size=1, max_size=12))
    def test_paraboloid_d3(self, base):
        pts = paraboloid_lift(sorted(set(base)), BIG)
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


@st.composite
def corner_cases(draw):
    """(p, distinct rows A, corner coordinates C): arbitrary rows with few
    coordinate values, so fourth vertices often land back in the set, and C
    all of A or a slice of its columns."""
    p = draw(st.sampled_from((3, 5, 13, BIG)))
    d = draw(st.sampled_from((2, 3, 4)))
    values = st.sampled_from((0, 1, 2, p - 1, p - 2)) if p > 5 else st.integers(0, p - 1)
    A = np.array(draw(st.lists(st.tuples(*(values,) * d), min_size=1, max_size=12,
                               unique=True)), dtype=np.int64)
    if draw(st.booleans()):
        return p, A, A
    lo = draw(st.integers(0, d - 1))
    return p, A, A[:, lo : draw(st.integers(lo + 1, d))]


class TestCornerCount:
    """The grouped corner count against the triple loop of its definition."""

    @settings(max_examples=120, deadline=None)
    @given(corner_cases(), st.sampled_from((1, 7, 64, counting._BLOCK_CELLS)))
    def test_matches_triple_loop(self, case, cells):
        p, A, C = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "_BLOCK_CELLS", cells)
            assert energy._corner_count(A, C, p) == oracles.corner_count(A, C, p)

    def test_counts_differ_from_energy_off_quadrics(self):
        # off any quadric the corner count is its own number, not the energy
        p = 5
        A = np.array(random_distinct_points(rng_for("corner-off"), p, 3, 12), dtype=np.int64)
        corner = energy._corner_count(A, A, p)
        assert corner == oracles.corner_count(A, A, p)
        assert corner != oracles.additive_energy(A.tolist(), A.tolist(), p)


@st.composite
def d4_quadric_sets(draw):
    """(p, points of the sphere |x|^2 = t in F_p^4, the cone t = 0
    included): a sample plus the points of a few lines on it, and on the
    cone some points of the totally isotropic plane spanned by
    a = (x, y, 1, 0) and b = (y, -x, 0, 1) with x^2 + y^2 = -1."""
    p = draw(st.sampled_from((3, 5, 7)))
    t = draw(st.sampled_from((0, 1, _nonsquare(p))))
    pool = sphere_points(p, 4, t)
    pts = {pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=10))}
    lines = _sphere_lines(p, 4, t)
    for i in draw(st.lists(st.integers(0, len(lines) - 1), max_size=2)):
        pts.update(_line_points(lines[i]))
    if t == 0:
        x, y = next((x, y) for x in range(p) for y in range(p) if (x * x + y * y + 1) % p == 0)
        for s, r in draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)),
                                  max_size=6)):
            pts.add(tuple((s * a + r * b) % p for a, b in zip((x, y, 1, 0), (y, -x, 0, 1))))
    return p, sorted(pts) or [pool[0]]


class TestClassCensus:
    """Rectangle classes from the isotropy table against the per-rectangle
    classification of `oracles.rectangle_census`."""

    @settings(max_examples=60, deadline=None)
    @given(d4_quadric_sets(), st.sampled_from((1, 16, 100, counting._BLOCK_CELLS)))
    def test_matches_oracle_on_spheres_and_cones(self, case, cells):
        # on the cone two isotropic sides need not be parallel: the census
        # must raise exactly when the oracle does
        p, pts = case
        P = np.array(pts, dtype=np.int64)
        try:
            _, rects, *classes, _ = oracles.rectangle_census(pts, pts, p)
        except ValueError:
            rects = None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "_BLOCK_CELLS", cells)
            X, Y, bounds = energy._unordered_sums(P, p)
            if rects is None:
                with pytest.raises(NotARectangleError):
                    energy._class_counts(P, X, Y, bounds, p)
                return
            r = np.diff(bounds)
            assert int((r * (r - 1) // 2).sum()) == rects
            assert list(energy._class_counts(P, X, Y, bounds, p)) == classes


def _traced_peak(f):
    return _traced(f)[1]


@pytest.mark.parametrize("case", ["paraboloid17", "sphere7"])
def test_corner_count_and_class_census_memory(case):
    # on the pair route, neither the corner count nor the class census may
    # outgrow the n^2 ordered pair sums that the energy itself takes
    if case == "paraboloid17":
        p, A = 17, np.array(_full_paraboloid(17), dtype=np.int64)
        C = A[:, :-1]
    else:
        p, A = 7, np.array(sphere_points(7, 4, 1), dtype=np.int64)
        C = A
    ordered = _traced_peak(lambda: energy._ordered_sums(A, p))
    corner = _traced_peak(lambda: energy._corner_count(A, C, p))
    classes = _traced_peak(lambda: energy._class_counts(C, *energy._unordered_sums(A, p), p))
    assert corner <= ordered, (corner, ordered)
    assert classes <= ordered, (classes, ordered)
