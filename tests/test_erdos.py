import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_distinct_points, rng_for
from fpgeom import counting, erdos
from fpgeom.counting import weighted_incidences
from fpgeom.erdos import (
    FormSpec,
    NullPairError,
    bisector_plane,
    distance_set,
    energy_delta,
    form_solution_count,
    form_values,
    right_triangle_count,
    supported_in_semi_isotropic_plane,
    wedge_form,
    wedge_solution_count,
    wedge_to_incidence,
)
from fpgeom.geom import CoincidentPointsError, GeometryError


class TestDistanceSet:
    def test_two_point_example(self):
        rep = distance_set([(0, 0), (1, 0)], 7)
        assert rep.values.tolist() == [0, 1]
        assert rep.pinned_counts.tolist() == [2, 2]

    def test_arrays_are_read_only_int64(self):
        rep = distance_set([(0, 0, 0), (1, 2, 3), (4, 4, 4)], 7)
        for x in (rep.values, rep.pinned_counts):
            assert x.dtype == np.int64
            with pytest.raises(ValueError):
                x[0] = 1

    def test_semi_isotropic_counterexample(self):
        from fpgeom.constructions import semi_isotropic_set

        built = semi_isotropic_set(2, 3, 5)
        rep = distance_set(built.points, 5)
        x = built.cross_direction
        assert rep.values.tolist() == [0, oracles.dot(x, x, 5)]
        assert rep.in_semi_isotropic_plane is True

    @pytest.mark.parametrize("seed", range(5))
    def test_random_matches_double_loop(self, seed):
        rng = rng_for("dist", seed)
        p = rng.choice([7, 11, 13])
        pts = random_distinct_points(rng, p, 3, rng.randrange(2, 30))
        rep = distance_set(pts, p)
        assert rep.values.tolist() == sorted(oracles.distance_values(pts, p))
        assert rep.pinned_counts.tolist() == oracles.pinned_counts(pts, p)

    def test_pinned_invariant(self):
        # pinned count from s is the number of values |s - t|^2 over t in S
        p, rng = 11, rng_for("pinned")
        pts = random_distinct_points(rng, p, 3, 15)
        rep = distance_set(pts, p)
        for s, c in zip(pts, rep.pinned_counts.tolist()):
            assert c == len({oracles.nsq(oracles.diff(s, t, p), p) for t in pts})

    def test_semi_isotropic_flag_negative(self):
        assert not supported_in_semi_isotropic_plane(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 5
        )


class TestEnergyDelta:
    def test_hand_value(self):
        assert energy_delta([(0, 0, 0), (1, 0, 0), (6, 0, 0)], 7) == 8

    def test_singleton(self):
        assert energy_delta([(0, 0, 0)], 7) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_triple_loop(self, seed):
        rng = rng_for("edelta", seed)
        p = rng.choice([5, 7, 11])
        pts = random_distinct_points(rng, p, 3, rng.randrange(2, 20))
        assert energy_delta(pts, p) == oracles.energy_delta(pts, p)
        assert energy_delta(pts, p, restricted=True) == oracles.energy_delta(
            pts, p, restricted=True
        )

    def test_restricted_at_most_plain(self):
        rng = rng_for("edelta-le")
        for _ in range(10):
            p = rng.choice([5, 13])
            pts = random_distinct_points(rng, p, 3, 15)
            assert energy_delta(pts, p, restricted=True) <= energy_delta(pts, p)

    def test_equal_when_no_null_differences(self):
        p = 7  # -1 is not a square; small integer coordinates stay non-null
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1), (2, 0, 1)]
        stats_null = [
            oracles.nsq(oracles.diff(a, b, p), p)
            for a in pts
            for b in pts
            if a != b
        ]
        assert 0 not in stats_null
        assert energy_delta(pts, p) == energy_delta(pts, p, restricted=True)


class TestBisectorPlane:
    def test_hand_example(self):
        # 2 s.(t1 - t2) == |t1|^2 - |t2|^2 as given, with no scaling: the
        # plane x == 1 of F_7^3
        pl = bisector_plane((0, 0, 0), (2, 0, 0), 7)
        assert pl == ((3, 0, 0), 3)
        assert oracles.canonical_planes([pl], [1], 7)[0] == [((1, 0, 0), 1)]

    def test_membership_iff_equidistance_exhaustive(self):
        p, rng = 7, rng_for("bisector")
        for _ in range(10):
            t1 = tuple(rng.randrange(p) for _ in range(3))
            t2 = tuple(rng.randrange(p) for _ in range(3))
            if t1 == t2 or oracles.nsq(oracles.diff(t1, t2, p), p) == 0:
                continue
            normal, offset = bisector_plane(t1, t2, p)
            for s in itertools.product(range(p), repeat=3):
                equi = oracles.nsq(oracles.diff(s, t1, p), p) == oracles.nsq(
                    oracles.diff(s, t2, p), p
                )
                assert oracles.on_plane(s, normal, offset, p) == equi

    def test_null_pair_rejected(self):
        with pytest.raises(NullPairError):
            bisector_plane((0, 0, 0), (1, 2, 0), 5)  # difference (1,2,0) is null

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentPointsError):
            bisector_plane((1, 1, 1), (1, 1, 1), 7)


class TestForms:
    def test_dot_on_axes(self):
        assert form_values([(1, 0), (0, 1)], FormSpec(7, ((1, 0), (0, 1)))).tolist() == [0, 1]

    def test_wedge_on_axes(self):
        values = form_values([(1, 0), (0, 1)], wedge_form(7))
        assert values.tolist() == [0, 1, 6]
        assert values.dtype == np.int64
        with pytest.raises(ValueError):
            values[0] = 1

    def test_empty_sets(self):
        values = form_values([], wedge_form(7))
        assert values.tolist() == [] and values.dtype == np.int64
        assert form_solution_count([], [(1, 2)], wedge_form(7), include_zero=True) == 0
        assert form_solution_count([(1, 2)], [], wedge_form(7), include_zero=True) == 0

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            FormSpec(7, ((1, 1), (2, 2)))

    @pytest.mark.parametrize("m", [((1, 0, 0), (0, 1, 0)), ((1, 0),), ((1, 0), (0, 1), (0, 0))])
    def test_non_square_matrix_rejected(self, m):
        with pytest.raises(GeometryError, match="^form matrix must be 2x2$"):
            FormSpec(7, m)

    @pytest.mark.parametrize("seed", range(4))
    def test_values_match_oracle(self, seed):
        rng = rng_for("forms", seed)
        p = rng.choice([5, 11])
        pts = random_distinct_points(rng, p, 2, rng.randrange(1, 25))
        m = ((1, 2), (0, 1))
        assert form_values(pts, FormSpec(p, m)).tolist() == sorted(
            oracles.form_values(pts, m, p)
        )

    def test_value_count_invariant_under_scaling(self):
        p, rng = 11, rng_for("form-scale")
        pts = random_distinct_points(rng, p, 2, 12)
        base = form_values(pts, wedge_form(p))
        for lam in range(2, p):
            scaled = [(lam * a % p, lam * b % p) for a, b in pts]
            assert len(form_values(scaled, wedge_form(p))) == len(base)


class TestWedgeSolutions:
    def test_single_point_has_no_nonzero_solution(self):
        assert wedge_solution_count([(1, 0)], [(1, 0)], 7) == 0

    def test_axes_pair(self):
        S = [(1, 0), (0, 1)]
        assert wedge_solution_count(S, S, 7) == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_quadruple_loop(self, seed):
        rng = rng_for("wedge", seed)
        p = rng.choice([5, 7])
        S = random_distinct_points(rng, p, 2, rng.randrange(1, 9))
        T = random_distinct_points(rng, p, 2, rng.randrange(1, 9))
        assert wedge_solution_count(S, T, p) == oracles.wedge_solutions(S, T, p)


class TestWedgeToIncidence:
    def test_single_anisotropic_point(self):
        points, planes = wedge_to_incidence([(1, 0)], [(1, 0)], 7)
        assert len(points) == 1 and len(planes) == 1
        assert points.weights[0] == 1 and planes.weights[0] == 1
        assert weighted_incidences(points, planes)[1] == 1

    def test_homothety_classes_collapse(self):
        p = 7
        S = [(1, 0), (0, 1), (2, 0)]
        points, planes = wedge_to_incidence(S, S, p)
        weights = sorted(points.weights)
        # (1,0) x (2,0) and (2,0) x (4,0)=... share the projective class of
        # ((1,0),(2,0)); joint dilation classes produce a weight-2 class
        assert 2 in weights
        assert points.total_weight() == len(S) ** 2
        assert planes.total_weight() == len(S) ** 2

    def test_origin_rejected(self):
        with pytest.raises(GeometryError):
            wedge_to_incidence([(0, 0), (1, 0)], [(1, 0)], 7)

    @pytest.mark.parametrize("seed", range(6))
    def test_weighted_incidences_count_engg_solutions(self, seed):
        rng = rng_for("engg", seed)
        p = rng.choice([5, 7, 11])
        S = [q for q in random_distinct_points(rng, p, 2, rng.randrange(1, 11)) if q != (0, 0)]
        T = [q for q in random_distinct_points(rng, p, 2, rng.randrange(1, 11)) if q != (0, 0)]
        if not S or not T:
            return
        points, planes = wedge_to_incidence(S, T, p)
        assert weighted_incidences(points, planes)[1] == oracles.engg_solutions(S, T, p)
        assert points.total_weight() == len(S) * len(T)
        assert planes.total_weight() == len(S) * len(T)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_classes_and_count_match_oracles(self, data):
        p = data.draw(st.sampled_from([3, 5, 7, 13, BIG]))
        vec = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)).filter(any)
        S = data.draw(st.lists(vec, min_size=1, max_size=6, unique=True))
        T = data.draw(st.lists(vec, min_size=1, max_size=6, unique=True))
        # a common dilation of both sets makes pairs share their classes
        c = data.draw(st.integers(1, p - 1))
        S = sorted(set(S) | {(c * x % p, c * y % p) for x, y in S})
        T = sorted(set(T) | {(c * x % p, c * y % p) for x, y in T})
        points, planes = wedge_to_incidence(S, T, p)
        (pt_rows, pt_w), (pl_rows, pl_w) = oracles.wedge_classes(S, T, p)
        assert points.dim == planes.dim == 4
        assert points.rows.tolist() == [list(r) for r in pt_rows]
        assert points.weights == tuple(pt_w)
        assert [tuple(n) for n in planes.rows[:, :-1].tolist()] == pl_rows
        assert planes.weights == tuple(pl_w)
        assert not planes.rows[:, -1].any()
        assert points.total_weight() == planes.total_weight() == len(S) * len(T)
        _, weighted = weighted_incidences(points, planes)
        assert weighted == form_solution_count(S, T, wedge_form(p), include_zero=True)
        if p < 100:
            assert weighted == oracles.engg_solutions(S, T, p)


def _tables(rep, p):
    """A right-triangle report's corners and groups as the oracle's
    per-corner tables: (corner, [(canonical line, n(l)), ...])."""
    pts = [tuple(q) for q in rep.corners.tolist()]
    tables: dict[int, list] = {}
    for z, d0, d1, c in rep.groups.tolist():
        tables.setdefault(z, []).append((oracles.canonical_line(pts[z], (d0, d1), p), c))
    return [(pts[z], rows) for z, rows in tables.items()]


class TestRightTriangles:
    def test_hand_value_axes(self):
        rep = right_triangle_count([(0, 0), (1, 0), (0, 1)], 5)
        assert rep.total == 2 == rep.aggregated

    def test_isotropic_collinear_triple(self):
        rep = right_triangle_count([(0, 0), (1, 2), (2, 4)], 5)
        assert rep.total == 12

    def test_collinear_non_isotropic_gives_zero(self):
        rep = right_triangle_count([(0, 0), (1, 0), (2, 0), (3, 0)], 7)
        assert rep.total == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_triple_loop(self, seed):
        rng = rng_for("right", seed)
        p = rng.choice([5, 7, 13])
        pts = random_distinct_points(rng, p, 2, rng.randrange(3, 20))
        rep = right_triangle_count(pts, p)
        assert rep.total == oracles.right_triangles(pts, p)

    def test_table_entries_recount(self):
        p, rng = 11, rng_for("right-table")
        pts = random_distinct_points(rng, p, 2, 12)
        rep = right_triangle_count(pts, p)
        for z, rows in _tables(rep, p):
            for (base, d), n_l in rows:
                assert oracles.on_line(z, base, d, p)
                assert n_l == sum(1 for q in pts if q != z and oracles.on_line(q, base, d, p))

    def test_needs_three_points(self):
        with pytest.raises(GeometryError):
            right_triangle_count([(0, 0), (1, 1)], 7)


class TestFormSolutionCount:
    def test_include_zero_matches_oracle(self):
        rng = rng_for("formsol")
        p = 7
        S = random_distinct_points(rng, p, 2, 8)
        T = random_distinct_points(rng, p, 2, 7)
        assert form_solution_count(S, T, wedge_form(p), include_zero=True) == (
            oracles.wedge_solutions(S, T, p, include_zero=True)
        )


# ---------------------------------------------------------------------------
# the pair-value kernel against the per-pair loops in `oracles`

BIG = 2147483647  # 2^31 - 1


@st.composite
def point_sets(draw, primes=(3, 5, 7, 13), dims=(2, 3), max_size=14, min_size=0):
    """(p, sorted distinct points), with a planted isotropic line at times so
    that null pairs and repeated distances occur."""
    p = draw(st.sampled_from(primes))
    dim = draw(st.sampled_from(dims))
    vec = st.tuples(*(st.integers(0, p - 1) for _ in range(dim)))
    pts = set(draw(st.lists(vec, min_size=min_size, max_size=max_size)))
    if draw(st.booleans()):
        base = draw(vec)
        iso = [v for v in itertools.product(range(p), repeat=dim)
               if any(v) and oracles.nsq(v, p) == 0]
        if iso:
            d = draw(st.sampled_from(iso))
            for t in draw(st.sets(st.integers(0, p - 1), max_size=4)):
                pts.add(tuple((b + t * c) % p for b, c in zip(base, d)))
    return p, sorted(pts)


def forms(p):
    return st.tuples(*(st.integers(0, p - 1) for _ in range(4))).filter(
        lambda m: (m[0] * m[3] - m[1] * m[2]) % p
    ).map(lambda m: ((m[0], m[1]), (m[2], m[3])))


def _isotropic_big():
    """An isotropic (1, a, b) mod 2^31 - 1, which is 3 mod 4, so that
    x^((p + 1) / 4) is a square root of a square x."""
    a = next(a for a in range(1, 50) if pow(-1 - a * a, (BIG - 1) // 2, BIG) == 1)
    return 1, a, pow(-1 - a * a, (BIG + 1) // 4, BIG)


def _distance_oracle(pts, p):
    """The report's fields from the double loops, the arrays as lists."""
    return dict(
        values=sorted(oracles.distance_values(pts, p)),
        pinned_counts=oracles.pinned_counts(pts, p),
        zero_pairs=oracles.zero_pairs(pts, p),
        in_semi_isotropic_plane=(
            oracles.semi_isotropic_plane(pts, p) if len(pts[0]) == 3 else None),
    )


def _assert_distance_report(pts, p):
    rep = distance_set(pts, p)
    for field, value in _distance_oracle(pts, p).items():
        got = getattr(rep, field)
        assert (got.tolist() if isinstance(got, np.ndarray) else got) == value, field
    # 0 sorts first, and every pinned count sees it once
    assert rep.values[1:].tolist() == sorted(oracles.distance_values(pts, p) - {0})
    assert (rep.pinned_counts - 1).tolist() == [
        len({oracles.nsq(oracles.diff(s, t, p), p) for t in pts} - {0}) for s in pts]


def _sq_histogram(S, T, m, p, include_zero):
    hist = {}
    for s in S:
        for t in T:
            v = oracles.form_apply(m, s, t, p)
            hist[v] = hist.get(v, 0) + 1
    return sum(c * c for v, c in hist.items() if include_zero or v)


class TestKernelAgainstOracles:
    @settings(max_examples=60, deadline=None)
    @given(point_sets(min_size=2))
    def test_distance_report(self, case):
        p, pts = case
        if len(pts) >= 2:
            _assert_distance_report(pts, p)

    @settings(max_examples=60, deadline=None)
    @given(point_sets(dims=(3,), max_size=10))
    def test_energy_delta(self, case):
        p, pts = case
        assert energy_delta(pts, p) == oracles.energy_delta(pts, p)
        assert energy_delta(pts, p, restricted=True) == oracles.energy_delta(
            pts, p, restricted=True)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((3, 5, 7, 13)).flatmap(
        lambda p: st.tuples(st.just(p), forms(p), point_sets(primes=(p,), dims=(2,)),
                            point_sets(primes=(p,), dims=(2,), max_size=8))))
    def test_form_values_and_solutions(self, case):
        p, m, (_, S), (_, T) = case
        form = FormSpec(p, m)
        assert form_values(S, form).tolist() == sorted(oracles.form_values(S, m, p))
        for include_zero in (False, True):
            assert form_solution_count(S, T, form, include_zero=include_zero) == (
                _sq_histogram(S, T, m, p, include_zero))

    @settings(max_examples=40, deadline=None)
    @given(point_sets(dims=(2,), max_size=8), point_sets(dims=(2,), max_size=6))
    def test_wedge_solutions(self, a, b):
        p, S = a
        T = sorted({tuple(c % p for c in q) for q in b[1]})
        for include_zero in (False, True):
            assert form_solution_count(S, T, wedge_form(p), include_zero=include_zero) == (
                oracles.wedge_solutions(S, T, p, include_zero=include_zero))

    @settings(max_examples=60, deadline=None)
    @given(point_sets(dims=(2,), min_size=3))
    def test_right_triangles(self, case):
        p, pts = case
        if len(pts) < 3:
            return
        rep = right_triangle_count(pts, p)
        aggregated, tables = oracles.right_triangle_tables(pts, p)
        assert rep.total == oracles.right_triangles(pts, p) == aggregated == rep.aggregated
        assert _tables(rep, p) == tables

    def test_exact_square_sum_route(self, monkeypatch):
        # below the bound the squares are summed in int64; force python ints
        p = 13
        S = [(a, b) for a in range(p) for b in range(3)]
        dot = FormSpec(p, ((1, 0), (0, 1)))
        want = form_solution_count(S, S, dot)
        monkeypatch.setattr(erdos, "_NP_SAFE", 1)
        assert form_solution_count(S, S, dot) == want == _sq_histogram(
            S, S, dot.matrix, p, False)


class TestSemiIsotropicPlane:
    @st.composite
    def planted(draw):
        """Points on one plane y.q == c (y possibly isotropic), on a line,
        repeated, or free."""
        p = draw(st.sampled_from((2, 3, 5, 7, 13)))
        coord = st.integers(0, p - 1)
        vec = st.tuples(coord, coord, coord)
        kind = draw(st.sampled_from(("plane", "line", "free")))
        if kind == "free":
            return p, draw(st.lists(vec, max_size=6))
        base = draw(vec)
        if kind == "line":
            d = draw(vec)
            return p, [tuple((b + t * c) % p for b, c in zip(base, d))
                       for t in draw(st.lists(coord, min_size=1, max_size=5))]
        y = draw(vec.filter(any))
        u = next(v for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
                 if (y[1] * v[2] - y[2] * v[1], y[2] * v[0] - y[0] * v[2],
                     y[0] * v[1] - y[1] * v[0]) != (0, 0, 0))
        # u x y and (u x y) x y span the plane y-perp when y is anisotropic;
        # for isotropic y use u x y and y itself, which lies in y-perp
        w1 = tuple(c % p for c in (u[1] * y[2] - u[2] * y[1], u[2] * y[0] - u[0] * y[2],
                                  u[0] * y[1] - u[1] * y[0]))
        w2 = y if oracles.nsq(y, p) == 0 else tuple(
            c % p for c in (w1[1] * y[2] - w1[2] * y[1], w1[2] * y[0] - w1[0] * y[2],
                            w1[0] * y[1] - w1[1] * y[0]))
        pairs = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
        return p, [tuple((b + s * a1 + t * a2) % p for b, a1, a2 in zip(base, w1, w2))
                   for s, t in pairs]

    @settings(max_examples=200, deadline=None)
    @given(planted())
    def test_rank_test_matches_enumeration(self, case):
        p, pts = case
        assert supported_in_semi_isotropic_plane(pts, p) == oracles.semi_isotropic_plane(pts, p)

    @pytest.mark.parametrize("p", [10007, BIG])
    def test_large_p_is_immediate(self, p):
        # (1, 2, 3) x (5, 7, 11) = (1, 4, -3) has norm 26, not isotropic
        assert not supported_in_semi_isotropic_plane([(0, 0, 0), (1, 2, 3), (5, 7, 11)], p)
        # the plane (1, 1, 0)-perp holds an isotropic vector exactly when
        # -2 is a square mod p
        minus_two_square = pow(p - 2, (p - 1) // 2, p) == 1
        assert supported_in_semi_isotropic_plane([(0, 0, 0), (1, 1, 0)], p) == minus_two_square

    def test_isotropic_normal_at_large_p(self):
        v = _isotropic_big()
        # two points on an isotropic line and a third off it, in v-perp
        u = (0, v[2], BIG - v[1])
        assert supported_in_semi_isotropic_plane([(0, 0, 0), v, u], BIG) is (
            oracles.nsq(v, BIG) == 0 and sum(a * b for a, b in zip(u, v)) % BIG == 0)


class TestBlockBoundaries:
    @pytest.mark.parametrize("cells", [1, 2, 5, 13])
    def test_every_consumer_across_blocks(self, monkeypatch, cells):
        monkeypatch.setattr(counting, "_BLOCK_CELLS", cells)
        rng = rng_for("erdos-blocks", cells)
        for p, dim in ((5, 3), (7, 3), (13, 2), (5, 2)):
            pts = random_distinct_points(rng, p, dim, 11)
            _assert_distance_report(pts, p)
            if dim == 3:
                assert energy_delta(pts, p) == oracles.energy_delta(pts, p)
                assert energy_delta(pts, p, restricted=True) == oracles.energy_delta(
                    pts, p, restricted=True)
            else:
                m = ((1, 2), (3, 5))  # determinant -1
                T = pts[:5]
                assert form_values(pts, FormSpec(p, m)).tolist() == sorted(
                    oracles.form_values(pts, m, p))
                for include_zero in (False, True):
                    assert form_solution_count(pts, T, FormSpec(p, m), include_zero) == (
                        _sq_histogram(pts, T, m, p, include_zero))


class TestLargePrime:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(*(st.integers(0, BIG - 1),) * 3), min_size=2, max_size=8,
                    unique=True))
    def test_distance_set(self, pts):
        pts = sorted(pts)
        rep = distance_set(pts, BIG)
        assert rep.values.tolist() == sorted(oracles.distance_values(pts, BIG))
        assert rep.pinned_counts.tolist() == oracles.pinned_counts(pts, BIG)
        assert rep.zero_pairs == oracles.zero_pairs(pts, BIG)

    def test_distance_set_null_pairs(self):
        line = [tuple(t * c % BIG for c in _isotropic_big()) for t in (0, 1, 2, 5, -3)]
        pts = sorted(set(line) | {(1, 2, 3)})
        rep = distance_set(pts, BIG)
        assert rep.values.tolist() == sorted(oracles.distance_values(pts, BIG))
        assert rep.pinned_counts.tolist() == oracles.pinned_counts(pts, BIG)
        assert rep.zero_pairs == oracles.zero_pairs(pts, BIG) == 20
        assert distance_set(line, BIG).in_semi_isotropic_plane is True

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, BIG - 1), st.integers(0, BIG - 1)),
                    min_size=1, max_size=8, unique=True), forms(BIG))
    def test_form_values(self, pts, m):
        form = FormSpec(BIG, m)
        assert form_values(pts, form).tolist() == sorted(oracles.form_values(pts, m, BIG))
        assert form_solution_count(pts, pts, form, include_zero=True) == _sq_histogram(
            pts, pts, m, BIG, True)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_histogram_merges_logarithmically_often(self, monkeypatch, dim):
        # no value repeats at 2^31 - 1, so the histogram grows with every
        # block; merging once the held runs outnumber it merges O(log) times
        cells = 1 << 10
        monkeypatch.setattr(counting, "_BLOCK_CELLS", cells)
        merge, calls = erdos._merge_runs, []
        monkeypatch.setattr(erdos, "_merge_runs", lambda held: calls.append(1) or merge(held))
        pts = random_distinct_points(rng_for("histogram-merges", dim), BIG, dim, 300)
        blocks = -(-len(pts) // (cells // len(pts)))
        if dim == 3:
            rep = distance_set(pts, BIG)
            assert rep.values.tolist() == sorted(oracles.distance_values(pts, BIG))
            assert rep.zero_pairs == oracles.zero_pairs(pts, BIG)
            assert calls
        else:
            m = ((1, 2), (3, 5))
            assert form_values(pts, FormSpec(BIG, m)).tolist() == sorted(
                oracles.form_values(pts, m, BIG))
        assert len(calls) <= 2 * blocks.bit_length() + 2, (len(calls), blocks)


def test_distance_set_memory_is_bounded_by_the_block(monkeypatch):
    from fpgeom.constructions import semi_isotropic_set

    pts = semi_isotropic_set(20, 40, 101, seed=1).points
    n = len(pts)
    for cells in (counting._BLOCK_CELLS, 1 << 14):
        monkeypatch.setattr(counting, "_BLOCK_CELLS", cells)
        block = min(n, cells // n) * n
        distance_set(pts, 101)
        tracemalloc.start()
        try:
            distance_set(pts, 101)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 16 bytes a cell while a block is formed: the one table every block
        # is written into and the product temporary of the same shape; its
        # run-head masks (2 bytes a cell) come after the temporary is freed;
        # the run heads and per-point arrays stay within 512 bytes a point
        assert peak < 16 * block + 512 * n, (cells, peak)


@pytest.mark.parametrize("dim, per_value", [(3, 96), (2, 64)])
def test_value_set_memory_at_the_largest_modulus(dim, per_value):
    # at p = 2^31 - 1 almost every pair value is new, so the value set has
    # about n^2 / 2 distances or n^2 form values; merging the values alone,
    # with no counts and no python objects, keeps the peak near 60 and 48
    # bytes a value
    pts = random_distinct_points(rng_for("value-set-memory", dim), BIG, dim, 1500)
    tracemalloc.start()
    try:
        if dim == 3:
            values = distance_set(pts, BIG).values
        else:
            values = form_values(pts, FormSpec(BIG, ((1, 2), (3, 5))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(values) > len(pts) ** 2 // 3
    assert peak < per_value * len(values), (peak, peak / len(values))

