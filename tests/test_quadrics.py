import itertools
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import tuples
from fpgeom import counting
from fpgeom.field import is_prime, legendre
from fpgeom.geom import DimensionMismatchError, GeometryError
from fpgeom.quadrics import lines_on_sphere, off_quadric, paraboloid_lift, sphere_points

PRIMES_TO_100 = [q for q in range(3, 100) if is_prime(q)]


def _points(line, p):
    """The points of a line row, base then direction."""
    d = len(line) // 2
    return oracles.line_points(line[:d], line[d:], p)


class TestSqrtTable:
    # counting._sqrt_table: both roots of each residue, the smaller first, -1 for none
    def test_examples(self):
        assert counting._sqrt_table(11)[4].tolist() == [2, 9]
        assert counting._sqrt_table(13)[0].tolist() == [0, -1]
        assert counting._sqrt_table(5)[2].tolist() == [-1, -1]  # squares mod 5 are {0, 1, 4}
        assert counting._sqrt_table(13)[10].tolist() == [6, 7]

    @pytest.mark.parametrize("p", PRIMES_TO_100)
    def test_matches_trial_squaring(self, p):
        roots = counting._sqrt_table(p)
        assert roots.shape == (p, 2)
        for a in range(p):
            got = [r for r in roots[a].tolist() if r >= 0]
            assert got == list(oracles.sqrt_by_squares(a, p) or ())
            assert roots[a].tolist() == got + [-1] * (2 - len(got))


class TestOffQuadric:
    def test_sphere_flags_the_rows_off_it(self):
        rows = [(1, 0, 0), (1, 1, 1), (8, 7, 7), (0, 0, 6)]
        assert off_quadric(rows, 7, 1).tolist() == [False, True, False, False]
        assert off_quadric(np.array(rows), 7, 1).tolist() == [False, True, False, False]
        # t is reduced mod p
        assert off_quadric(rows, 7, 8).tolist() == [False, True, False, False]

    def test_paraboloid_flags_the_rows_off_it(self):
        rows = np.vstack([paraboloid_lift([(1, 2), (3, 4), (6, 6)], 7), [(1, 2, 6)]])
        assert off_quadric(rows, 7).tolist() == [False, False, False, True]
        assert off_quadric(rows, 7, None).tolist() == [False, False, False, True]

    @pytest.mark.parametrize("t", [1, None])
    def test_no_rows(self, t):
        assert off_quadric(np.zeros((0, 4), dtype=np.int64), 7, t).shape == (0,)

    @pytest.mark.parametrize("t", [1, None])
    def test_mixed_widths_are_a_dimension_mismatch(self, t):
        with pytest.raises(DimensionMismatchError):
            off_quadric([(0, 0, 0), (0, 0)], 7, t)

    @pytest.mark.parametrize("width", [2, 5])
    @pytest.mark.parametrize("t, quadric", [(1, "spheres are"), (None, "the paraboloid is")])
    def test_the_width_is_the_dimension(self, width, t, quadric):
        # rows of any other width than 3 or 4 fail, with no rows as well
        for n in (0, 2):
            with pytest.raises(GeometryError) as err:
                off_quadric(np.zeros((n, width), dtype=np.int64), 7, t)
            assert str(err.value) == f"{quadric} generated in dimensions 3 and 4"


class TestIsotropicDirections:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_match_scan(self, p, d):
        # one representative per null direction, first nonzero entry 1, in
        # leading-one order; there are 1 + (-1|p) of them in the plane, p + 1
        # in F_p^3, (p + 1)^2 in F_p^4
        scan = [v for v in oracles.homogeneous_reps(p, d) if oracles.nsq(v, p) == 0]
        got = counting.isotropic_directions(p, d)
        assert got.shape == (len(scan), d)
        assert list(map(tuple, got.tolist())) == scan
        assert len(got) == {2: 1 + oracles.legendre_by_squares(-1, p),
                            3: p + 1, 4: (p + 1) ** 2}[d]

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_no_orthogonal_isotropic_pair_in_dim3(self, p):
        iso = counting.isotropic_directions(p, 3).tolist()
        for u, v in itertools.combinations(iso, 2):
            assert oracles.dot(u, v, p) != 0


class TestSpherePoints:
    def test_unit_sphere_p3(self):
        pts = sphere_points(3, 3, 1)
        assert pts.shape == (6, 3) and pts.dtype == np.int64 and not pts.flags.writeable
        assert not off_quadric(pts, 3, 1).any()

    def test_cone_p3(self):
        pts = sphere_points(3, 3, 0)
        assert len(pts) == 9 and [0, 0, 0] in pts.tolist()
        assert len(pts[pts.any(axis=1)]) == 8
        lines = lines_on_sphere(3, 3, 0)
        assert len(lines) == 4
        covered = set()
        for l in lines.tolist():
            covered |= set(_points(l, 3))
        assert covered == set(tuples(pts))

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_matches_full_scan_d3_all_t(self, p):
        for t in range(p):
            assert tuples(sphere_points(p, 3, t)) == oracles.sphere_scan(p, 3, t)

    def test_matches_full_scan_d3_p31(self):
        for t in (0, 1, 2, 17, 30):
            assert tuples(sphere_points(31, 3, t)) == oracles.sphere_scan(31, 3, t)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_full_scan_d4(self, p):
        for t in (0, 1, p - 1):
            assert tuples(sphere_points(p, 4, t)) == oracles.sphere_scan(p, 4, t)

    def test_rejects_unsupported_dimension(self):
        with pytest.raises(GeometryError):
            sphere_points(5, 2, 1)

    def test_peak_is_a_small_multiple_of_the_rows(self):
        # each head of m - 1 entries is taken once per root, by index, with no
        # table of every head repeated twice
        tracemalloc.start()
        try:
            pts = sphere_points(61, 4, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pts) == 61 ** 3 - 61  # p^3 - p points on x.x == 1 in F_p^4, p = 1 mod 4
        assert peak < 4 * pts.nbytes


class TestParaboloid:
    def test_lift_examples(self):
        lifted = paraboloid_lift([(0, 0), (1, 2)], 7)
        assert lifted.dtype == np.int64 and not lifted.flags.writeable
        assert lifted.tolist() == [[0, 0, 0], [1, 2, 5]]
        assert np.array_equal(paraboloid_lift(np.array([[8, 9]]), 7), [[1, 2, 5]])

    def test_lift_then_project_is_identity(self):
        pts = [(x, y) for x in range(5) for y in range(5)]
        assert np.array_equal(paraboloid_lift(pts, 5)[:, :-1], pts)

    def test_lift_of_nothing_is_empty(self):
        # no rows of an array keep its width; no rows of a sequence have none
        assert paraboloid_lift(np.zeros((0, 2), dtype=np.int64), 7).shape == (0, 3)
        for nothing in ([], iter(())):
            with pytest.raises(ValueError, match="explicit dimension"):
                paraboloid_lift(nothing, 7)

    def test_lift_rejects_mixed_widths(self):
        with pytest.raises(DimensionMismatchError):
            paraboloid_lift([(1, 2), (3, 4, 5)], 7)

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_full_lift_is_the_paraboloid(self, p, d):
        # lifting all of F_p^(d-1) gives the p^(d-1) points x with
        # x_d == x_1^2 + ... + x_(d-1)^2, and outside() is false on those only
        grid = list(itertools.product(range(p), repeat=d))
        scan = [x for x in grid if x[-1] == oracles.nsq(x[:-1], p)]
        lifted = paraboloid_lift(itertools.product(range(p), repeat=d - 1), p)
        assert tuples(lifted) == scan and len(lifted) == p ** (d - 1)
        off = off_quadric(grid, p)
        assert [x for x, o in zip(grid, off) if not o] == scan


def _raw(lines):
    """lines_on_sphere's rows as (base, direction) pairs, after checking they
    are a read-only int64 array of 2d columns."""
    assert lines.dtype == np.int64 and not lines.flags.writeable
    d = lines.shape[1] // 2
    return [(tuple(r[:d]), tuple(r[d:])) for r in lines.tolist()]


class TestLinesOnSphere2:
    """Lines on the 2-sphere |x|^2 == t != 0 in F_p^3."""

    def test_unruled_when_minus_t_nonsquare(self):
        assert legendre(-1, 7) == -1
        assert lines_on_sphere(7, 3, 1).shape == (0, 6)

    def test_ruled_case_regression_count(self):
        # -6 == 1 is a square mod 7; the doubly ruled sphere holds 2(p+1) lines
        lines = lines_on_sphere(7, 3, 6)
        assert len(lines) == 16
        for l in lines.tolist():
            assert not off_quadric(_points(l, 7), 7, 6).any()
            assert oracles.nsq(l[3:], 7) == 0

    @pytest.mark.parametrize("t", [1, 2])
    def test_p3_hand_scale(self, t):
        fast = lines_on_sphere(3, 3, t)
        assert _raw(fast) == oracles.sphere_lines_scan(3, 3, t)
        assert (len(fast) > 0) == (legendre(-t, 3) == 1)

    @pytest.mark.parametrize("p,t", [(5, 1), (5, 2), (5, 3), (5, 4), (7, 6)])
    def test_matches_unrestricted_scan(self, p, t):
        assert _raw(lines_on_sphere(p, 3, t)) == oracles.sphere_lines_scan(p, 3, t)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_ruling_criterion(self, p):
        for t in range(1, p):
            assert (len(lines_on_sphere(p, 3, t)) > 0) == (legendre(-t, p) == 1)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("p, t", [(3, 0), (3, 1), (3, 2), (5, 0), (5, 1), (5, 2),
                                  (7, 0), (7, 1), (7, 3)])
def test_lines_on_sphere_match_the_unrestricted_scan(d, p, t):
    assert _raw(lines_on_sphere(p, d, t)) == oracles.sphere_lines_scan(p, d, t)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_lines_on_sphere_across_blocks(monkeypatch, d, p):
    for t in (0, 1, p - 1):
        expected = oracles.sphere_lines_scan(p, d, t)
        # one direction a block, or a few directions with blocks ending mid-set
        for cells in (1, 7, 40):
            monkeypatch.setattr(counting, "_BLOCK_CELLS", cells)
            assert _raw(lines_on_sphere(p, d, t)) == expected


def test_lines_on_sphere_raises_on_a_row_off_the_sphere(monkeypatch):
    # every direction as a candidate (the sphere's 30 points pass the size
    # rule, so the census lists directions): a row with v.v != 0 fails the check
    monkeypatch.setattr(counting, "isotropic_directions",
                        lambda p, d: np.array(list(oracles.homogeneous_reps(p, d))))
    with pytest.raises(ArithmeticError, match="not on the sphere"):
        lines_on_sphere(5, 3, 1)


class TestLinesOnSphere3:
    def test_matches_unrestricted_scan_p3(self):
        for t in (1, 2):
            assert _raw(lines_on_sphere(3, 4, t)) == oracles.sphere_lines_scan(3, 4, t)

    def test_matches_unrestricted_scan_p5(self):
        assert _raw(lines_on_sphere(5, 4, 1)) == oracles.sphere_lines_scan(5, 4, 1)

    @pytest.mark.parametrize("p", [5])
    def test_no_orthogonal_isotropic_tangent_pair(self, p):
        # no sphere point carries two distinct mutually orthogonal isotropic lines
        for t in range(1, p):
            lines = lines_on_sphere(p, 4, t).tolist()
            by_point: dict[tuple, list[list[int]]] = {}
            for l in lines:
                for q in _points(l, p):
                    by_point.setdefault(q, []).append(l)
            for q, through in by_point.items():
                for l1, l2 in itertools.combinations(through, 2):
                    assert oracles.dot(l1[4:], l2[4:], p) != 0

    def test_fully_isotropic_plane_meets_sphere_in_one_line(self):
        # exhaustive at p=5: through an isotropic line on the sphere, a fully
        # isotropic plane cuts the sphere exactly along that line
        p = 5
        t = next(t for t in range(1, p) if len(lines_on_sphere(p, 4, t)))
        axis = lines_on_sphere(p, 4, t)[0].tolist()
        x, u = tuple(axis[:4]), tuple(axis[4:])
        axis_pts = set(_points(axis, p))
        for w in map(tuple, counting.isotropic_directions(p, 4).tolist()):
            if w == u or oracles.dot(w, u, p) != 0:
                continue
            # plane x + span(u, w) is fully isotropic
            section = {
                tuple((xi + a * ui + b * wi) % p for xi, ui, wi in zip(x, u, w))
                for a in range(p)
                for b in range(p)
            }
            section = sorted(section)
            assert {q for q, o in zip(section, off_quadric(section, p, t)) if not o} == axis_pts
