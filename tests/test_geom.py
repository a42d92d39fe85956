import itertools

import pytest

import oracles
from conftest import rng_for
from fpgeom.geom import (
    AffineLine,
    AffinePlane,
    DimensionMismatchError,
    GeometryError,
    line_as_covector,
)


def _through(q1, q2, p):
    return AffineLine(p, q1, oracles.diff(q2, q1, p))


class TestIncidence:
    def test_origin_on_z_plane(self):
        pl = AffinePlane(7, (0, 0, 1), 0)
        assert pl.contains((0, 0, 0))
        assert not pl.contains((0, 0, 1))

    def test_random_agrees_with_dot_evaluation(self):
        p, rng = 31, rng_for("incidence")
        for _ in range(200):
            q = tuple(rng.randrange(p) for _ in range(3))
            normal = tuple(rng.randrange(p) for _ in range(3))
            if not any(normal):
                continue
            off = rng.randrange(p)
            assert AffinePlane(p, normal, off).contains(q) == oracles.on_plane(
                q, normal, off, p
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            AffinePlane(7, (0, 0, 1), 0).contains((0, 0))


class TestAffinePlane:
    def test_contains_line_matches_enumeration(self):
        p, rng = 5, rng_for("plane-contains-line")
        seen = set()
        for _ in range(200):
            normal = tuple(rng.randrange(p) for _ in range(3))
            if not any(normal):
                continue
            off = rng.randrange(p)
            base = tuple(rng.randrange(p) for _ in range(3))
            d = tuple(rng.randrange(p) for _ in range(3))
            if not any(d):
                continue
            plane = AffinePlane(p, normal, off)
            inside = all(oracles.on_plane(q, normal, off, p)
                         for q in oracles.line_points(base, d, p))
            assert plane.contains_line(AffineLine(p, base, d)) == inside
            seen.add(inside)
        assert seen == {False, True}


class TestAffineLine:
    def test_axis_line(self):
        l = _through((0, 0, 0), (1, 0, 0), 7)
        assert l.base == (0, 0, 0) and l.direction == (1, 0, 0)

    def test_canonical_scaling(self):
        l = _through((0, 0, 0), (2, 2, 2), 5)
        assert l.direction == (1, 1, 1)

    def test_membership_of_spanning_points(self):
        p, rng = 11, rng_for("line-members")
        for _ in range(100):
            q1 = tuple(rng.randrange(p) for _ in range(3))
            q2 = tuple(rng.randrange(p) for _ in range(3))
            if q1 == q2:
                continue
            l = _through(q1, q2, p)
            assert l.contains(q1) and l.contains(q2)

    def test_point_set_equality(self):
        p = 7
        l1 = _through((1, 2, 3), (4, 5, 6), p)
        l2 = _through((4, 5, 6), (1, 2, 3), p)
        l3 = AffineLine(p, (1, 2, 3), (6, 6, 6))
        assert l1 == l2 == l3
        assert set(oracles.line_points(l1.base, l1.direction, p)) == set(
            oracles.line_points((1, 2, 3), (6, 6, 6), p))

    def test_zero_direction_rejected(self):
        with pytest.raises(GeometryError):
            AffineLine(7, (1, 1, 1), (0, 0, 0))

    def test_contains_matches_enumeration(self):
        p, rng = 5, rng_for("line-contains")
        for _ in range(50):
            base = tuple(rng.randrange(p) for _ in range(3))
            d = tuple(rng.randrange(p) for _ in range(3))
            if not any(d):
                continue
            l = AffineLine(p, base, d)
            pts = set(oracles.line_points(base, d, p))
            for _ in range(10):
                q = tuple(rng.randrange(p) for _ in range(3))
                assert l.contains(q) == (q in pts)


class TestCovectorConversion:
    def test_covector_holds_exactly_the_line(self):
        p, rng = 11, rng_for("covector")
        plane = list(itertools.product(range(p), repeat=2))
        for _ in range(50):
            base = (rng.randrange(p), rng.randrange(p))
            d = (rng.randrange(p), rng.randrange(p))
            if d == (0, 0):
                continue
            cov = line_as_covector(AffineLine(p, base, d))
            assert {q for q in plane if cov.contains(q)} == set(oracles.line_points(base, d, p))
