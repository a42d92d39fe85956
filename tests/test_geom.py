import itertools

import numpy as np
import pytest

import oracles
from conftest import rng_for
from fpgeom.counting import WeightedLineSet
from fpgeom.geom import AffineLine, DimensionMismatchError, GeometryError


def _through(q1, q2, p):
    return AffineLine(p, q1, oracles.diff(q2, q1, p))


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
            assert oracles.on_line(q1, l.base, l.direction, p)
            assert oracles.on_line(q2, l.base, l.direction, p)

    def test_point_set_equality(self):
        p = 7
        l1 = _through((1, 2, 3), (4, 5, 6), p)
        l2 = _through((4, 5, 6), (1, 2, 3), p)
        l3 = AffineLine(p, (1, 2, 3), (6, 6, 6))
        assert l1 == l2 == l3
        assert set(oracles.line_points(l1.base, l1.direction, p)) == set(
            oracles.line_points((1, 2, 3), (6, 6, 6), p))

    def test_zero_direction_rejected(self):
        with pytest.raises(GeometryError, match="^zero vector has no canonical scaling$"):
            AffineLine(7, (1, 1, 1), (0, 0, 0))
        with pytest.raises(GeometryError, match="^zero vector has no canonical scaling$"):
            AffineLine(7, (1, 1, 1), (7, 14, 0))

    def test_dimensions_must_agree(self):
        with pytest.raises(DimensionMismatchError, match="^base and direction dimensions differ$"):
            AffineLine(7, (1, 1), (0, 1, 0))
        # a zero direction is reported first
        with pytest.raises(GeometryError, match="zero vector"):
            AffineLine(7, (1, 1), (0, 0, 0))

    def test_the_form_of_the_line_sets(self):
        # one canonical line form: AffineLine's is WeightedLineSet's row
        p, rng = 13, rng_for("line-form")
        for _ in range(50):
            base = tuple(rng.randrange(-30, 30) for _ in range(3))
            d = tuple(rng.randrange(p) for _ in range(3))
            if not any(d):
                continue
            l = AffineLine(p, base, d)
            row = WeightedLineSet.of([(base, d)], p).rows[0].tolist()
            assert [*l.base, *l.direction] == row
            assert all(type(c) is int for c in (*l.base, *l.direction))

    def test_canonical_form_keeps_the_point_set(self):
        p, rng = 5, rng_for("line-contains")
        for _ in range(50):
            base = tuple(rng.randrange(p) for _ in range(3))
            d = tuple(rng.randrange(p) for _ in range(3))
            if not any(d):
                continue
            l = AffineLine(p, base, d)
            assert (l.base, l.direction) == oracles.canonical_line(base, d, p)
            assert set(oracles.line_points(l.base, l.direction, p)) == set(
                oracles.line_points(base, d, p))


class TestCovectorConversion:
    def test_covector_holds_exactly_the_line(self):
        p, rng = 11, rng_for("covector")
        plane = list(itertools.product(range(p), repeat=2))
        for _ in range(50):
            base = (rng.randrange(p), rng.randrange(p))
            d = (rng.randrange(p), rng.randrange(p))
            if d == (0, 0):
                continue
            (a, b, c), = WeightedLineSet.of([(base, d)], p).covectors().tolist()
            assert {q for q in plane if oracles.on_plane(q, (a, b), c, p)} == set(
                oracles.line_points(base, d, p))

    def test_covectors_are_planar_only(self):
        lines = WeightedLineSet.of(np.array([[0, 0, 0, 1, 2, 3]]), 7)
        with pytest.raises(GeometryError):
            lines.covectors()
