import inspect
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from fpgeom import constructions, quadrics
from fpgeom.constructions import (
    ConstraintError,
    coprime_lattice,
    cylinder_set,
    elekes_grid,
    random_lines,
    random_planes,
    random_points,
    semi_isotropic_set,
    sphere_config,
)
from fpgeom.counting import (WeightedPlaneSet, WeightedPointSet, isotropic_directions,
                             max_collinear, weighted_incidences)
from fpgeom.erdos import distance_set
from fpgeom.field import is_prime
from fpgeom.quadrics import lines_on_sphere, off_quadric, paraboloid_lift, sphere_points
from conftest import rng_for, tuples


def _grid_count(grid, p):
    return weighted_incidences(WeightedPointSet.of(grid.points, p),
                               WeightedPlaneSet.of(grid.lines, p))[0]


def _line_pairs(rows):
    """Line rows (base, direction) of F_p^4 as pairs of tuples."""
    return [(tuple(r[:4]), tuple(r[4:])) for r in rows.tolist()]


class TestSphereConfig:
    def test_p3_sizes(self):
        Q, Pi = sphere_config(3)
        assert len(Q) == 6 and len(Pi) == 39

    def test_plane_family_size_formula(self):
        for p in (3, 7):
            _, Pi = sphere_config(p)
            assert len(Pi) == p * (p * p + p + 1)

    def test_p7_two_collinear(self):
        Q, _ = sphere_config(7)
        k, _ = max_collinear(Q.rows, 7)
        assert k == 2

    def test_sampled_planes(self):
        _, Pi = sphere_config(5)
        _, sample = sphere_config(5, 10, random.Random(2))
        assert len(sample) == 10
        assert set(map(tuple, sample.rows.tolist())) <= set(map(tuple, Pi.rows.tolist()))
        assert sphere_config(5, len(Pi), random.Random(2))[1] == Pi
        with pytest.raises(ConstraintError, match="nonnegative"):
            sphere_config(5, -2, random.Random(2))

    def test_membership(self):
        Q, _ = sphere_config(5)
        assert not off_quadric(Q.rows, 5, 1).any()

    def test_memory_is_a_few_plane_sets(self):
        tracemalloc.start()
        try:
            _, Pi = sphere_config(31)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the family written once, its reduced copy in `of` and the sort's
        # key, order and run bounds over it: about 3.1 times the rows' bytes
        assert peak < 4 * Pi.rows.nbytes


class TestCoprimeLattice:
    def test_sizes(self):
        assert len(coprime_lattice(4, 101)) == 11
        assert len(coprime_lattice(1, 7)) == 1

    def test_constraint_boundary(self):
        assert len(coprime_lattice(6, 211))  # 6 < sqrt(211)/2
        with pytest.raises(ConstraintError):
            coprime_lattice(8, 211)
        with pytest.raises(ConstraintError, match="N must be positive"):
            coprime_lattice(0, 211)

    def test_coprimality(self):
        # every coprime pair of [1..N]^2, in lex order
        assert tuples(coprime_lattice(10, 409)) == [
            (a, b) for a in range(1, 11) for b in range(1, 11) if math.gcd(a, b) == 1]

    def test_dot_products_avoid_wraparound(self):
        N, p = 6, 149
        S = coprime_lattice(N, p).tolist()
        for s in S:
            for t in S:
                v = s[0] * t[0] + s[1] * t[1]  # integer dot before reduction
                assert 2 <= v <= 2 * N * N
                assert 2 * N * N < p / 2


class TestElekesGrid:
    def test_n2_incidences(self):
        grid = elekes_grid(2, 11)
        assert len(grid.points) == 16 and len(grid.lines) == 8
        assert _grid_count(grid, 11) == 16

    def test_n3_incidences(self):
        grid = elekes_grid(3, 23)
        assert _grid_count(grid, 23) == 81

    def test_each_line_meets_n_points(self):
        n, p = 3, 23
        grid = elekes_grid(n, p)
        points = tuples(grid.points)
        for a, b, c in grid.lines.tolist():
            assert sum(1 for q in points if oracles.on_plane(q, (a, b), c, p)) == n

    def test_sizes(self):
        n, p = 4, 37
        grid = elekes_grid(n, p)
        assert len(grid.points) == 2 * n**3
        assert len(grid.lines) == n**3

    def test_points_are_the_grid_rows(self):
        # [1..n] x [1..2n^2] in lex order, as read-only int64 rows
        n, p = 3, 23
        points = elekes_grid(n, p).points
        assert points.dtype == np.int64 and not points.flags.writeable
        assert tuples(points) == [(x, y) for x in range(1, n + 1)
                                  for y in range(1, 2 * n * n + 1)]

    def test_lines_are_the_covector_rows(self):
        # a*x - y == -b for a then b increasing, as read-only int64 rows
        n, p = 3, 23
        lines = elekes_grid(n, p).lines
        assert lines.dtype == np.int64 and not lines.flags.writeable
        assert lines.tolist() == [[a, p - 1, -b % p] for a in range(1, n + 1)
                                  for b in range(1, n * n + 1)]

    def test_wraparound_guard(self):
        with pytest.raises(ConstraintError):
            elekes_grid(3, 17)  # needs p > 18

    def test_empty_grid_is_refused(self):
        with pytest.raises(ConstraintError, match="n must be positive"):
            elekes_grid(0, 17)


class TestSemiIsotropicSet:
    def test_basic_shape(self):
        built = semi_isotropic_set(2, 3, 5)
        assert len(built.points) == 6
        rep = distance_set(built.points, 5)
        assert len(rep.values) == 2

    def test_single_line_all_distances_zero(self):
        built = semi_isotropic_set(1, 4, 13)
        rep = distance_set(built.points, 13)
        assert rep.values.tolist() == [0]

    def test_nonzero_distance_budget(self):
        for (k, l, p) in ((3, 3, 13), (4, 5, 17), (2, 7, 29)):
            built = semi_isotropic_set(k, l, p)
            rep = distance_set(built.points, p)
            assert len(rep.values[1:]) <= k

    def test_seeded_variant_deterministic(self):
        a = semi_isotropic_set(3, 4, 13, seed=9)
        b = semi_isotropic_set(3, 4, 13, seed=9)
        c = semi_isotropic_set(3, 4, 13, seed=10)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)
        assert len(set(tuples(a.points))) == 12

    def test_structure(self):
        built = semi_isotropic_set(3, 4, 13)
        assert oracles.nsq(built.isotropic_direction, 13) == 0
        assert oracles.nsq(built.cross_direction, 13) != 0
        d = sum(a * b for a, b in zip(built.isotropic_direction, built.cross_direction))
        assert d % 13 == 0

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 101, 401])
    @pytest.mark.parametrize("seed", [None, 4])
    def test_directions_and_points_follow_the_full_listing(self, p, seed):
        # the first isotropic direction of the whole leading-one listing, and
        # the first listed direction orthogonal to it outside its span
        y, x = oracles.semi_isotropic_directions(p)
        assert y == tuple(isotropic_directions(p, 3)[0].tolist())
        k, l = min(3, p - 1), min(4, p)
        rng = random.Random(seed)
        want = [tuple((a * xc + b * yc) % p for xc, yc in zip(x, y))
                for a in range(1, k + 1)
                for b in (range(1, l + 1) if seed is None else rng.sample(range(p), l))]
        built = semi_isotropic_set(k, l, p, seed=seed)
        assert (built.isotropic_direction, built.cross_direction) == (y, x)
        assert tuples(built.points) == want

    @pytest.mark.parametrize("residue", [1, 3])
    def test_closed_forms_equal_the_listing_below_2000(self, residue):
        for p in (q for q in range(3, 2000) if is_prime(q) and q % 4 == residue):
            built = semi_isotropic_set(1, 1, p)
            got = (built.isotropic_direction, built.cross_direction)
            assert got == oracles.semi_isotropic_directions(p), p

    @pytest.mark.parametrize("p, residue", [(2147483647, 3), (2147483629, 1)])
    def test_largest_moduli(self, p, residue):
        # the largest prime of each class mod 4; the int64 sum a x + b y
        # may reach 2 (p - 1)^2, just under 2^63
        assert p % 4 == residue and is_prime(p)
        start = time.perf_counter()
        built = semi_isotropic_set(3, 4, p, seed=1)
        assert time.perf_counter() - start < 1
        y, x = built.isotropic_direction, built.cross_direction
        assert (oracles.nsq(y, p), oracles.dot(x, y, p)) == (0, 0)
        assert oracles.nsq(x, p) == oracles.dot(x, x, p) != 0
        rng = random.Random(1)
        want = [tuple((a * xc + b * yc) % p for xc, yc in zip(x, y))
                for a in range(1, 4) for b in rng.sample(range(p), 4)]
        assert tuples(built.points) == want

    def test_parameter_guards(self):
        with pytest.raises(ConstraintError):
            semi_isotropic_set(3, 2, 13)  # k > l
        with pytest.raises(ConstraintError):
            semi_isotropic_set(2, 20, 13)  # more points than a line holds
        with pytest.raises(ConstraintError, match="need k < p distinct line offsets, got k=13"):
            semi_isotropic_set(13, 13, 13)  # k = l = p: the offsets run out first


class TestCylinderSet:
    def test_single_generator_all_degenerate(self):
        from fpgeom.energy import rectangle_energy_sphere

        built = cylinder_set(5, 1, 3, 1)
        rep = rectangle_energy_sphere(built.points, 5, 1)
        assert rep.rectangles == rep.degenerate

    def test_cross_line_rectangles_match_oracle(self):
        from fpgeom.energy import rectangle_energy_sphere

        built = cylinder_set(5, 1, 2, 2)
        rep = rectangle_energy_sphere(built.points, 5, 1)
        points = tuples(built.points)
        assert rep.energy == oracles.additive_energy(points, points, 5)
        assert rep.semi_degenerate >= 1

    def test_membership_and_generators(self):
        built = cylinder_set(5, 1, 2, 3)
        assert not off_quadric(built.points, 5, 1).any()
        gens = built.generators
        assert gens.shape == (3, 8) and gens.dtype == np.int64 and not gens.flags.writeable
        for _, direction in _line_pairs(gens):
            assert direction == tuple(gens[0, 4:].tolist())
            assert oracles.nsq(direction, 5) == 0

    def test_infeasible_parameters(self):
        with pytest.raises(ConstraintError):
            cylinder_set(5, 1, 9, 1)  # k0 > p
        with pytest.raises(ConstraintError):
            cylinder_set(5, 1, 2, 10**6)  # more generators than exist

    @pytest.mark.parametrize("p, t", [(p, t) for p in (3, 5, 7, 11, 13, 17, 19, 23)
                                      for t in (1, 2, 3) if t % p])
    def test_generators_match_isotropic_cylinder(self, p, t):
        # the construction reads its generators from the sphere's lines; the
        # oracle shifts the axis's base along each direction instead
        (base, direction), = _line_pairs(cylinder_set(p, t, 1, 1).generators)
        expected = oracles.cylinder_generators(base, direction, p)
        built = cylinder_set(p, t, 1, len(expected))
        assert _line_pairs(built.generators) == expected
        assert _line_pairs(built.generators)[0] == (base, direction)

    @pytest.mark.parametrize("p, t", [(p, t) for p in (3, 5, 7, 11, 13) for t in (1, 2, 3)
                                      if t % p])
    def test_generators_are_the_parallel_lines_orthogonal_to_the_axis(self, p, t):
        # the lines b + s u on the sphere with (b - x).u == 0 are every line
        # on the sphere parallel to the axis x + s u
        lines = _line_pairs(lines_on_sphere(p, 4, t))
        x, u = lines[0]
        expected = [(b, d) for b, d in lines if d == u
                    and oracles.dot(oracles.diff(b, x, p), u, p) == 0]
        assert expected == [(b, d) for b, d in lines if d == u]
        assert _line_pairs(cylinder_set(p, t, 1, len(expected)).generators) == expected

    def test_axis_is_the_first_line_on_the_sphere(self):
        for p, t in ((5, 1), (7, 3), (11, 2)):
            built = cylinder_set(p, t, 3, 2)
            axis = built.generators[0].tolist()
            assert axis == lines_on_sphere(p, 4, t)[0].tolist()
            assert tuples(built.points[:3]) == oracles.line_points(axis[:4], axis[4:], p)[:3]

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_every_sphere_holds_an_axis(self, p):
        # every sphere |x|^2 == t != 0 of F_p^4 holds (p^2 - 1)(p + 1) lines,
        # so the cylinder always has an axis and needs no check for one
        for t in range(1, p):
            assert len(lines_on_sphere(p, 4, t)) == (p * p - 1) * (p + 1)

    def test_precondition_errors(self):
        with pytest.raises(ConstraintError, match="t != 0"):
            cylinder_set(5, 5, 1, 1)
        with pytest.raises(ConstraintError, match="k0 >= 1"):
            cylinder_set(5, 1, 0, 1)
        with pytest.raises(ConstraintError, match="k0 >= 1"):
            cylinder_set(5, 1, 1, 0)


class _Scripted:
    """An rng whose randrange returns the given draws in order."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def randrange(self, stop):
        value = next(self._draws)
        assert 0 <= value < stop
        return value

    def left(self):
        return list(self._draws)


class TestRandomGenerators:
    @pytest.mark.parametrize("make", [random_points, random_planes, random_lines])
    def test_negative_count_is_constraint_error(self, make):
        with pytest.raises(ConstraintError, match="nonnegative"):
            make(11, 3, -1, rng_for("x"))

    @pytest.mark.parametrize("make", [random_points, random_planes, random_lines])
    def test_deterministic_under_seed(self, make):
        assert np.array_equal(make(11, 3, 5, rng_for("x")), make(11, 3, 5, rng_for("x")))
        assert not np.array_equal(make(11, 3, 5, rng_for("x")), make(11, 3, 5, rng_for("y")))

    def test_draws_in_order(self):
        # a point's coordinates; a plane's normal then its offset; a line's
        # direction then its base, emitted base first
        assert random_points(7, 2, 2, _Scripted([1, 2, 3, 4])).tolist() == [[1, 2], [3, 4]]
        assert random_planes(7, 2, 1, _Scripted([1, 2, 3])).tolist() == [[1, 2, 3]]
        assert random_lines(7, 2, 1, _Scripted([1, 2, 3, 4])).tolist() == [[3, 4, 1, 2]]

    def test_a_zero_normal_is_drawn_again(self):
        # the zero normal takes no offset: the next three draws are a normal
        rng = _Scripted([0, 0, 0, 1, 2, 0, 5])
        assert random_planes(7, 3, 1, rng).tolist() == [[1, 2, 0, 5]]
        assert rng.left() == []

    def test_a_zero_direction_is_drawn_again(self):
        # the zero direction takes no base: the next two draws are a direction
        rng = _Scripted([0, 0, 3, 1, 4, 6])
        assert random_lines(7, 2, 1, rng).tolist() == [[4, 6, 3, 1]]
        assert rng.left() == []


# every public function of quadrics and constructions that builds a set,
# with the width of its rows; each returns read-only int64 rows
SETS = {
    "sphere_points": (lambda: sphere_points(5, 4, 1), 4),
    "paraboloid_lift": (lambda: paraboloid_lift([(1, 2), (3, 4)], 7), 3),
    "lines_on_sphere": (lambda: lines_on_sphere(5, 4, 1), 8),
    "sphere_config": (lambda: sphere_config(5)[0].rows, 3),
    "sphere_config.planes": (lambda: sphere_config(5)[1].rows, 4),
    "coprime_lattice": (lambda: coprime_lattice(4, 101), 2),
    "elekes_grid": (lambda: elekes_grid(2, 11).points, 2),
    "elekes_grid.lines": (lambda: elekes_grid(2, 11).lines, 3),
    "semi_isotropic_set": (lambda: semi_isotropic_set(2, 3, 13).points, 3),
    "cylinder_set": (lambda: cylinder_set(5, 1, 2, 2).points, 4),
    "cylinder_set.generators": (lambda: cylinder_set(5, 1, 2, 2).generators, 8),
    "random_points": (lambda: random_points(11, 3, 5, rng_for("rows")), 3),
    "random_points.none": (lambda: random_points(11, 3, 0, rng_for("rows")), 3),
    "random_planes": (lambda: random_planes(11, 3, 5, rng_for("rows")), 4),
    "random_planes.none": (lambda: random_planes(11, 3, 0, rng_for("rows")), 4),
    "random_lines": (lambda: random_lines(11, 3, 5, rng_for("rows")), 6),
    "random_lines.none": (lambda: random_lines(11, 3, 0, rng_for("rows")), 6),
}


@pytest.mark.parametrize("name", sorted(SETS))
def test_every_set_is_read_only_int64_rows(name):
    build, width = SETS[name]
    rows = build()
    assert type(rows) is np.ndarray and rows.dtype == np.int64 and not rows.flags.writeable
    assert rows.ndim == 2 and rows.shape[1] == width


def test_every_set_builder_is_listed():
    # off_quadric, the one membership check, returns a mask and no set
    public = {name for module in (constructions, quadrics) for name, value in vars(module).items()
              if inspect.isfunction(value) and value.__module__ == module.__name__
              and not name.startswith("_")}
    assert public - {"off_quadric"} == {name.partition(".")[0] for name in SETS}
