"""Hypothesis property tests for the structural invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import tuples
from fpgeom.counting import (
    WeightedPlaneSet,
    WeightedPointSet,
    _scale_canonical,
    count_point_plane,
    count_restricted,
    weighted_incidences,
)
from fpgeom.energy import rectangle_energy_paraboloid, rectangle_energy_sphere
from fpgeom.geom import AffineLine
from fpgeom.quadrics import paraboloid_lift, sphere_points

P = 13

coords3 = st.tuples(*(st.integers(0, P - 1) for _ in range(3)))
nonzero3 = coords3.filter(lambda v: any(v))
coords2 = st.tuples(st.integers(0, P - 1), st.integers(0, P - 1))


@given(nonzero3, st.integers(1, P - 1))
def test_canonical_scaling_is_projective(v, lam):
    scaled = tuple(lam * c % P for c in v)
    once, twice = _scale_canonical(np.array([v, scaled]), P).tolist()
    assert once == twice


@given(nonzero3)
def test_canonical_scaling_idempotent(v):
    once = _scale_canonical(np.array([v]), P)
    assert _scale_canonical(once.copy(), P).tolist() == once.tolist()
    assert once[0, np.flatnonzero(once[0])[0]] == 1


@given(coords3, nonzero3, st.integers(0, P - 1))
def test_line_canonical_form_is_point_set_invariant(base, direction, shift):
    l1 = AffineLine(P, base, direction)
    shifted_base = tuple((b + shift * d) % P for b, d in zip(base, direction))
    scaled_dir = tuple(5 * d % P for d in direction)
    l2 = AffineLine(P, shifted_base, scaled_dir)
    assert l1 == l2


@given(st.lists(coords2, min_size=1, max_size=12, unique=True), coords2)
@settings(max_examples=40)
def test_paraboloid_energy_translation_invariance(base, shift):
    # (u + s, |u + s|^2) is an affine image of (u, |u|^2), so a translation
    # of the base set keeps every additive quadruple of the lift
    moved = [tuple((c + a) % P for c, a in zip(u, shift)) for u in base]
    assert (rectangle_energy_paraboloid(paraboloid_lift(base, P), P).energy
            == rectangle_energy_paraboloid(paraboloid_lift(moved, P), P).energy)


@given(st.integers(1, P - 1), st.data())
@settings(max_examples=40)
def test_sphere_energy_is_invariant_under_signed_permutations(t, data):
    pool = tuples(sphere_points(P, 3, t))
    points = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
    perm = data.draw(st.permutations(range(3)))
    signs = data.draw(st.tuples(*(st.sampled_from((1, -1)) for _ in range(3))))
    moved = [tuple(s * q[i] % P for i, s in zip(perm, signs)) for q in points]
    assert (rectangle_energy_sphere(points, P, t).energy
            == rectangle_energy_sphere(moved, P, t).energy)


@given(
    st.lists(coords3, min_size=1, max_size=10),
    st.lists(st.tuples(nonzero3, st.integers(0, P - 1)), min_size=1, max_size=10),
    st.randoms(),
)
@settings(max_examples=25)
def test_count_is_input_order_invariant(points, raw_planes, rnd):
    planes = list(raw_planes)
    a = count_point_plane(
        WeightedPointSet.of(points, P, dim=3), WeightedPlaneSet.of(planes, P, dim=3)
    )
    rnd.shuffle(points)
    rnd.shuffle(planes)
    b = count_point_plane(
        WeightedPointSet.of(points, P, dim=3), WeightedPlaneSet.of(planes, P, dim=3)
    )
    assert a.pairs == b.pairs and a.weighted == b.weighted and a.k == b.k


# ---------------------------------------------------------------------------
# the incidence engine at the largest supported prime, against the oracles

BIG = 2147483647  # 2^31 - 1


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v)) % BIG


@st.composite
def big_configs(draw, dim):
    """Points, weighted (normal, offset) planes and (base, direction) lines
    over F_BIG, built so that incidences and routed pairs actually occur:
    points sit on the lines, and planes pass through points or lines."""
    coord = st.integers(0, BIG - 1)
    vec = st.tuples(*(coord for _ in range(dim)))
    nonzero = vec.filter(any)
    points = draw(st.lists(vec, min_size=1, max_size=6))
    lines = draw(st.lists(st.tuples(st.sampled_from(points), nonzero), max_size=3))
    for base, d in lines:
        for t in draw(st.lists(st.integers(1, BIG - 1), max_size=3)):
            points.append(tuple((b + t * c) % BIG for b, c in zip(base, d)))
    planes = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["point", "line", "parallel", "free"]))
        if kind == "line" and lines and dim == 3:
            base, d = draw(st.sampled_from(lines))
            v = draw(nonzero)
            # the cross product d x v is orthogonal to d
            n = tuple((d[(i + 1) % 3] * v[(i + 2) % 3] - d[(i + 2) % 3] * v[(i + 1) % 3]) % BIG
                      for i in range(3))
            if any(n):
                planes.append((n, _dot(n, base)))
                continue
        if kind == "parallel" and planes:
            n = draw(st.sampled_from(planes))[0]
            planes.append((n, _dot(n, draw(st.sampled_from(points)))))
            continue
        n = draw(nonzero)
        off = _dot(n, draw(st.sampled_from(points))) if kind != "free" else draw(coord)
        planes.append((n, off))
    weight = st.integers(1, 2**40)
    wq = draw(st.lists(weight, min_size=len(points), max_size=len(points)))
    wp = draw(st.lists(weight, min_size=len(planes), max_size=len(planes)))
    return points, wq, planes, wp, lines


@given(big_configs(3))
@settings(max_examples=40, deadline=None)
def test_point_plane_engines_match_oracles_at_big_prime(config):
    points, wq, raw_planes, wp, raw_lines = config
    Q = WeightedPointSet.of(points, BIG, weights=wq, dim=3)
    Pi = WeightedPlaneSet.of(raw_planes, BIG, weights=wp, dim=3)
    planes = [(tuple(r[:-1]), r[-1]) for r in Pi.rows.tolist()]
    rep = count_point_plane(Q, Pi)
    assert (rep.pairs, rep.weighted) == oracles.count_point_plane(
        list(map(tuple, Q.rows.tolist())), Q.weights, planes, Pi.weights, BIG)
    lines = [AffineLine(BIG, b, d) for b, d in raw_lines]
    rep = count_restricted(Q, Pi, lines)
    assert (rep.pairs, rep.weighted) == oracles.count_restricted(
        list(map(tuple, Q.rows.tolist())), Q.weights, planes, Pi.weights, raw_lines, BIG,
        on_line=oracles.on_line_by_minors,
        line_in_plane=oracles.line_in_plane_by_two_points)


@given(big_configs(2))
@settings(max_examples=40, deadline=None)
def test_point_line_2d_matches_oracle_at_big_prime(config):
    points, _, raw_lines, _, _ = config
    lines = WeightedPlaneSet.of(raw_lines, BIG, dim=2)
    keys, _ = oracles.canonical_planes(raw_lines, [1] * len(raw_lines), BIG)
    triples = [n + (c,) for n, c in keys]
    assert lines.rows.tolist() == [list(t) for t in triples]
    assert weighted_incidences(WeightedPointSet.of(points, BIG, dim=2), lines)[0] == (
        oracles.count_point_line_2d(sorted(set(points)), triples, BIG))
