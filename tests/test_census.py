"""The line census against the per-pair direction-group loop in `oracles`.

Every user of the census (k and k* with their witnesses, spanned and rich
lines and the isotropic-line maximum) is held to the loop it replaced, on hypothesis-generated sets in dimensions 2, 3
and 4, across block boundaries, at p = 2^31 - 1, and for its memory.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fpgeom import counting
from fpgeom.constructions import sphere_config
from fpgeom.counting import WeightedPointSet, max_collinear, rich_lines, spanned_lines
from fpgeom.energy import max_on_isotropic_line
from fpgeom.geom import AffineLine

BIG = 2147483647  # 2^31 - 1


@st.composite
def point_sets(draw, primes=(3, 5, 7), dims=(2, 3, 4), max_free=16):
    """(p, sorted distinct points): free points plus a few planted lines, so
    rich and isotropic lines occur."""
    p = draw(st.sampled_from(primes))
    dim = draw(st.sampled_from(dims))
    vec = st.tuples(*(st.integers(0, p - 1) for _ in range(dim)))
    pts = set(draw(st.lists(vec, max_size=max_free)))
    for base, d, ts in draw(st.lists(
            st.tuples(vec, vec, st.sets(st.integers(0, p - 1), min_size=2)), max_size=3)):
        if any(d):
            pts.update(tuple((b + t * c) % p for b, c in zip(base, d)) for t in ts)
    return p, sorted(pts)


def _raw(line):
    return None if line is None else (line.base, line.direction)


def _check_collinearity(p, pts, exclude):
    ws = WeightedPointSet.of(pts, p, dim=len(pts[0]))
    lines = frozenset(AffineLine(p, b, d) for b, d in exclude)
    (k, wit), (k_star, wit_star) = counting._collinearity(ws, exclude=lines)
    (ok, owit), (ok_star, owit_star) = oracles.collinearity(pts, p, exclude)
    assert (k, _raw(wit)) == (ok, owit)
    assert (k_star, _raw(wit_star)) == (ok_star, owit_star)


def _exclusions(p, pts, picks):
    """The top line plus lines through the picked point pairs."""
    (_, top), _ = oracles.collinearity(pts, p)
    out = [top] if top else []
    for a, b in picks:
        a, b = pts[a % len(pts)], pts[b % len(pts)]
        if a != b:
            out.append((a, oracles.diff(b, a, p)))
    return out


def _check_all(p, pts, picks=()):
    _check_collinearity(p, pts, [])
    _check_collinearity(p, pts, _exclusions(p, pts, picks))
    if len(pts) < 2:
        assert max_on_isotropic_line(pts, p) == len(pts)
        return
    k, wit = max_collinear(pts, p)
    assert (k, _raw(wit)) == oracles.collinearity(pts, p)[0]
    got = [(_raw(line), c) for line, c in spanned_lines(pts, p).items()]
    assert got == list(oracles.spanned_lines(pts, p).items())
    rich = [(_raw(line), c) for line, c in rich_lines(pts, 3, p)]
    assert rich == sorted(((l, c) for l, c in got if c >= 3), key=lambda x: (-x[1], x[0]))
    assert max_on_isotropic_line(pts, p) == max(1, oracles.isotropic_lines(pts, p)[1])


pairs = st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=3)


@given(point_sets().filter(lambda s: s[1]), pairs)
@settings(max_examples=150, deadline=None)
def test_census_matches_direction_group_loop(case, picks):
    p, pts = case
    _check_all(p, pts, picks)


@pytest.mark.parametrize("block", [1, 2, 5, 13])
def test_block_boundaries(monkeypatch, block):
    # pair_blocks takes _BLOCK_CELLS // 16 pairs a block
    monkeypatch.setattr(counting, "_BLOCK_CELLS", 16 * block)
    for dim, p in ((2, 5), (3, 7), (4, 3)):
        rng = random.Random(repr(("census-blocks", block, dim)))
        pts = {tuple(rng.randrange(p) for _ in range(dim)) for _ in range(14)}
        base, d = (0,) * dim, (1,) + (2,) * (dim - 1)
        pts.update(tuple((b + t * c) % p for b, c in zip(base, d)) for t in range(p))
        pts = sorted(pts)
        _check_all(p, pts, picks=[(1, 2), (3, 5)])


@pytest.mark.parametrize("block", [1, 2, 5, 13, counting._BLOCK_CELLS // 16])
def test_isotropic_maximum_across_blocks(monkeypatch, block):
    monkeypatch.setattr(counting, "_BLOCK_CELLS", 16 * block)
    p = 5
    # two isotropic lines: the census meets the 3-point one first, from
    # (1, 0); the 4-point one, with base (0, 0), holds k0
    first = [(1, 0), (2, 2), (4, 1)]
    larger = [(1, 3), (2, 1), (3, 4), (4, 2)]
    pts = sorted(first + larger)
    assert max_on_isotropic_line(pts, p) == oracles.isotropic_lines(pts, p)[1] == 4
    assert max_on_isotropic_line(first, p) == 3


@st.composite
def big_prime_sets(draw):
    """Sets over F_(2^31-1) with a planted line, so k > 2 occurs."""
    dim = draw(st.sampled_from((2, 3, 4)))
    vec = st.tuples(*(st.integers(0, BIG - 1) for _ in range(dim)))
    pts = set(draw(st.lists(vec, min_size=1, max_size=6)))
    base, d = draw(vec), draw(vec.filter(any))
    for t in draw(st.sets(st.integers(0, BIG - 1), min_size=2, max_size=5)):
        pts.add(tuple((b + t * c) % BIG for b, c in zip(base, d)))
    return sorted(pts)


@given(big_prime_sets())
@settings(max_examples=40, deadline=None)
def test_k_and_witness_at_largest_modulus(pts):
    k, wit = max_collinear(pts, BIG)
    assert k == oracles.max_collinear(pts, BIG)
    second = tuple((b + c) % BIG for b, c in zip(wit.base, wit.direction))
    assert sum(1 for q in pts if oracles.collinear(wit.base, second, q, BIG)) == k
    assert (k, _raw(wit)) == oracles.collinearity(pts, BIG)[0]


def test_census_memory_is_bounded_by_block():
    p = 31
    Q, _ = sphere_config(p)
    n = len(Q)
    tracemalloc.start()
    try:
        (k, _), _ = counting._collinearity(Q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert k == 2  # the pinned sweep row: no line lies on the unit sphere at p = 31
    # about 240 bytes per pair of a block of _BLOCK_CELLS // 16 pairs, plus a
    # few int64 arrays over the points
    assert peak < 32 * counting._BLOCK_CELLS + 64 * n
    # one int64 direction array over every pair would need n(n-1)/2 * 3 * 8 bytes
    assert peak < n * (n - 1) // 2 * 24 // 8
