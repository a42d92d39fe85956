"""The line census against the per-pair direction-group loop in `oracles`.

Every user of the census (k and k* with their witnesses, spanned and rich
lines) is held to the loop it replaced, on hypothesis-generated sets in
dimensions 2, 3 and 4, across block boundaries, at p = 2^31 - 1, and for its
memory.  One size rule picks the census: by direction past it, from the
pairs below it.  On sets of one norm k reads only isotropic lines: by
direction along the isotropic directions, or below the rule from the
isotropic pair census, which is held to the isotropic groups of the full
census.  The census by direction is held to the lines of the loops' null
pairs, the most points on one isotropic line read from it
(`conftest.isotropic_line_max`) to the loops' isotropic-line maximum, and
along every direction to the pair census's groups.
"""

import random
import tracemalloc
from functools import cache
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import isotropic_line_max, tuples
from fpgeom import counting
from fpgeom.constructions import sphere_config
from fpgeom.counting import WeightedPointSet, max_collinear, rich_lines
from fpgeom.field import legendre
from fpgeom.geom import AffineLine
from fpgeom.quadrics import sphere_points

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
    """A witness row as the oracle's (base, direction), after checking it is
    a tuple of 2d ints."""
    if line is None:
        return None
    assert type(line) is tuple and all(type(c) is int for c in line)
    d = len(line) // 2
    return line[:d], line[d:]


def _rich(pts, k, p):
    """rich_lines' rows and counts as ((base, direction), count) pairs, in
    its order, after checking both arrays are read-only int64."""
    lines, counts = rich_lines(pts, k, p)
    for a in (lines, counts):
        assert a.dtype == np.int64 and not a.flags.writeable
    d = lines.shape[1] // 2
    return [((tuple(r[:d]), tuple(r[d:])), c) for r, c in zip(lines.tolist(), counts.tolist())]


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
        assert isotropic_line_max(pts, p) == len(pts)
        return
    k, wit = max_collinear(pts, p)
    assert (k, _raw(wit)) == oracles.collinearity(pts, p)[0]
    spanned = dict(_rich(pts, 2, p))
    assert spanned == oracles.spanned_lines(pts, p)
    rich = _rich(pts, 3, p)
    assert rich == sorted(((l, c) for l, c in spanned.items() if c >= 3),
                          key=lambda x: (-x[1], x[0]))
    assert isotropic_line_max(pts, p) == max(1, oracles.isotropic_lines(pts, p)[1])


pairs = st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=3)


@given(point_sets().filter(lambda s: s[1]), pairs)
@settings(max_examples=150, deadline=None)
def test_census_matches_direction_group_loop(case, picks):
    p, pts = case
    _check_all(p, pts, picks)


@given(point_sets().filter(lambda s: s[1]), pairs)
@settings(max_examples=60, deadline=None)
def test_census_witnesses_on_several_keys(case, picks):
    # the census's rows pack into one key at these moduli; two constant
    # columns of 2^40 split every ordering into several keys instead, and
    # every k, witness and line count stays the loop's
    p, pts = case
    packed, keys = counting._packed, []

    def split(cols, n):
        out = packed([*cols, *np.full((2, n), 1 << 40)], n)
        if n:  # an empty column's radix is 1
            keys.append(len(out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_packed", split)
        _check_all(p, pts, picks)
    assert keys and min(keys) >= 2


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
    assert isotropic_line_max(pts, p) == oracles.isotropic_lines(pts, p)[1] == 4
    assert isotropic_line_max(first, p) == 3


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
    base, direction = _raw(wit)
    second = tuple((b + c) % BIG for b, c in zip(base, direction))
    assert sum(1 for q in pts if oracles.collinear(base, second, q, BIG)) == k
    assert (k, _raw(wit)) == oracles.collinearity(pts, BIG)[0]


def _census_peak(Q):
    """(k, tracemalloc peak) of _collinearity(Q)."""
    tracemalloc.start()
    try:
        (k, _), _ = counting._collinearity(Q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return k, peak


def test_census_memory_is_bounded_by_block(census_calls):
    p = 31
    Q, _ = sphere_config(p)
    n = len(Q)
    k, peak = _census_peak(Q)
    assert census_calls == ["_direction_lines"]
    assert k == 2  # the pinned sweep row: no line lies on the unit sphere at p = 31
    # about 240 bytes per pair of a block of _BLOCK_CELLS // 16 pairs, plus a
    # few int64 arrays over the points
    assert peak < 32 * counting._BLOCK_CELLS + 64 * n
    # one int64 direction array over every pair would need n(n-1)/2 * 3 * 8 bytes
    assert peak < n * (n - 1) // 2 * 24 // 8


def test_full_census_memory_is_bounded_by_block(census_calls):
    Q = _moved_off(sphere_config(31)[0])
    n = len(Q)
    _, peak = _census_peak(Q)
    assert census_calls == ["_line_census"]
    assert peak < 32 * counting._BLOCK_CELLS + 64 * n
    assert peak < n * (n - 1) // 2 * 24 // 8


# ---------------------------------------------------------------------------
# the isotropic censuses: only the isotropic lines
#
# On a central sphere x.x == t (the cone t == 0 included) a line through
# three points is isotropic, so _collinearity reads only isotropic lines
# there: by direction when n >= 4 p^max(d-2, 1), from the pairs with
# |x - y|^2 == 0 below that.  Every other set reads every line: by direction
# along all directions when n >= 4 p^max(d-1, 1), from the full pair census
# below that.  Either way each census block is reduced to its best line.

@pytest.fixture
def census_calls(monkeypatch):
    """The names of the censuses _collinearity reads, in call order."""
    calls = []
    for name in ("_line_census", "_isotropic_census", "_direction_lines"):
        real = getattr(counting, name)
        monkeypatch.setattr(counting, name,
                            lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    return calls


def _rule_census(p, d, n):
    """The isotropic census _collinearity reads for n points of one norm in F_p^d."""
    return "_direction_lines" if 4 * p ** max(d - 2, 1) <= n else "_isotropic_census"


def _nonsquare(p):
    return next(a for a in range(2, p) if legendre(a, p) == -1)


@cache
def _sphere(p, d, t):
    return tuple(tuples(sphere_points(p, d, t)))


def _moved_off(Q):
    """Q with its first row moved off the sphere of the others."""
    p, rows = Q.p, Q.rows.copy()
    norm = int(rows[1] @ rows[1]) % p
    rows[0, 0] = next(x for x in range(p)
                      if (x * x + int(rows[0, 1:] @ rows[0, 1:])) % p != norm
                      and not (rows[1:] == [x, *rows[0, 1:]]).all(axis=1).any())
    return WeightedPointSet.of(rows, p)


def _full_census_isotropic_groups(P, p):
    """The full census's groups with an isotropic direction, in its order."""
    out = []
    for base, first, count, D in counting._line_census(P, p):
        iso = counting.dot_rows(D, D, p) == 0
        out += zip(base[iso].tolist(), first[iso].tolist(), count[iso].tolist(),
                   map(tuple, D[iso].tolist()))
    return out


def _isotropic_groups(P, p):
    return [(b, f, c, tuple(d)) for base, first, count, D in counting._isotropic_census(P, p)
            for b, f, c, d in zip(base.tolist(), first.tolist(), count.tolist(), D.tolist())]


def _check_both_routes(p, pts):
    """k, witness and k0 of pts, a set of one norm, from the isotropic
    lines equal the full census's and the oracles', and the isotropic pair
    census groups as the full census does; returns the isotropic route's
    ((k, witness), (k*, witness*))."""
    ws = WeightedPointSet.of(pts, p)
    dim = ws.dim
    got = counting._collinearity(ws)
    # excluding a line sends k through the full census; k* then skips it
    full = counting._collinearity(ws, exclude=[((0,) * dim, (1,) + (0,) * (dim - 1))])[0]
    expect = oracles.collinearity(list(map(tuple, ws.rows.tolist())), p)[0]
    assert [(k, _raw(w)) for k, w in got] == [expect, expect]
    assert (full[0], _raw(full[1])) == expect
    assert _isotropic_groups(ws.rows, p) == _full_census_isotropic_groups(ws.rows, p)
    assert isotropic_line_max(pts, p) == max(1, oracles.isotropic_lines(ws.rows.tolist(), p)[1])
    return got


@pytest.mark.parametrize("p", [3, 5, 13, 17])
@pytest.mark.parametrize("kind", ["cone", "unit", "nonsquare"])
def test_sphere_and_cone_routes(census_calls, p, kind):
    t = {"cone": 0, "unit": 1, "nonsquare": _nonsquare(p)}[kind]
    for d in (3, 4) if p <= 5 else (3,):
        census_calls.clear()
        (k, wit), _ = _check_both_routes(p, _sphere(p, d, t))
        assert census_calls[0] == _rule_census(p, d, len(_sphere(p, d, t)))
        if d == 3:
            # a line through three points lies on the sphere, and x.x == t
            # holds lines exactly when -t is a square or zero
            assert k == (p if legendre(-t, p) >= 0 else 2)


@st.composite
def sphere_subsets(draw):
    """(p, sorted points of one sphere): a free subset, or one capped so no
    three of its points are collinear."""
    p = draw(st.sampled_from((3, 5, 7, 13)))
    d = draw(st.sampled_from((3, 4) if p <= 5 else (3,)))
    sphere = _sphere(p, d, draw(st.sampled_from((0, 1, _nonsquare(p)))))
    pts = draw(st.lists(st.sampled_from(sphere), min_size=2, max_size=24, unique=True))
    if draw(st.booleans()):
        capped = []
        for q in pts:
            if not any(oracles.collinear(a, b, q, p) for a, b in combinations(capped, 2)):
                capped.append(q)
        pts = capped
    return p, sorted(pts)


@given(sphere_subsets())
@settings(max_examples=150, deadline=None)
def test_sphere_subsets_match_full_census(case):
    p, pts = case
    _check_both_routes(p, pts)


def test_isotropic_pairs_without_three_collinear_keep_first_pair(census_calls):
    p = 13
    # the unit sphere capped greedily in lex order: no three points collinear,
    # but isotropic pairs remain
    pts = []
    for q in _sphere(p, 3, 1):
        if not any(oracles.collinear(a, b, q, p) for a, b in combinations(pts, 2)):
            pts.append(q)
    assert oracles.isotropic_lines(pts, p)[0] > 0
    assert oracles.nsq(oracles.diff(pts[1], pts[0], p), p) != 0
    (k, wit), _ = _check_both_routes(p, pts)
    assert census_calls[0] == _rule_census(p, 3, len(pts))
    # the default line through rows 0 and 1 is canonical too
    assert k == 2
    assert _raw(wit) == oracles.canonical_line(pts[0], oracles.diff(pts[1], pts[0], p), p)


@pytest.mark.parametrize("p", [5, 13])
def test_row_off_the_sphere_takes_full_route(census_calls, p):
    Q = _moved_off(WeightedPointSet.of(_sphere(p, 3, 1), p))
    (k, wit), _ = counting._collinearity(Q)
    assert census_calls == ["_line_census"]
    assert (k, _raw(wit)) == oracles.collinearity(list(map(tuple, Q.rows.tolist())), p)[0]


@pytest.mark.parametrize("cells", [1, 7, 64, 500])
def test_isotropic_census_across_row_blocks(monkeypatch, cells):
    # _pair_values holds about _BLOCK_CELLS // n rows a block, one at least
    monkeypatch.setattr(counting, "_BLOCK_CELLS", cells)
    for p, t in ((5, 0), (13, 1), (13, 2)):
        pts = _sphere(p, 3, t)
        _check_both_routes(p, pts)
        _check_both_routes(p, pts[::3])


@pytest.mark.parametrize("t", [0, 1, 2])
@pytest.mark.parametrize("p, d, n", [(13, 3, 51), (13, 3, 52), (5, 4, 99), (5, 4, 100)])
def test_collinearity_on_both_sides_of_the_rule(census_calls, p, d, t, n):
    # seeded subsets of spheres and cones just below and at n == 4 p^max(d-2, 1),
    # each with the oracle's k and witness
    pts = sorted(random.Random(repr(("rule", p, d, t, n))).sample(_sphere(p, d, t), n))
    _check_both_routes(p, pts)
    assert census_calls[0] == _rule_census(p, d, n)


def test_pair_census_memory_is_bounded_by_block():
    # the isotropic pair census, traced alone on the p = 31 unit sphere that
    # _collinearity reads by direction
    Q, _ = sphere_config(31)
    n = len(Q)
    tracemalloc.start()
    try:
        groups = sum(len(base) for base, *_ in counting._isotropic_census(Q.rows, 31))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert groups == 0  # no line lies on the unit sphere at p = 31
    assert peak < 32 * counting._BLOCK_CELLS + 64 * n
    assert peak < n * (n - 1) // 2 * 24 // 8


def test_isotropic_census_memory_when_every_pair_is_isotropic(census_calls):
    # a totally isotropic plane of F_29^4 (12^2 == -1 mod 29): every pair of
    # its 841 points is isotropic, so every cell of the table is a pair to
    # group; n < 4 p^2, so k reads the pair census and k0 the lines census
    p, i = 29, 12
    pts = [(a, a * i % p, b, b * i % p) for a in range(p) for b in range(p)]
    Q = WeightedPointSet.of(pts, p)
    tracemalloc.start()
    try:
        (k, _), _ = counting._collinearity(Q)
        k0 = isotropic_line_max(Q.rows, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert census_calls == ["_isotropic_census", "_direction_lines"]
    assert k == k0 == p
    # the table block and its zero cells, with the pairs grouped in chunks
    # no larger than the line census's
    assert peak < 64 * counting._BLOCK_CELLS + 64 * len(pts)


def test_central_set_at_largest_modulus_reads_the_pair_census(census_calls):
    # two isotropic lines through the origin of the cone x.x == 0 in F_p^3,
    # p = 2^31 - 1: the p^2 directions cannot be listed, so k reads the pairs
    c = 2041534867  # c^2 == -5, so (1, 2, c) and (2, 1, c) are isotropic
    pts = sorted({tuple(s * x % BIG for x in w) for w, m in (((1, 2, c), 5), ((2, 1, c), 3))
                  for s in range(m)})
    (k, wit), _ = counting._collinearity(WeightedPointSet.of(pts, BIG))
    assert census_calls == ["_isotropic_census"]
    assert (k, _raw(wit)) == oracles.collinearity(pts, BIG)[0]
    assert k == 5


def test_small_subset_of_a_sphere_reads_the_pair_census(census_calls):
    # n == 10 points, below 4p == 52
    pts = _sphere(13, 3, 1)[::20][:10]
    (k, wit), _ = counting._collinearity(WeightedPointSet.of(pts, 13))
    assert census_calls == ["_isotropic_census"]
    assert (k, _raw(wit)) == oracles.collinearity(list(pts), 13)[0]


# ---------------------------------------------------------------------------
# the census of the isotropic lines against the loops' null pairs

def _census_lines(pts, p):
    """canonical line -> its points, for every line of the census through two
    points or more; checks each line's rows, parameters and direction."""
    P = np.array(pts, dtype=np.int64).reshape(len(pts), -1)
    out = {}
    directions = counting.isotropic_directions(p, P.shape[1])
    for I, s, bounds, W in counting._direction_lines(P, p, directions):
        for g, w in enumerate(map(tuple, W.tolist())):
            rows, params = I[bounds[g] : bounds[g + 1]], s[bounds[g] : bounds[g + 1]]
            assert oracles.nsq(w, p) == 0 and w == oracles.canonical_direction(w, p)
            assert (np.diff(rows) > 0).all()
            assert (params == P[rows, w.index(1)]).all()
            line = oracles.canonical_line(tuple(P[rows[0]].tolist()), w, p)
            assert line not in out
            if len(rows) > 1:
                out[line] = [tuple(P[i].tolist()) for i in rows]
    return out


def _oracle_lines(pts, p):
    """The same from the loops: the lines spanned by null pairs, each with
    the points on it."""
    lines = {oracles.canonical_line(a, oracles.diff(b, a, p), p) for a in pts for b in pts
             if a != b and oracles.nsq(oracles.diff(b, a, p), p) == 0}
    return {line: [q for q in pts if oracles.on_line_by_minors(q, *line, p)] for line in lines}


def _check_census(pts, p):
    pts = sorted(set(pts))
    assert _census_lines(pts, p) == _oracle_lines(pts, p)
    assert isotropic_line_max(pts, p) == max(min(len(pts), 1), oracles.isotropic_lines(pts, p)[1])


def _census_cases():
    """pytest params (p, points): full and seeded-half spheres and cones in
    d = 3 and 4, and the corner sets of the paraboloid in d = 3 and 4 (all of
    F_p^2 or F_p^3)."""
    for p, dims in ((3, (3, 4)), (5, (3, 4)), (7, (3,)), (13, (3,))):
        rng = random.Random(repr(("census-cases", p)))
        for d in dims:
            for t in (0, 1, _nonsquare(p)):
                pool = list(_sphere(p, d, t))
                yield pytest.param(p, pool, id=f"sphere-{p}-{d}-{t}")
                half = rng.sample(pool, len(pool) // 2)
                yield pytest.param(p, half, id=f"half-sphere-{p}-{d}-{t}")
            corner = [tuple(c) for c in np.ndindex(*(p,) * (d - 1))]
            yield pytest.param(p, corner, id=f"corner-{p}-{d}")
            yield pytest.param(p, rng.sample(corner, len(corner) // 2), id=f"half-corner-{p}-{d}")


@pytest.mark.parametrize("p, pts", list(_census_cases()))
def test_isotropic_lines_match_null_pair_loop(p, pts):
    _check_census(pts, p)


@st.composite
def corner_sets(draw):
    """(p, points of F_p^2 or F_p^3): free points plus a few planted lines
    along isotropic directions, as the paraboloid's corner coordinates."""
    p = draw(st.sampled_from((3, 5, 7, 13)))
    dim = draw(st.sampled_from((2, 3) if p <= 7 else (2,)))
    directions = counting.isotropic_directions(p, dim).tolist()
    vec = st.tuples(*(st.integers(0, p - 1) for _ in range(dim)))
    pts = set(draw(st.lists(vec, min_size=1, max_size=16)))
    if directions:
        for base, w, ts in draw(st.lists(st.tuples(
                vec, st.sampled_from(directions), st.sets(st.integers(0, p - 1), min_size=2)),
                max_size=3)):
            pts.update(tuple((b + s * c) % p for b, c in zip(base, w)) for s in ts)
    return p, sorted(pts)


@given(st.one_of(corner_sets(), sphere_subsets()))
@settings(max_examples=150, deadline=None)
def test_isotropic_lines_of_subsets(case):
    p, pts = case
    _check_census(pts, p)


@pytest.mark.parametrize("cells", [1, 7, 64, 500])
def test_isotropic_lines_across_direction_blocks(monkeypatch, cells):
    # _direction_lines takes about _BLOCK_CELLS // n directions a block, one at least
    monkeypatch.setattr(counting, "_BLOCK_CELLS", cells)
    for p, d, t in ((5, 3, 0), (5, 4, 1), (13, 3, 2)):
        pts = list(_sphere(p, d, t))
        _check_census(pts, p)
        _check_census(pts[::3], p)
    _check_census([tuple(c) for c in np.ndindex(5, 5, 5)], 5)


# ---------------------------------------------------------------------------
# the census by direction along every canonical direction
#
# Past n >= 4 p^max(d-1, 1) a set that is not of one norm, or one with lines
# excluded, reads its lines along all (p^d - 1) / (p - 1) canonical
# directions; each line comes once, from its two least rows.

def _all_directions(p, d):
    return counting._leading_one(d, lambda m: counting._all_rows(p, m))


def _random_points(p, d, n, key):
    """n distinct seeded points of F_p^d, sorted."""
    return sorted(random.Random(repr(key)).sample(list(product(range(p), repeat=d)), n))


def _direction_groups(P, p, W):
    """(least row, second row, count, direction) of every line of
    _direction_lines(P, p, W) through two rows or more."""
    out = []
    for I, _, bounds, W in counting._direction_lines(P, p, W):
        for g, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
            if hi - lo > 1:
                out.append((int(I[lo]), int(I[lo + 1]), hi - lo - 1, tuple(W[g].tolist())))
    return out


def _earliest_groups(P, p):
    """The pair census's groups seen from each line's earliest row."""
    return [(b, f, c, tuple(d)) for base, first, count, D in counting._line_census(P, p, True)
            for b, f, c, d in zip(base.tolist(), first.tolist(), count.tolist(), D.tolist())
            if f > b]


@pytest.mark.parametrize("p, d", [(3, 1), (3, 2), (5, 2), (3, 3), (5, 3), (3, 4)])
def test_all_directions_in_leading_one_order(p, d):
    want = sorted({oracles.canonical_direction(v, p) for v in product(range(p), repeat=d)
                   if any(v)}, key=lambda w: (w.index(1), w))
    assert list(map(tuple, _all_directions(p, d).tolist())) == want
    # the isotropic directions are the ones of norm 0, in the same order
    assert list(map(tuple, counting.isotropic_directions(p, d).tolist())) == [
        w for w in want if oracles.nsq(w, p) == 0]


@pytest.mark.parametrize("p, t", [(13, 1), (13, 0), (13, 2), (5, 1)])
def test_every_direction_on_a_sphere_matches_the_pair_census(p, t):
    # rows of one norm read along directions that are not all isotropic keep
    # every row, not only the zeros a.w == 0, so the lines of two points
    # along non-isotropic directions are all there
    P = WeightedPointSet.of(_sphere(p, 3, t), p).rows
    got = _direction_groups(P, p, _all_directions(p, 3))
    assert sorted(got) == sorted(_earliest_groups(P, p))
    assert max(c for *_, c, _ in got) + 1 == (p if legendre(-t, p) >= 0 else 2)


@pytest.mark.parametrize("p, d, n", [(5, 2, 20), (5, 2, 23), (13, 2, 52), (13, 2, 90),
                                     (101, 2, 404), (5, 3, 100), (5, 3, 110), (7, 3, 196)])
def test_direction_side_matches_the_loops(census_calls, p, d, n):
    pts = _random_points(p, d, n, ("direction-side", p, d, n))
    _check_all(p, pts, picks=[(0, 1), (2, 7), (5, 9)])
    # k, k* with the top line and two more excluded, max_collinear, the
    # lines of two points and more and of three and more, and k0
    assert census_calls == ["_direction_lines"] * 6


def test_census_along_every_direction_forms_no_table(census_calls, monkeypatch):
    # past the rule on a set not of one norm every cell of a block is kept,
    # so the census forms no table a.w
    calls = []
    dot_mod = counting.dot_mod
    monkeypatch.setattr(counting, "dot_mod", lambda *a: calls.append(a) or dot_mod(*a))
    monkeypatch.setattr(counting, "_BLOCK_CELLS", 1000)
    pts = _random_points(5, 3, 100, ("no-table", 5, 3, 100))
    assert max_collinear(pts, 5)[0] == oracles.max_collinear(pts, 5)
    assert census_calls == ["_direction_lines"] and calls == []


@pytest.mark.parametrize("p, d, n", [(5, 2, 20), (13, 2, 60), (5, 3, 100), (7, 3, 200)])
def test_k_star_with_every_rich_line_excluded(census_calls, p, d, n):
    pts = _random_points(p, d, n, ("every-rich-line", p, d, n))
    spanned = oracles.spanned_lines(pts, p)
    exclude = [line for line, c in spanned.items() if c >= 3]
    assert 2 in spanned.values()
    _check_collinearity(p, pts, exclude)
    assert census_calls == ["_direction_lines"]
    _, (k_star, wit) = counting._collinearity(WeightedPointSet.of(pts, p), exclude=[
        AffineLine(p, *line) for line in exclude])
    first = next(line for line, c in spanned.items() if c == 2)
    assert (k_star, _raw(wit)) == (2, first)


@pytest.mark.parametrize("p", [3, 5, 13, 101])
def test_rich_lines_of_three_on_both_sides_of_the_rule(census_calls, p):
    # n == 4p - 1 reads the pairs, n == 4p the lines by direction; F_3^2
    # holds only 9 < 12 points, so p == 3 reads the pairs throughout
    for n in (min(4 * p - 1, p * p), min(4 * p, p * p)):
        census_calls.clear()
        pts = _random_points(p, 2, n, ("rich", p, n))
        spanned = oracles.spanned_lines(pts, p)
        assert _rich(pts, 3, p) == sorted(
            ((l, c) for l, c in spanned.items() if c >= 3), key=lambda x: (-x[1], x[0]))
        by_direction = n >= 4 * p
        assert census_calls == ["_direction_lines" if by_direction else "_line_census"]


@pytest.mark.parametrize("p, n", [(3, 5), (5, 12), (13, 40), (401, 150)])
def test_rich_lines_break_ties_in_count_by_line(p, n):
    # free points plus planted lines of three and four points, so many lines
    # share a count and their order is the lines' own
    rng = random.Random(repr(("rich-ties", p)))
    pts = set(_random_points(p, 2, n, ("rich-ties", p)))
    for size in (3, 3, 3, 4, 4):
        base, d = (rng.randrange(p), rng.randrange(p)), (1, rng.randrange(p))
        pts.update(tuple((b + s * c) % p for b, c in zip(base, d)) for s in range(size))
    pts = sorted(pts)
    spanned = oracles.spanned_lines(pts, p)
    for least in (2, 3):
        want = sorted(((l, c) for l, c in spanned.items() if c >= least),
                      key=lambda x: (-x[1], x[0]))
        assert len({c for _, c in want}) < len(want) - 1
        assert _rich(pts, least, p) == want


@pytest.mark.parametrize("p, t", [(13, 0), (13, 1), (13, 2)])
def test_rich_lines_of_a_sphere_read_its_isotropic_lines(census_calls, p, t):
    pts = _sphere(p, 3, t)
    spanned = oracles.spanned_lines(list(pts), p)
    for least in (3, 2):
        got = _rich(pts, least, p)
        assert got == sorted(((l, c) for l, c in spanned.items() if c >= least),
                             key=lambda x: (-x[1], x[0]))
    # lines of two points need not be isotropic: they read the pairs
    assert census_calls == ["_direction_lines", "_line_census"]


def test_largest_modulus_reads_the_pair_census(census_calls):
    # four points on one line and five free ones of F_p^3, p = 2^31 - 1: the
    # p^2 + p + 1 directions cannot be listed
    rng = random.Random(repr("largest-modulus"))
    base, d = [rng.randrange(BIG) for _ in range(3)], (1, 2, 3)
    line = [tuple((b + s * c) % BIG for b, c in zip(base, d)) for s in range(4)]
    pts = sorted(line + [tuple(rng.randrange(BIG) for _ in range(3)) for _ in range(5)])
    _check_collinearity(BIG, pts, [(line[0], d)])
    spanned = oracles.spanned_lines(pts, BIG)
    assert _rich(pts, 3, BIG) == [
        (l, c) for l, c in spanned.items() if c >= 3]
    assert census_calls == ["_line_census", "_line_census"]


def _drawn(p, d, n, key):
    """n seeded draws of F_p^d, repeats kept."""
    rng = random.Random(repr(key))
    return [tuple(rng.randrange(p) for _ in range(d)) for _ in range(n)]


@pytest.mark.parametrize("p, d, n, census", [
    (1009, 2, 600, "_line_census"),
    # 4,089 distinct points pass 4 * 1009: the census along every direction
    (1009, 2, 4100, "_direction_lines"),
    (31, 3, 800, "_line_census"),
    (BIG, 3, 300, "_line_census"),
])
def test_rich_lines_of_two_hold_every_pair_once(census_calls, p, d, n, census):
    # two distinct points span exactly one line, so the lines of two points or
    # more share out the C(n, 2) pairs: a check at sizes no oracle reaches
    pts = _drawn(p, d, n, ("pair-identity", p, d, n))
    distinct = len(set(pts))
    lines, counts = rich_lines(pts, 2, p)
    assert census_calls == [census]
    assert int((counts * (counts - 1) // 2).sum()) == distinct * (distinct - 1) // 2
    assert lines.shape == (len(counts), 2 * d) and counts.min() >= 2


def test_rich_lines_are_rows_not_line_objects(monkeypatch):
    # 1,688 distinct points of F_401^2, past the rule, at threshold 3:
    # some 127,000 lines, held as rows and counts, with no AffineLine built;
    # the census blocks are freed before the rows are reordered, so the peak
    # stays below 128 bytes a line
    def no_line(*args):
        raise AssertionError("rich_lines built an AffineLine")

    monkeypatch.setattr(AffineLine, "__post_init__", no_line)
    pts = _drawn(401, 2, 1700, "rich-memory")
    tracemalloc.start()
    try:
        lines, counts = rich_lines(pts, 3, 401)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lines) == len(counts) > 100_000
    for a in (lines, counts):
        assert a.dtype == np.int64 and not a.flags.writeable
    assert peak < 128 * len(counts)


def test_direction_census_memory_is_bounded_by_block(monkeypatch, census_calls):
    # random points of F_401^2 past the rule: its lines of three points or
    # more far outnumber a block's cells, and each block is reduced alone
    monkeypatch.setattr(counting, "_BLOCK_CELLS", 1 << 12)
    p = 401
    pts = _random_points(p, 2, 4 * p + 100, ("memory", p))
    Q = WeightedPointSet.of(pts, p)
    sizes = np.concatenate([np.diff(bounds) for *_, bounds, _ in
                            counting._direction_lines(Q.rows, p, _all_directions(p, 2))])
    rich = int((sizes > 2).sum())
    census_calls.clear()
    k, peak = _census_peak(Q)
    assert census_calls == ["_direction_lines"]
    assert k == sizes.max()
    assert rich > 16 * counting._BLOCK_CELLS
    # about 150 bytes per cell of a block, and a few int64 arrays over the
    # points; a table of every line of three points holds 5 int64 cells a line
    assert peak < 256 * counting._BLOCK_CELLS + 64 * len(Q)
    assert peak < 5 * 8 * rich // 4


# ---------------------------------------------------------------------------
# witnesses in the incidence reports: canonical rows, fed back as they are

def test_report_witness_of_one_norm_set_at_k_two_is_canonical():
    # the unit sphere of F_7^3 holds no line (-1 is no square mod 7), so k is
    # 2 and the witness is the default line through rows 0 and 1, put in
    # canonical form like every other witness
    p = 7
    Q, Pi = sphere_config(p, 20, random.Random(1))
    pts = list(map(tuple, Q.rows.tolist()))
    assert oracles.canonical_line(pts[0], oracles.diff(pts[1], pts[0], p), p)[0] != pts[0]
    rep = counting.count_point_plane(Q, Pi)
    expect = oracles.collinearity(pts, p)[0]
    assert expect[0] == 2 and (rep.k, _raw(rep.k_witness)) == expect
    assert max_collinear(pts, p) == (rep.k, rep.k_witness)
    assert rep.k_star is None and rep.k_star_witness is None
    # a frozen report of int tuples compares by value
    assert counting.count_point_plane(Q, Pi) == rep


@pytest.mark.parametrize("seed", range(4))
def test_report_witnesses_with_exclusions_are_canonical_rows(seed):
    p = 7
    rng = random.Random(repr(("report-witness", seed)))
    pts = set(_random_points(p, 3, 12, ("report-witness", seed)))
    for _ in range(3):
        base = tuple(rng.randrange(p) for _ in range(3))
        d = tuple(rng.randrange(1, p) for _ in range(3))
        pts.update(tuple((b + t * c) % p for b, c in zip(base, d)) for t in rng.sample(range(p), 4))
    pts = sorted(pts)
    Q = WeightedPointSet.of(pts, p)
    Pi = counting.WeightedPlaneSet.of([((1, 2, 3), c) for c in range(p)], p)
    (_, top), _ = oracles.collinearity(pts, p)
    exclude = [top, (pts[0], oracles.diff(pts[1], pts[0], p))]
    rep = counting.count_restricted(Q, Pi, [AffineLine(p, b, d) for b, d in exclude])
    (k, wit), (k_star, wit_star) = oracles.collinearity(pts, p, exclude)
    assert (rep.k, _raw(rep.k_witness)) == (k, wit)
    assert (rep.k_star, _raw(rep.k_star_witness)) == (k_star, wit_star)
    # a witness fed back as a one-row array excludes the line it names
    again = counting.count_restricted(Q, Pi, np.array([rep.k_witness]))
    (_, _), (k_star, wit_star) = oracles.collinearity(pts, p, [top])
    assert (again.k_star, _raw(again.k_star_witness)) == (k_star, wit_star)
    assert again.k_star_witness != rep.k_witness
