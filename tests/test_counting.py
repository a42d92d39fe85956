import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_distinct_points, random_raw_lines, random_raw_planes, rng_for
from fpgeom import counting
from fpgeom.constructions import sphere_config
from fpgeom.counting import (
    WeightedLineSet,
    WeightedPlaneSet,
    WeightedPointSet,
    count_point_line_2d_naive,
    count_point_plane,
    count_point_plane_naive,
    count_restricted,
    distinct_rows,
    dot_mod,
    dot_rows,
    max_collinear,
    rich_lines,
    weighted_incidences,
)
from fpgeom.geom import AffineLine, DimensionMismatchError, GeometryError


def _points(Q):
    """A point set's rows as int tuples."""
    return [tuple(q) for q in Q.rows.tolist()]


def _raw_planes(Pi):
    """A plane set's rows as (normal, offset) pairs."""
    return [(tuple(r[:-1]), r[-1]) for r in Pi.rows.tolist()]


def _planar_count(points, triples, p):
    """The planar incidences the CLI counts: the engine on the distinct
    points and the distinct covector rows (a, b, c) of a*x + b*y == c."""
    return weighted_incidences(
        WeightedPointSet.of(points, p, dim=2),
        WeightedPlaneSet.of(np.array(triples, dtype=np.int64).reshape(-1, 3), p, dim=2))[0]


def make_sets(rng, p, nq, npl, max_w=1):
    pts = random_distinct_points(rng, p, 3, nq)
    raw_planes = random_raw_planes(rng, p, 3, npl)
    wq = [rng.randrange(1, max_w + 1) for _ in pts]
    wp = [rng.randrange(1, max_w + 1) for _ in raw_planes]
    Q = WeightedPointSet.of(pts, p, weights=wq, dim=3)
    Pi = WeightedPlaneSet.of(raw_planes, p, weights=wp, dim=3)
    return Q, Pi


class TestWeightedSets:
    def test_duplicates_merge_by_weight(self):
        Q = WeightedPointSet.of([(0, 0, 0), (0, 0, 0), (1, 2, 3)], 7, weights=[2, 3, 1])
        assert _points(Q) == [(0, 0, 0), (1, 2, 3)]
        assert Q.weights == (5, 1)
        assert Q.total_weight() == 6

    def test_coordinates_normalised(self):
        Q = WeightedPointSet.of([(-1, 7, 8)], 7)
        assert _points(Q) == [(6, 0, 1)]

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedPointSet.of([(0, 0, 0)], 7, weights=[0])

    def test_empty_needs_dim(self):
        with pytest.raises(ValueError):
            WeightedPointSet.of([], 7)
        assert len(WeightedPointSet.of([], 7, dim=3)) == 0

    def test_plane_multiset_merge(self):
        # (1,1,1)=0 and (2,2,2)=0 are the same canonical plane
        Pi = WeightedPlaneSet.of([((1, 1, 1), 0), ((2, 2, 2), 0)], 7)
        assert len(Pi) == 1 and Pi.weights == (2,)


BIG = 2147483647  # 2^31 - 1


@st.composite
def raw_sets(draw):
    """(p, dim, points, planes, point weights, plane weights): unreduced
    coordinates from a small pool, so duplicates and scaled copies of one
    plane occur at every p; weights are None or include ones >= 2^62."""
    p = draw(st.sampled_from((3, 5, 7, BIG)))
    dim = draw(st.sampled_from((2, 3, 4)))
    coord = st.sampled_from((0, 1, 2, -1, p + 1, p - 1, 2 * p + 3, -p))
    vec = st.tuples(*(coord for _ in range(dim)))
    points = draw(st.lists(vec, max_size=12))
    planes = []
    for normal, offset, scale in draw(st.lists(
            st.tuples(vec, coord, st.sampled_from((1, 2, p - 1))), max_size=12)):
        if any(c % p for c in normal):
            planes.append((normal, offset))
            planes.append((tuple(c * scale for c in normal), offset * scale))
    weight = st.one_of(st.integers(1, 4), st.integers(2**62, 2**64))
    weights = [draw(st.none() | st.lists(weight, min_size=n, max_size=n))
               for n in (len(points), len(planes))]
    return p, dim, points, planes, *weights


class TestCanonicaliser:
    """`.of` against the dict merge and tuple sort in `oracles`."""

    @given(raw_sets())
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_merge(self, case):
        p, dim, points, planes, wq, wp = case
        Q = WeightedPointSet.of(points, p, weights=wq, dim=dim)
        keys, merged = oracles.canonical_points(points, wq or [1] * len(points), p)
        assert _points(Q) == keys and Q.weights == tuple(merged)
        assert Q.rows.tolist() == [list(k) for k in keys]
        Pi = WeightedPlaneSet.of(planes, p, weights=wp, dim=dim)
        keys, merged = oracles.canonical_planes(planes, wp or [1] * len(planes), p)
        assert _raw_planes(Pi) == keys
        assert Pi.weights == tuple(merged)
        N, off = Pi.arrays()
        assert [(tuple(n), c) for n, c in zip(N.tolist(), off.tolist())] == keys
        # planes given as int rows, normal then offset, make the same set
        # (every raw coordinate is below (2p + 3)(p - 1) < 2^63 in size)
        rows = np.array([(*n, c) for n, c in planes], dtype=np.int64).reshape(-1, dim + 1)
        assert WeightedPlaneSet.of(rows, p, weights=wp, dim=dim) == Pi

    def test_scaled_duplicate_planes_merge(self):
        # 2x + 2y = 2 and x + y = 1 are one line
        Pi = WeightedPlaneSet.of([((2, 2), 2), ((1, 1), 1)], 7, weights=[3, 4])
        assert _raw_planes(Pi) == [((1, 1), 1)]
        assert Pi.weights == (7,)

    def test_big_weights_sum_exactly(self):
        Q = WeightedPointSet.of([(1, 2), (0, 0), (6, 2)], 5, weights=[2**62, 3, 2**62 + 1])
        assert _points(Q) == [(0, 0), (1, 2)]
        assert Q.weights == (3, 2**63 + 1)
        assert all(type(w) is int for w in Q.weights)

    @pytest.mark.parametrize("build, error, match", [
        (lambda: WeightedPlaneSet.of([((0, 0, 0), 1)], 7), GeometryError, "nonzero"),
        (lambda: WeightedPlaneSet.of([((0, 7, 14), 1)], 7), GeometryError, "nonzero"),
        (lambda: WeightedPointSet.of([(1, 2, 3), (1, 2)], 7),
         DimensionMismatchError, "dimensional"),
        (lambda: WeightedPointSet.of([(1, 2, 3)], 7, dim=2),
         DimensionMismatchError, "dimensional"),
        (lambda: WeightedPlaneSet.of([((1, 0, 0), 1), ((1, 0), 1)], 7),
         DimensionMismatchError, "dimensional"),
        (lambda: WeightedPointSet.of([(1, 2)], 7, weights=[-2]), ValueError, "positive"),
        (lambda: WeightedPlaneSet.of([((1, 2), 0)], 7, weights=[0]), ValueError, "positive"),
        (lambda: WeightedPointSet.of([(1, 2)], 7, weights=[1, 1]), ValueError, "length"),
        (lambda: WeightedPlaneSet.of([((1, 2), 0)], 7, weights=[]), ValueError, "length"),
        (lambda: WeightedLineSet.of([AffineLine(5, (1, 2), (0, 1))], 7), ValueError, "modulus"),
    ], ids=["zero-normal", "zero-normal-mod-p", "ragged-points", "point-dim", "ragged-planes",
            "negative-weight", "zero-weight", "long-weights", "short-weights", "other-modulus"])
    def test_errors(self, build, error, match):
        with pytest.raises(error, match=match) as caught:
            build()
        assert type(caught.value) is error

    def test_stored_arrays_are_read_only(self):
        Q, Pi = sphere_config(5)
        for arr in (Q.rows, *Pi.arrays()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] += 1

    @pytest.mark.parametrize("which", [0, 1], ids=["points", "planes"])
    def test_sorted_input_and_a_shuffled_copy_agree(self, which):
        p = 5
        cls = (WeightedPointSet, WeightedPlaneSet)[which]
        rows = sphere_config(p)[which].rows  # sorted, distinct and canonical
        weights = list(range(2, len(rows) + 2))
        # a shuffled copy in which every third row comes twice, its weight
        # split between the copies; a plane's second copy is scaled by 2
        rng = rng_for("sorted-input", which)
        order = list(range(len(rows)))
        rng.shuffle(order)
        raw, raw_weights = [], []
        for i in order:
            if i % 3:
                raw += [rows[i]]
                raw_weights += [weights[i]]
            else:
                raw += [rows[i], rows[i] * (1 + which) % p]
                raw_weights += [1, weights[i] - 1]
        kept = cls.of(rows, p, weights=weights)  # sorted: no gather
        merged = cls.of(np.array(raw), p, weights=raw_weights)  # gathered and merged
        assert kept == merged
        assert np.array_equal(kept.rows, rows) and kept.weights == tuple(weights)
        assert cls.of(rows, p).weights == (1,) * len(rows)
        for s in (kept, merged):
            assert not s.rows.flags.writeable
            with pytest.raises(ValueError):
                s.rows[0, 0] = 1


def _residues(p):
    """Residues mod p, the extremes near 0 and p - 1 drawn often."""
    return st.one_of(st.sampled_from((0, 1, 2, p - 1, p - 2)), st.integers(0, p - 1))


@st.composite
def dot_cases(draw):
    """(p, A, B, out): rows of one width, either side possibly empty, and a
    prefilled table with entries below 2p or None."""
    p = draw(st.sampled_from((3, 5, 13, BIG)))
    width = draw(st.integers(1, 4))
    rows = st.lists(st.tuples(*(_residues(p) for _ in range(width))), max_size=6)
    A, B = draw(rows), draw(rows)
    out = draw(st.none() | st.lists(st.lists(st.integers(0, 2 * p - 1), min_size=len(B),
                                             max_size=len(B)), min_size=len(A), max_size=len(A)))
    return p, A, B, out


def _int_array(rows, width):
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


def _python_dots(p, A, B, out):
    return [[((out[i][j] if out else 0) + sum(a * b for a, b in zip(x, y))) % p
             for j, y in enumerate(B)] for i, x in enumerate(A)]


class TestRowLayer:
    """`dot_mod`, `dot_rows` and `distinct_rows` against python ints and
    the oracles."""

    @given(dot_cases())
    @settings(max_examples=200, deadline=None)
    def test_dot_mod_matches_python_ints(self, case):
        p, A, B, out = case
        width = len((A or B or [(0,)])[0])
        table = None if out is None else _int_array(out, len(B))
        got = dot_mod(_int_array(A, width), _int_array(B, width), p, table)
        assert got.shape == (len(A), len(B))
        assert got.tolist() == _python_dots(p, A, B, out)
        if table is not None:
            assert got is table

    @pytest.mark.parametrize("cells", [1, 2, 5, 13])
    def test_pair_values_across_blocks(self, monkeypatch, cells):
        monkeypatch.setattr(counting, "_BLOCK_CELLS", cells)
        rng = rng_for("pair-values-blocks", cells)
        for p in (3, 5, 13, BIG):
            for n, m, width in ((7, 3, 3), (3, 7, 2), (11, 5, 4), (1, 9, 1)):
                A = [tuple(rng.randrange(p) for _ in range(width)) for _ in range(n)]
                B = [tuple(rng.randrange(p) for _ in range(width)) for _ in range(m)]
                a = [rng.randrange(p) for _ in range(n)]
                b = [rng.randrange(p) for _ in range(m)]
                offsets = [[x + y for y in b] for x in a]
                for args, out in (((), None), ((np.array(a), np.array(b)), offsets)):
                    rows, starts = [], []
                    for start, V in counting._pair_values(
                            _int_array(A, width), _int_array(B, width), p, *args):
                        starts.append(start)
                        rows += V.tolist()
                    assert starts == list(range(0, n, max(1, cells // m)))
                    assert rows == _python_dots(p, A, B, out)

    def test_dot_mod_rejects_a_width_mismatch(self):
        A, B = np.ones((2, 3), dtype=np.int64), np.ones((4, 2), dtype=np.int64)
        with pytest.raises(DimensionMismatchError):
            dot_mod(A, B, 5)
        with pytest.raises(DimensionMismatchError):
            dot_mod(B, A, 5)

    @given(st.tuples(st.sampled_from((3, 5, 13, BIG)), st.integers(1, 4),
                     st.integers(0, 8)).flatmap(lambda c: st.tuples(
        *map(st.just, c[:2]),
        *(st.lists(st.tuples(*(_residues(c[0]),) * c[1]), min_size=c[2], max_size=c[2]),) * 2)))
    @settings(max_examples=100, deadline=None)
    def test_dot_rows_matches_python_ints(self, case):
        p, width, U, V = case
        got = dot_rows(_int_array(U, width), _int_array(V, width), p)
        assert got.tolist() == [sum(a * b for a, b in zip(u, v)) % p for u, v in zip(U, V)]
        assert dot_rows(_int_array(V, width), _int_array(V, width), p).tolist() == [
            oracles.nsq(v, p) for v in V]

    @pytest.mark.parametrize("p", [3, 101, 65537, BIG])
    def test_scale_canonical_matches_the_scalar_form(self, p):
        rng = rng_for("scale-canonical", p)
        rows = [[rng.randrange(p) for _ in range(4)] for _ in range(60)]
        # zero rows stay zero; rows with zero leading columns scale from later ones
        rows += [[0, 0, 0, 0], [0, 0, 0, p - 1], [0, 1, 0, 0], [0, 0, 2, 1], [p - 1] * 4]
        rows += [[0] + r[1:] for r in rows[:10]] + [[0, 0] + r[2:] for r in rows[10:20]]
        want = [list(oracles.canonical_direction(r, p)) if any(r) else r for r in rows]
        got = counting._scale_canonical(np.array(rows, dtype=np.int64), p)
        assert got.tolist() == want
        # a column slice is scaled in place, the other columns left alone
        wide = np.array([[7, *r] for r in rows], dtype=np.int64)
        counting._scale_canonical(wide[:, 1:], p)
        assert wide.tolist() == [[7, *r] for r in want]

    @given(raw_sets())
    @settings(max_examples=100, deadline=None)
    def test_distinct_rows_matches_oracle(self, case):
        p, dim, points, *_ = case
        keys, _ = oracles.canonical_points(points, [1] * len(points), p)
        expected = [list(k) for k in keys]
        assert distinct_rows(points, p, dim).tolist() == expected
        if points:
            assert distinct_rows(points, p).tolist() == expected
            assert distinct_rows(np.array(points, dtype=np.int64), p).tolist() == expected

    def test_distinct_rows_of_no_points(self):
        assert distinct_rows([], 7).shape == (0, 0)
        assert distinct_rows([], 7, 3).shape == (0, 3)
        assert distinct_rows(iter(()), 7, 2).dtype == np.int64
        assert distinct_rows(np.zeros((0, 4), dtype=np.int64), 7).shape == (0, 4)

    def test_distinct_rows_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            distinct_rows([(1, 2), (1, 2, 3)], 7)
        with pytest.raises(DimensionMismatchError):
            distinct_rows([(1, 2, 3)], 7, 2)


def _python_runs(rows):
    """(order, bounds) of _runs by python's stable sort of row tuples."""
    keys = [tuple(r) for r in rows.tolist()]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    bounds = [g for g in range(len(order)) if not g or keys[order[g]] != keys[order[g - 1]]]
    return order, bounds + [len(order)]


def _runs_of(rows):
    """_runs of the rows of an int array."""
    return counting._runs(rows.T, len(rows))


def _keys(rows):
    """How many int64 keys _packed makes of the rows."""
    return len(counting._packed(rows.T, len(rows)))


@st.composite
def run_rows(draw):
    """Non-negative int64 rows with many ties, entries small or up to 2^50."""
    width = draw(st.integers(1, 4))
    top = draw(st.sampled_from((0, 2, 100, (1 << 31) - 2, 1 << 50)))
    entry = st.one_of(st.integers(0, min(top, 2)), st.just(top), st.integers(0, top))
    rows = draw(st.lists(st.tuples(*(entry,) * width), max_size=30))
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


class TestRuns:
    """`_runs` (rows packed by `_packed` into int64 keys, one sort a key)
    against python's stable sort."""

    @given(run_rows())
    @settings(max_examples=300, deadline=None)
    def test_matches_a_stable_sort(self, rows):
        order, bounds = _runs_of(rows)
        assert (order.tolist(), bounds.tolist()) == _python_runs(rows)

    def test_four_columns_below_2_31_take_several_keys(self):
        rng = rng_for("runs-four-columns")
        top = (1 << 31) - 2
        # ties in every column, the largest entry present, rows shuffled
        rows = [[rng.choice((0, 1, top, top - 1, rng.randrange(top))) for _ in range(4)]
                for _ in range(200)]
        rows = np.array(rows + rows[:50], dtype=np.int64)
        assert _keys(rows) == 4  # two radices 2^31 - 1 pass 2^63 // 250
        order, bounds = _runs_of(rows)
        assert (order.tolist(), bounds.tolist()) == _python_runs(rows)

    @pytest.mark.parametrize("maxima, keys", [
        ((2**20 - 1, 2**40 - 1), 1),               # radices 2^20 2^40 == 2^63 // 8
        ((2**20, 2**40 - 2**20), 2),               # (2^20 + 1)(2^40 - 2^20 + 1) == 2^60 + 1
        ((2**20 - 1, 2**40 - 1, 0, 2**59), 2),     # a radix 1 rides along; 2^59 + 1 does not
    ])
    def test_span_times_radix_at_and_past_the_limit(self, maxima, keys):
        rng = rng_for("runs-limit", maxima)
        rows = [[rng.choice((0, min(1, m), m)) for m in maxima] for _ in range(7)] + [list(maxima)]
        rows = np.array(rows, dtype=np.int64)
        assert _keys(rows) == keys
        order, bounds = _runs_of(rows)
        assert (order.tolist(), bounds.tolist()) == _python_runs(rows)

    def test_an_entry_past_the_limit_raises(self):
        rows = np.zeros((8, 2), dtype=np.int64)
        rows[3, 1] = (1 << 60) - 1  # radix 2^60 == 2^63 // 8
        assert _keys(rows) == 1
        rows[3, 1] = 1 << 60
        with pytest.raises(OverflowError):
            _runs_of(rows)

    @pytest.mark.parametrize("extra", [0, 2])
    def test_ties_keep_input_order(self, extra):
        rows = np.array([[2, 1], [0, 5], [2, 1], [0, 5], [2, 0], [2, 1]])
        # constant columns of 2^40 keep the order and the runs but split the
        # rows into several keys
        rows = np.column_stack([rows, np.full((len(rows), extra), 1 << 40)])
        assert _keys(rows) == 1 + (extra > 0)
        order, bounds = _runs_of(rows)
        assert order.tolist() == [1, 3, 4, 0, 2, 5]
        assert bounds.tolist() == [0, 2, 3, 6]

    @pytest.mark.parametrize("width", [0, 1, 3])
    def test_no_rows(self, width):
        order, bounds = _runs_of(np.zeros((0, width), dtype=np.int64))
        assert order.tolist() == [] and bounds.tolist() == [0]

    @pytest.mark.parametrize("row", [[0], [5, 0, 7], [2**63 - 1, 2**63 - 1]])
    def test_one_row(self, row):
        # one row: 2^63 // 1 admits every int64 entry, one column a key
        rows = np.array([row], dtype=np.int64)
        order, bounds = _runs_of(rows)
        assert order.tolist() == [0] and bounds.tolist() == [0, 1]

    def test_rows_without_columns_are_one_run(self):
        order, bounds = _runs_of(np.zeros((3, 0), dtype=np.int64))
        assert order.tolist() == [0, 1, 2] and bounds.tolist() == [0, 3]

    def test_one_column(self):
        order, bounds = _runs_of(np.array([[3], [1], [3], [0], [1]]))
        assert order.tolist() == [3, 1, 4, 0, 2]
        assert bounds.tolist() == [0, 1, 3, 5]


class TestCountPointPlane:
    def test_empty_points(self):
        Q = WeightedPointSet.of([], 7, dim=3)
        Pi = WeightedPlaneSet.of([((0, 0, 1), 0)], 7)
        rep = count_point_plane(Q, Pi)
        assert rep.pairs == 0 and rep.weighted == 0

    def test_single_weighted_incidence(self):
        Q = WeightedPointSet.of([(0, 0, 0)], 7, weights=[3])
        Pi = WeightedPlaneSet.of([((0, 0, 1), 0)], 7, weights=[5])
        rep = count_point_plane(Q, Pi)
        assert rep.pairs == 1 and rep.weighted == 15

    def test_empty_planes(self):
        Q = WeightedPointSet.of([(0, 0, 0)], 7)
        Pi = WeightedPlaneSet.of([], 7, dim=3)
        rep = count_point_plane(Q, Pi)
        assert rep.pairs == 0 and rep.weighted == 0

    def test_sphere_against_all_planes_matches_oracle(self):
        from fpgeom.constructions import sphere_config

        Q, Pi = sphere_config(3)
        assert len(Q) == 6 and len(Pi) == 39
        rep = count_point_plane(Q, Pi)
        raw_planes = _raw_planes(Pi)
        pairs, weighted = oracles.count_point_plane(
            _points(Q), Q.weights, raw_planes, Pi.weights, 3
        )
        assert (rep.pairs, rep.weighted) == (pairs, weighted)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_matches_oracle(self, seed):
        rng = rng_for("cpp", seed)
        p = rng.choice([5, 7, 11, 31])
        Q, Pi = make_sets(rng, p, rng.randrange(1, 60), rng.randrange(1, 60), max_w=4)
        rep = count_point_plane(Q, Pi)
        raw = _raw_planes(Pi)
        pairs, weighted = oracles.count_point_plane(_points(Q), Q.weights, raw, Pi.weights, p)
        assert (rep.pairs, rep.weighted) == (pairs, weighted)
        npairs, nweighted = count_point_plane_naive(Q, Pi)
        assert (npairs, nweighted) == (pairs, weighted)

    def test_unit_weights_equal_pairs(self):
        rng = rng_for("unitw")
        Q, Pi = make_sets(rng, 11, 30, 30)
        rep = count_point_plane(Q, Pi)
        assert rep.weighted == rep.pairs

    def test_order_independence(self):
        rng = rng_for("order")
        pts = random_distinct_points(rng, 11, 3, 25)
        planes = random_raw_planes(rng, 11, 3, 25)
        a = count_point_plane(
            WeightedPointSet.of(pts, 11), WeightedPlaneSet.of(planes, 11)
        )
        rng.shuffle(pts)
        rng.shuffle(planes)
        b = count_point_plane(
            WeightedPointSet.of(pts, 11), WeightedPlaneSet.of(planes, 11)
        )
        assert a == b

    def test_flags_and_witness(self):
        rng = rng_for("flags")
        Q, Pi = make_sets(rng, 5, 30, 10)
        rep = count_point_plane(Q, Pi)
        assert rep.flags["points_lt_p_squared"] == (len(Q) < 25)
        assert rep.flags["points_le_planes"] == (len(Q) <= len(Pi))
        assert rep.k_witness is not None
        base, d = rep.k_witness[:3], rep.k_witness[3:]
        on_witness = sum(1 for q in _points(Q) if oracles.on_line(q, base, d, 5))
        assert on_witness == rep.k

    def test_dimension_guard(self):
        Q = WeightedPointSet.of([(0, 0)], 7, dim=2)
        Pi = WeightedPlaneSet.of([((0, 0, 1), 0)], 7)
        with pytest.raises(DimensionMismatchError):
            count_point_plane(Q, Pi)


class TestCountRestricted:
    def test_empty_forbidden_equals_plain(self):
        rng = rng_for("restr-empty")
        Q, Pi = make_sets(rng, 7, 25, 25)
        assert count_restricted(Q, Pi, []).pairs == count_point_plane(Q, Pi).pairs

    def test_all_routed_through_single_line(self):
        p = 7
        line = AffineLine(p, (0, 0, 0), (1, 0, 0))
        pts = [(t, 0, 0) for t in range(p)]
        pencil = [(n, c) for n, c in _raw_planes(sphere_config(p)[1])
                  if oracles.line_in_plane(line.base, line.direction, n, c, p)]
        assert len(pencil) == p + 1
        Q = WeightedPointSet.of(pts, p)
        Pi = WeightedPlaneSet.of(pencil, p)
        rep = count_restricted(Q, Pi, [line])
        assert count_point_plane(Q, Pi).pairs == len(pts) * len(pencil)
        assert rep.pairs == 0
        assert rep.k_star == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_random_matches_triple_loop_oracle(self, seed):
        rng = rng_for("restr", seed)
        p = 11
        Q, Pi = make_sets(rng, p, 20, 20, max_w=3)
        lines = [AffineLine(p, b, d) for b, d in random_raw_lines(rng, p, 3, 4)]
        # bias one line through an actual point so exclusions really happen
        if len(Q):
            lines.append(AffineLine(p, _points(Q)[0], (1, 0, 0)))
        rep = count_restricted(Q, Pi, lines)
        raw_planes = _raw_planes(Pi)
        raw_lines = [(l.base, l.direction) for l in lines]
        pairs, weighted = oracles.count_restricted(
            _points(Q), Q.weights, raw_planes, Pi.weights, raw_lines, p
        )
        assert (rep.pairs, rep.weighted) == (pairs, weighted)
        assert rep.pairs <= count_point_plane(Q, Pi).pairs

    def test_k_star_witness_not_forbidden(self):
        p = 11
        rng = rng_for("kstar")
        pts = random_distinct_points(rng, p, 3, 20)
        Q = WeightedPointSet.of(pts, p)
        Pi = WeightedPlaneSet.of(random_raw_planes(rng, p, 3, 5), p)
        k, witness = max_collinear(pts, p)
        # a witness row fed back as a one-row array is the line it names
        rep = count_restricted(Q, Pi, np.array([witness]))
        assert rep.k == k
        assert rep.k_star_witness != witness
        if rep.k_star_witness is not None:
            base, d = rep.k_star_witness[:3], rep.k_star_witness[3:]
            on_witness = sum(1 for q in pts if oracles.on_line(q, base, d, p))
            assert on_witness == rep.k_star

    @pytest.mark.parametrize("seed", range(4))
    def test_k_and_k_star_match_oracle(self, seed):
        rng = rng_for("kstar-oracle", seed)
        p = 7
        rich = [AffineLine(p, b, d) for b, d in random_raw_lines(rng, p, 3, 5)]
        forbidden = rich[: rng.randrange(1, 3)]
        pts = set(random_distinct_points(rng, p, 3, 12))
        # forbidden lines are full, so k* comes from a poorer line found later
        for line in rich:
            on_line = oracles.line_points(line.base, line.direction, p)
            pts.update(on_line if line in forbidden else rng.sample(on_line, 4))
        pts = sorted(pts)
        Q = WeightedPointSet.of(pts, p)
        Pi = WeightedPlaneSet.of(random_raw_planes(rng, p, 3, 3), p)
        rep = count_restricted(Q, Pi, forbidden)
        banned = [set(oracles.line_points(l.base, l.direction, p)) for l in forbidden]
        k_star = 1
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                if set(oracles.line_points(a, oracles.diff(b, a, p), p)) in banned:
                    continue
                k_star = max(k_star, sum(1 for q in pts if oracles.collinear(a, b, q, p)))
        assert rep.k == oracles.max_collinear(pts, p)
        assert rep.k_star == k_star
        base, d = rep.k_star_witness[:3], rep.k_star_witness[3:]
        assert AffineLine(p, base, d) not in forbidden
        assert sum(1 for q in pts if oracles.on_line(q, base, d, p)) == k_star

    @pytest.mark.parametrize("line", [
        AffineLine(5, (0, 0, 0), (1, 0, 0)),  # another modulus
        AffineLine(7, (0, 0), (1, 0)),        # another dimension
    ], ids=["modulus", "dimension"])
    def test_forbidden_line_must_match_the_sets(self, line):
        Q = WeightedPointSet.of([(0, 0, 0), (1, 0, 0)], 7)
        Pi = WeightedPlaneSet.of([((0, 0, 1), 0)], 7)
        with pytest.raises(DimensionMismatchError, match="forbidden line does not match the sets"):
            count_restricted(Q, Pi, [line])

    def test_zero_direction_is_no_forbidden_line(self):
        Q = WeightedPointSet.of([(0, 0, 0), (1, 0, 0)], 7)
        Pi = WeightedPlaneSet.of([((0, 0, 1), 0)], 7)
        with pytest.raises(GeometryError, match="^line direction must be nonzero$"):
            count_restricted(Q, Pi, [((0, 0, 0), (7, 0, 14))])

    def test_pair_routed_through_two_lines_is_subtracted_once(self):
        p = 7
        x_axis = AffineLine(p, (0, 0, 0), (1, 0, 0))
        y_axis = AffineLine(p, (0, 0, 0), (0, 1, 0))
        Q = WeightedPointSet.of([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)], p,
                                weights=[2, 3, 5, 7])
        # z=0 holds both axes, so (origin, z=0) is routed through both
        Pi = WeightedPlaneSet.of([((0, 0, 1), 0), ((1, 0, 0), 0), ((0, 1, 0), 0),
                                  ((1, 1, 1), 0)], p, weights=[11, 13, 17, 19])
        rep = count_restricted(Q, Pi, [x_axis, y_axis])
        raw_planes = _raw_planes(Pi)
        raw_lines = [(l.base, l.direction) for l in (x_axis, y_axis)]
        assert (rep.pairs, rep.weighted) == oracles.count_restricted(
            _points(Q), Q.weights, raw_planes, Pi.weights, raw_lines, p)
        # only (origin, x+y+z=0) survives
        assert (rep.pairs, rep.weighted) == (1, 2 * 19)


    @pytest.mark.parametrize("seed", range(3))
    def test_naive_takes_each_forbidden_line_form(self, seed):
        # AffineLines, raw (base, direction) pairs and rows of 2d ints, the
        # last two unreduced and unscaled, give the same restricted counts
        rng = rng_for("naive-forms", seed)
        p = 7
        Q, Pi = make_sets(rng, p, 40, 40, max_w=3)
        pts = _points(Q)
        # two planes hold the line through pts[2] along the x axis
        Pi = WeightedPlaneSet.of(_raw_planes(Pi) + [((0, 1, 0), pts[2][1]), ((0, 0, 1), pts[2][2])],
                                 p, weights=Pi.weights + (2, 5))
        pairs = [(b, d) for b, d in random_raw_lines(rng, p, 3, 3)]
        pairs += [(pts[0], oracles.diff(pts[1], pts[0], p)), (pts[2], (1, 0, 0))]
        lines = [AffineLine(p, b, d) for b, d in pairs]
        raw = [(tuple(c + p for c in b), tuple(3 * c for c in d)) for b, d in pairs]
        rows = [(*b, *d) for b, d in raw]
        want = oracles.count_restricted(pts, Q.weights, _raw_planes(Pi), Pi.weights, pairs, p)
        assert want != oracles.count_point_plane(pts, Q.weights, _raw_planes(Pi), Pi.weights, p)
        for forbidden in (lines, raw, rows, np.array(rows)):
            assert count_point_plane_naive(Q, Pi, forbidden) == want
            rep = count_restricted(Q, Pi, forbidden)
            assert (rep.pairs, rep.weighted) == want
        with pytest.raises(DimensionMismatchError):
            count_point_plane_naive(Q, Pi, [(0, 0, 1, 1)])


class TestBigWeights:
    """Weighted totals past 2^62 take the exact python-int route."""

    def _sets(self, p=11):
        rng = rng_for("bigweights")
        pts = random_distinct_points(rng, p, 3, 30)
        raw_planes = random_raw_planes(rng, p, 3, 40)
        Q = WeightedPointSet.of(pts, p, weights=[rng.randrange(2**40, 2**41) for _ in pts])
        Pi = WeightedPlaneSet.of(
            raw_planes, p, weights=[rng.randrange(2**40, 2**41) for _ in raw_planes])
        assert Q.total_weight() * Pi.total_weight() >= 2**62
        return rng, Q, Pi

    def test_point_plane(self):
        _, Q, Pi = self._sets()
        rep = count_point_plane(Q, Pi)
        raw = _raw_planes(Pi)
        assert (rep.pairs, rep.weighted) == oracles.count_point_plane(
            _points(Q), Q.weights, raw, Pi.weights, Q.p)
        assert rep.weighted > 2**63  # an int64 sum would have wrapped

    def test_restricted(self):
        rng, Q, Pi = self._sets()
        p = Q.p
        lines = [AffineLine(p, b, d) for b, d in random_raw_lines(rng, p, 3, 3)]
        # lines inside planes through their points, so the restriction bites
        for (a, b, c), off in _raw_planes(Pi):
            d = (b, -a, 0) if (a, b) != (0, 0) else (1, 0, 0)
            lines += [AffineLine(p, q, d) for q in _points(Q)
                      if oracles.on_plane(q, (a, b, c), off, p)][:1]
        rep = count_restricted(Q, Pi, lines)
        raw_planes = _raw_planes(Pi)
        raw_lines = [(l.base, l.direction) for l in lines]
        assert (rep.pairs, rep.weighted) == oracles.count_restricted(
            _points(Q), Q.weights, raw_planes, Pi.weights, raw_lines, p)
        assert rep.pairs < count_point_plane(Q, Pi).pairs


def _route_cells(p):
    """_BLOCK_CELLS values that send the engine at modulus p through the
    pencil table with many normals a block, through the table with one normal
    a block, and through the key search (one normal's table over a block)."""
    return (1 << 16, 4 * p, p - 1) if p <= 1 << 16 else (1 << 16,)


def _cross(u, v, p):
    return tuple((u[i] * v[j] - u[j] * v[i]) % p for i, j in ((1, 2), (2, 0), (0, 1)))


@st.composite
def engine_cases(draw, dim):
    """(p, points, point weights, planes, plane weights, forbidden lines):
    planes that are random, through a point, or (in 3-D) through a forbidden
    line, so incidences and routed pairs occur at every modulus."""
    p = draw(st.sampled_from((3, 5, 13, BIG)))
    vec = st.tuples(*(_residues(p),) * dim)
    pts = draw(st.lists(vec, min_size=1, max_size=16, unique=True))
    pick = st.sampled_from(pts)
    lines = []
    if dim == 3:
        for _ in range(draw(st.integers(0, 3))):
            base, d = draw(pick), draw(vec.filter(any))
            lines.append((base, d))
    planes = []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(("random", "point", "line") if lines else ("random", "point")))
        if kind == "line":
            base, d = draw(st.sampled_from(lines))
            normal = _cross(d, draw(vec), p)
            if not any(normal):
                continue
        else:
            normal = draw(vec.filter(any))
            base = draw(pick)
        offset = (draw(_residues(p)) if kind == "random"
                  else sum(a * b for a, b in zip(normal, base)) % p)
        planes.append((normal, offset))
    weights = st.integers(1, 9)
    wq = draw(st.lists(weights, min_size=len(pts), max_size=len(pts)))
    wp = draw(st.lists(weights, min_size=len(planes), max_size=len(planes)))
    return p, pts, wq, planes, wp, lines


class TestEngine:
    """The normal-pencil engine across block boundaries, and its memory."""

    @pytest.mark.parametrize("cells", [1, 7, 50])
    def test_block_boundaries(self, monkeypatch, cells):
        monkeypatch.setattr(counting, "_BLOCK_CELLS", cells)
        rng = rng_for("blocks", cells)
        p = 7
        pts = random_distinct_points(rng, p, 3, 40)
        # three normals, so blocks of several points with a partial last one
        normals = [(1, 2, 3), (0, 1, 4), (0, 0, 1)]
        raw_planes = [(n, c) for n in normals for c in range(p) if rng.random() < 0.7]
        wq = [rng.randrange(1, 5) for _ in pts]
        Q = WeightedPointSet.of(pts, p, weights=wq)
        Pi = WeightedPlaneSet.of(raw_planes, p)
        raw = _raw_planes(Pi)
        rep = count_point_plane(Q, Pi)
        assert (rep.pairs, rep.weighted) == oracles.count_point_plane(
            _points(Q), Q.weights, raw, Pi.weights, p)
        lines = [AffineLine(p, q, (1, 0, 0)) for q in _points(Q)[::7]]
        rep = count_restricted(Q, Pi, lines)
        assert (rep.pairs, rep.weighted) == oracles.count_restricted(
            _points(Q), Q.weights, raw, Pi.weights, [(l.base, l.direction) for l in lines], p)
        pts2 = random_distinct_points(rng, p, 2, 30)
        triples = [(1, b, c) for b in range(3) for c in range(p)] + [(0, 1, 2)]
        assert _planar_count(pts2, triples, p) == oracles.count_point_line_2d(
            pts2, triples, p)

    def test_sphere_memory_stays_far_below_dense_matrix(self, monkeypatch):
        p = 31
        Q, Pi = sphere_config(p)
        dense = len(Q) * len(Pi) * 8  # one int64 |Q| x |Pi| array, about 229 MB
        # collinearity is not part of the engine and is slow under tracemalloc
        monkeypatch.setattr(counting, "_collinearity", lambda *a, **k: ((0, None), (0, None)))
        tracemalloc.start()
        try:
            rep = count_point_plane(Q, Pi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # every point of F_p^3 lies on p^2 + p + 1 planes of the complete family
        assert rep.pairs == len(Q) * (p * p + p + 1)
        assert peak < dense // 3

    @pytest.mark.parametrize("cells", [counting._BLOCK_CELLS, 1 << 12])
    def test_sphere_memory_is_bounded_by_the_block(self, monkeypatch, cells):
        p = 31
        Q, Pi = sphere_config(p)
        monkeypatch.setattr(counting, "_BLOCK_CELLS", cells)
        tracemalloc.start()
        try:
            pairs, _ = weighted_incidences(Q, Pi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pairs == len(Q) * (p * p + p + 1)
        # against the complete plane family every residue is a hit, and a
        # block cell holds about 24 bytes: the int64 residue table (8), its
        # product temporary or the plane weights gathered from the
        # plane-index table (8), the int32 plane-index table itself (4), its
        # hit mask (1) and the pencil table and keys of the block's normals
        # (3), where copying each block's hits into index and weight arrays
        # would need about 42.  A point or plane holds 16 bytes at most: the
        # plane weights with a trailing 0, the point weights and a mask of
        # the normals' heads
        assert peak < 28 * counting._BLOCK_CELLS + 16 * (len(Q) + len(Pi))

    @pytest.mark.parametrize("p", [3, 13, 101])
    def test_routes_agree_on_the_same_sets(self, monkeypatch, p):
        rng = rng_for("engine-routes", p)
        Q, Pi = make_sets(rng, p, 60, 4 * p, max_w=5)
        searches, widths = [], []
        search, pair_values = np.searchsorted, counting._pair_values
        monkeypatch.setattr(np, "searchsorted",
                            lambda *a, **k: searches.append(1) or search(*a, **k))
        monkeypatch.setattr(counting, "_pair_values",
                            lambda P, U, p: widths.append(len(U)) or pair_values(P, U, p))
        normals = len(np.unique(Pi.rows[:, :-1], axis=0))
        counts = []
        # normals a block: b = cells // 4p on the table routes, all on the search
        blocked = min(normals, (1 << 16) // (4 * p))
        for cells, searched, width in zip(_route_cells(p), (False, False, True),
                                          (blocked, 1, normals)):
            monkeypatch.setattr(counting, "_BLOCK_CELLS", cells)
            searches.clear(), widths.clear()
            counts.append(weighted_incidences(Q, Pi))
            assert bool(searches) == searched
            assert max(widths) == width
        raw = _raw_planes(Pi)
        assert counts == [oracles.count_point_plane(_points(Q), Q.weights, raw, Pi.weights, p)] * 3

    @settings(max_examples=60, deadline=None)
    @given(engine_cases(3))
    def test_3d_counts_match_oracles_on_every_route(self, case):
        p, pts, wq, planes, wp, lines = case
        Q = WeightedPointSet.of(pts, p, weights=wq, dim=3)
        Pi = WeightedPlaneSet.of(planes, p, weights=wp, dim=3)
        raw = _raw_planes(Pi)
        plain = oracles.count_point_plane(_points(Q), Q.weights, raw, Pi.weights, p)
        restricted = oracles.count_restricted(
            _points(Q), Q.weights, raw, Pi.weights, lines, p,
            on_line=oracles.on_line_by_minors, line_in_plane=oracles.line_in_plane_by_two_points)
        for cells in _route_cells(p):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(counting, "_BLOCK_CELLS", cells)
                assert weighted_incidences(Q, Pi) == plain
                rep = count_restricted(Q, Pi, lines)
                assert (rep.pairs, rep.weighted) == restricted

    @settings(max_examples=60, deadline=None)
    @given(engine_cases(2))
    def test_planar_counts_match_oracles_on_every_route(self, case):
        p, pts, wq, planes, wp, _ = case
        triples = WeightedPlaneSet.of(planes, p, dim=2).rows.tolist()
        Q = WeightedPointSet.of(pts, p, weights=wq, dim=2)
        L = WeightedPlaneSet.of(planes, p, weights=wp, dim=2)
        raw = _raw_planes(L)
        for cells in _route_cells(p):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(counting, "_BLOCK_CELLS", cells)
                assert _planar_count(pts, triples, p) == oracles.count_point_line_2d(
                    pts, triples, p)
                assert weighted_incidences(Q, L) == oracles.count_point_plane(
                    _points(Q), Q.weights, raw, L.weights, p)

    def test_planar_memory_with_the_pencil_table(self):
        # shaped like the benchmark's planar count: about 4,000 points and
        # 4,000 lines at p = 1009, about 1,000 distinct normals
        p = 1009
        rng = np.random.default_rng(1)
        pts = rng.integers(0, p, (4000, 2))
        lines = rng.integers(0, p, (4000, 3))
        lines = lines[lines[:, :2].any(axis=1)]
        tracemalloc.start()
        try:
            got = _planar_count(pts, lines, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "_BLOCK_CELLS", p - 1)  # the key search
            assert _planar_count(pts, lines, p) == got


class TestMaxCollinear:
    def test_three_collinear(self):
        k, line = max_collinear([(0, 0, 0), (1, 1, 1), (2, 2, 2), (1, 0, 0)], 7)
        assert k == 3 and line == (0, 0, 0, 1, 1, 1)

    def test_grid_max_is_n(self):
        p, n = 13, 4
        pts = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
        k, _ = max_collinear(pts, p)
        assert k == n == oracles.max_collinear(pts, p)

    def test_general_position_sample(self):
        p = 31
        pts = [(1, 2, 3), (4, 9, 11), (0, 5, 17), (8, 8, 2), (12, 0, 7)]
        k, _ = max_collinear(pts, p)
        assert k == oracles.max_collinear(pts, p) == 2

    def test_needs_two_points(self):
        with pytest.raises(GeometryError):
            max_collinear([(0, 0, 0)], 7)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_matches_oracle(self, seed):
        rng = rng_for("maxcol", seed)
        p = rng.choice([5, 11])
        pts = random_distinct_points(rng, p, 3, rng.randrange(2, 25))
        k, line = max_collinear(pts, p)
        assert k == oracles.max_collinear(pts, p)
        assert sum(1 for q in pts if oracles.on_line(q, line[:3], line[3:], p)) == k


class TestPointLine2D:
    def test_empty_lines(self):
        assert _planar_count([(0, 0)], [], 7) == 0
        assert count_point_line_2d_naive([(0, 0)], [], 7) == 0

    def test_elekes_grid_n3(self):
        from fpgeom.constructions import elekes_grid

        grid = elekes_grid(3, 23)
        assert _planar_count(grid.points, grid.lines, 23) == 81
        assert count_point_line_2d_naive(grid.points.tolist(), grid.lines.tolist(), 23) == 81

    @pytest.mark.parametrize("seed", range(6))
    def test_random_matches_oracle(self, seed):
        rng = rng_for("ptline", seed)
        p = rng.choice([5, 7, 11, 31])
        pts = random_distinct_points(rng, p, 2, rng.randrange(1, 50))
        triples = []
        seen = set()
        for _ in range(rng.randrange(1, 40)):
            a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
            if (a, b) == (0, 0):
                continue
            (n, off), = oracles.canonical_planes([((a, b), c)], [1], p)[0]
            if (n, off) in seen:
                continue
            seen.add((n, off))
            triples.append((*n, off))
        got = _planar_count(pts, triples, p)
        assert got == oracles.count_point_line_2d(pts, triples, p)
        assert got == count_point_line_2d_naive(pts, triples, p)

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_line_forms(self, seed):
        rng = rng_for("ptline-forms", seed)
        p = rng.choice([7, 11, 13])
        pts = random_distinct_points(rng, p, 2, rng.randrange(1, 40))
        lines = random_raw_lines(rng, p, 2, 12)
        covs = [(-d[1], d[0], d[0] * b[1] - d[1] * b[0]) for b, d in lines]
        triples = [n + (c,) for n, c in oracles.canonical_planes(
            [(cov[:2], cov[2]) for cov in covs], [1] * len(covs), p)[0]]
        # every line three times: as a (base, direction) row, as its
        # covector, and as an unreduced multiple of the covector
        mixed = ([(*b, *d) for b, d in lines] + covs
                 + [(2 * a + p, 2 * b - p, 2 * c + 2 * p) for a, b, c in covs])
        rng.shuffle(mixed)
        want = oracles.count_point_line_2d(pts, triples, p)
        assert _planar_count(pts, triples, p) == want
        assert count_point_line_2d_naive(pts, mixed, p) == want

    def test_naive_line_input_errors(self):
        with pytest.raises(DimensionMismatchError):
            count_point_line_2d_naive([(0, 0)], [(1, 2)], 7)
        with pytest.raises(DimensionMismatchError):
            count_point_line_2d_naive([(0, 0)], [(0, 0, 0, 1, 2, 3)], 7)
        with pytest.raises(DimensionMismatchError):
            count_point_line_2d_naive([(0, 0, 0)], [(1, 2, 3)], 7)
        with pytest.raises(GeometryError):
            count_point_line_2d_naive([(0, 0)], [(7, 14, 3)], 7)
        with pytest.raises(GeometryError):
            count_point_line_2d_naive([(0, 0)], [(1, 2, 0, 7)], 7)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_weighted_incidences_in_the_plane(self, data):
        p = data.draw(st.sampled_from([3, 5, 7, 13]))
        coord = st.integers(0, p - 1)
        pts = data.draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
        triples = data.draw(st.lists(st.tuples(coord, coord, coord).filter(
            lambda t: t[0] or t[1]), min_size=1, max_size=30))
        wq = data.draw(st.lists(st.integers(1, 9), min_size=len(pts), max_size=len(pts)))
        wl = data.draw(st.lists(st.integers(1, 9), min_size=len(triples), max_size=len(triples)))
        Q = WeightedPointSet.of(pts, p, weights=wq, dim=2)
        L = WeightedPlaneSet.of([((a, b), c) for a, b, c in triples], p, weights=wl, dim=2)
        pairs, weighted = weighted_incidences(Q, L)
        assert pairs == count_point_line_2d_naive(pts, triples, p)
        assert (pairs, weighted) == oracles.count_point_plane(
            _points(Q), Q.weights, _raw_planes(L), L.weights, p)

    def test_weighted_incidences_checks_the_sets_agree(self):
        Q = WeightedPointSet.of([(0, 0)], 7)
        with pytest.raises(DimensionMismatchError):
            weighted_incidences(Q, WeightedPlaneSet.of([((1, 0, 0), 0)], 7))
        with pytest.raises(ValueError, match="^point and plane sets use different moduli$"):
            weighted_incidences(Q, WeightedPlaneSet.of([((1, 0), 0)], 11))


class TestRichLines:
    def test_grid_rich_lines_include_axes_and_diagonals(self):
        p, n = 17, 4
        pts = [(x, y) for x in range(n) for y in range(n)]
        _, counts = rich_lines(pts, n, p)
        axis_count = int((counts == n).sum())
        # n horizontal, n vertical, 2 main diagonals hold exactly n points
        assert axis_count >= 2 * n + 2

    def test_threshold_above_size_is_empty(self):
        for pts, k in (([(0, 0), (1, 1)], 3), ([], 2), ([(1, 2)], 2)):
            lines, counts = rich_lines(pts, k, 7)
            assert len(lines) == len(counts) == 0

    def test_counts_match_membership_oracle(self):
        rng = rng_for("rich")
        p = 11
        pts = random_distinct_points(rng, p, 2, 30)
        def lines_of(k):
            lines, counts = rich_lines(pts, k, p)
            return {(tuple(r[:2]), tuple(r[2:])): c
                    for r, c in zip(lines.tolist(), counts.tolist())}

        for (base, d), count in lines_of(3).items():
            assert sum(1 for q in pts if oracles.on_line(q, base, d, p)) == count
        # every line spanned by the set is accounted for
        spanned = lines_of(2)
        for (base, d), count in spanned.items():
            assert sum(1 for q in pts if oracles.on_line(q, base, d, p)) == count
        assert spanned == oracles.spanned_lines(pts, p)

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            rich_lines([(0, 0)], 1, 7)
