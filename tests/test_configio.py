import contextlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fpgeom import configio
from fpgeom.bounds import BoundReport
from fpgeom.cli import main
from fpgeom.configio import (
    REPORT_COLUMNS,
    ConfigParseError,
    emit_config,
    format_number,
    parse_config,
    report_row,
    rows_to_csv,
    rows_to_json,
)
from fpgeom.counting import WeightedLineSet

SAMPLE = """\
# sample configuration
p=7 dim=3
[points]
1 2 3
1 2 3 w=2   # merges with the previous line
6 5 4
[planes]
1 0 0 4
2 0 0 1 w=3
[lines]
0 0 0 1 0 0
"""


class TestParse:
    def test_round_trip_identity(self):
        doc = parse_config(SAMPLE)
        text = emit_config(doc)
        doc2 = parse_config(text)
        assert emit_config(doc2) == text
        assert doc2.points == doc.points
        assert doc2.planes == doc.planes
        assert doc2.lines == doc.lines

    def test_duplicate_points_merge(self):
        doc = parse_config(SAMPLE)
        assert ([1, 2, 3], 3) in zip(doc.points.rows.tolist(), doc.points.weights)

    def test_normalisation(self):
        doc = parse_config("p=7 dim=2\n[points]\n-1 9\n")
        assert list(zip(doc.points.rows.tolist(), doc.points.weights)) == [([6, 2], 1)]

    def test_plane_canonicalisation_merges(self):
        text = "p=7 dim=3\n[planes]\n1 0 0 4\n2 0 0 1\n"
        doc = parse_config(text)
        assert len(doc.planes) == 1 and doc.planes.weights[0] == 2

    def test_emission_sorted(self):
        text = "p=7 dim=2\n[points]\n5 5\n0 1\n3 3\n"
        emitted = emit_config(parse_config(text))
        body = emitted.splitlines()[2:]
        assert body == sorted(body)

    @pytest.mark.parametrize(
        "bad,lineno",
        [
            ("dim=3\n", 1),                           # header missing p
            ("p=8 dim=3\n", 1),                       # composite modulus
            ("p=7 dim=5\n", 1),                       # unsupported dimension
            ("p=7 dim=3\n[stuff]\n", 2),              # unknown section
            ("p=7 dim=3\n1 2 3\n", 2),                # object before section
            ("p=7 dim=3\n[points]\n1 2\n", 3),        # wrong arity
            ("p=7 dim=3\n[points]\n1 2 x\n", 3),      # non-integer token
            ("p=7 dim=3\n[points]\n1 2 3 w=0\n", 3),  # non-positive weight
            ("p=7 dim=3\n[planes]\n0 0 0 1\n", 3),    # zero normal
            ("p=7 dim=3\n[lines]\n0 0 0 0 0 0\n", 3), # zero direction
        ],
    )
    def test_errors_carry_line_numbers(self, bad, lineno):
        with pytest.raises(ConfigParseError) as exc:
            parse_config(bad)
        assert exc.value.line == lineno
        assert f"line {lineno}" in str(exc.value)

    def test_empty_config_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_config("# nothing here\n")

    @pytest.mark.parametrize("bad", [
        "p=7 dim=3\n[stuff]\n", "p=7 dim=3\n1 2 3\n", "p=7 dim=3\n[points]\n1 2\n",
        "p=7 dim=3\n[points]\n1 2 x\n", "p=7 dim=3\n[points]\n1 2 3 w=0\n",
        "p=7 dim=3\n[planes]\n0 0 0 1\n", "p=7 dim=3\n[lines]\n0 0 0 0 0 0\n",
        "p=7 dim=2\n[points]\n1 w=2 2\n", "p=7 dim=2\n[points]\n1 2 w=\n",
        "p=7 dim=2\n[points]\nw=3\n", "p=7 dim=2\n[points]\n1 2\n1 2 3\n3\n",
        # the earliest fault wins: across sections in any order, a zero row
        # before a bad token, a bad token after a value beyond int64
        "p=7 dim=3\n[planes]\n1 0 0\n[points]\n1 2 x\n",
        "p=7 dim=3\n[lines]\n1 1 1 7 14 0\n[planes]\n1 0 0 w=0\n",
        "p=7 dim=2\n[points]\n1 1\n[stuff]\n[planes]\n0 0 1\n",
        "p=7 dim=2\n[planes]\n1 1 1\n7 0 1\n1 x 1\n",
        "p=7 dim=2\n[points]\n99999999999999999999 1\n1 x\n",
        # a section read in two blocks, its fault in the second
        "p=7 dim=2\n[points]\n1 1\n[planes]\n1 1 1\n[points]\n\n2 2\n1 x\n",
    ])
    def test_faulty_lines_raise_as_the_line_reader_does(self, bad):
        with pytest.raises(ConfigParseError) as want:
            oracles.parse_config_lines(bad)
        with pytest.raises(ConfigParseError) as got:
            parse_config(bad)
        assert (str(got.value), got.value.line) == (str(want.value), want.value.line)

    def test_large_coordinates_read_as_the_line_reader_does(self):
        text = ("p=7 dim=2\n[points]\n99999999999999999999 -99999999999999999999\n"
                "[planes]\n1 2 3\n[points]\n1 1 w=99999999999999999999\n")
        doc = parse_config(text)
        big = 99999999999999999999
        assert doc.points.rows.tolist() == [[1, 1], [big % 7, -big % 7]]
        assert doc.points.weights == (99999999999999999999, 1)
        assert emit_config(doc) == emit_config(oracles.parse_config_lines(text))

    @pytest.mark.parametrize("text, conversions, located", [
        (SAMPLE, 3, []),
        ("p=7 dim=3\n[points]\n1 2 x\n[planes]\n0 0 0 1\n", 2, ["1 2 x"]),
        ("p=7 dim=2\n[points]\n99999999999999999999 1\n[lines]\n0 0 1 1\n", 2,
         ["99999999999999999999 1"]),
        ("p=7 dim=2\n[points]\n1 1 w=2\n\u0663 1\n[planes]\n1 1 1\n", 2, ["1 1 w=2", "\u0663 1"]),
    ])
    def test_each_section_is_converted_once(self, monkeypatch, text, conversions, located):
        # numpy converts each section that holds lines once; Python's int
        # reads a section's lines only after numpy fails on it (a faulty
        # line, a value beyond int64, a digit that is not ASCII), up to the
        # first faulty line
        loads, reads = [], []
        loadtxt, line_fault = np.loadtxt, configio._line_fault
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: loads.append(a) or loadtxt(*a, **k))
        monkeypatch.setattr(configio, "_line_fault",
                            lambda line, *a: reads.append(line) or line_fault(line, *a))
        with contextlib.suppress(ConfigParseError):
            parse_config(text)
        assert (len(loads), reads) == (conversions, located)

    def test_peak_is_bounded_by_the_document(self, capsys):
        # the line strings are freed before the sets canonicalise: on the
        # unit-sphere config at p = 61 (2.5 MB of text) the peak is 3.5 times
        # the 9.4 MB the document holds, and 4.1 times while they are kept
        assert main(["construct", "sphere", "--p", "61"]) == 0
        text = capsys.readouterr().out
        tracemalloc.start()
        try:
            doc = parse_config(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(doc.points) == 61 * 62 and len(doc.planes) == 61 * (61 * 61 + 61 + 1)
        assert peak < 3.8 * held


# Random configs: objects in [0, p) and their copies, shifted by multiples of
# p (negative and >= p coordinates) and, for planes and lines, rescaled or
# moved along the line, so copies merge only through canonical form.  Weights
# near 2^61 make a section's total pass 2^62.

@st.composite
def _configs(draw):
    dim = draw(st.sampled_from((2, 3, 4)))
    p = draw(st.sampled_from((3, 7, 101, 2**31 - 1)))
    vec = st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim)
    nonzero = vec.filter(any)
    weight = st.one_of(st.integers(1, 3), st.integers(2**61, 2**61 + 5))

    def shifted(values):
        return [c + p * draw(st.integers(-1, 2)) for c in values]

    def copies(objects, move):
        out = []
        for obj in objects:
            for _ in range(draw(st.integers(1, 3))):
                out.append((move(obj), draw(weight)))
        return out

    def move_plane(plane):
        normal, offset = plane
        s = draw(st.integers(1, p - 1))
        return shifted([c * s for c in normal]), shifted([offset * s])[0]

    def move_line(line):
        base, direction = line
        s, t = draw(st.integers(1, p - 1)), draw(st.integers(0, p - 1))
        return (shifted([b + t * c for b, c in zip(base, direction)]),
                shifted([c * s for c in direction]))

    points = copies(draw(st.lists(vec, max_size=5)), shifted)
    planes = copies(draw(st.lists(st.tuples(nonzero, st.integers(0, p - 1)), max_size=5)),
                    move_plane)
    lines = copies(draw(st.lists(st.tuples(vec, nonzero), max_size=5)), move_line)
    return p, dim, points, planes, lines


def _config_text(p, dim, points, planes, lines):
    out = [f"p={p} dim={dim}", "[points]"]
    out += [" ".join(map(str, q)) + f" w={w}" for q, w in points]
    out.append("[planes]")
    out += [" ".join(map(str, [*n, c])) + f" w={w}" for (n, c), w in planes]
    out.append("[lines]")
    out += [" ".join(map(str, [*b, *d])) + f" w={w}" for (b, d), w in lines]
    return "\n".join(out) + "\n"


def _oracle_lines(lines, p):
    return oracles._merge_sorted([oracles.canonical_line(b, d, p) for (b, d), _ in lines],
                                 [w for _, w in lines])


@settings(max_examples=80, deadline=None)
@given(_configs())
def test_emission_matches_oracle(config):
    p, dim, points, planes, lines = config
    sections = (
        ("points", oracles.canonical_points([q for q, _ in points], [w for _, w in points], p)),
        ("planes", oracles.canonical_planes([pl for pl, _ in planes], [w for _, w in planes], p)),
        ("lines", _oracle_lines(lines, p)),
    )
    flatten = {"points": list, "planes": lambda k: [*k[0], k[1]], "lines": lambda k: [*k[0], *k[1]]}
    want = [f"p={p} dim={dim}"]
    for name, (keys, weights) in sections:
        if keys:
            want.append(f"[{name}]")
        for key, w in zip(keys, weights):
            body = " ".join(map(str, flatten[name](key)))
            want.append(body if w == 1 else f"{body} w={w}")
    assert emit_config(parse_config(_config_text(*config))) == "\n".join(want) + "\n"


@settings(max_examples=80, deadline=None)
@given(_configs())
def test_line_set_matches_oracle(config):
    p, dim, _, _, lines = config
    keys, weights = _oracle_lines(lines, p)
    pairs, ws = [line for line, _ in lines], [w for _, w in lines]
    got = WeightedLineSet.of(pairs, p, ws, dim=dim)
    assert got.rows.tolist() == [[*b, *d] for b, d in keys]
    assert got.weights == tuple(weights)
    rows = np.array([[*b, *d] for b, d in pairs], dtype=np.int64).reshape(-1, 2 * dim)
    assert WeightedLineSet.of(rows, p, ws, dim=dim) == got


class TestReportSerialisation:
    def _report(self):
        return BoundReport(
            theorem="T1",
            p=7,
            params={"q": 6, "pi": 39, "k": 2},
            count=234,
            rhs=171.846,
            ratio=234 / 171.846,
            flags={"points_le_planes": True, "points_lt_p2": True},
        )

    def test_fixed_columns(self):
        row = report_row(self._report())
        assert tuple(row) == REPORT_COLUMNS

    def test_csv_layout(self):
        csv_text = rows_to_csv([report_row(self._report())])
        lines = csv_text.splitlines()
        assert lines[0] == "theorem,p,params,count,rhs,ratio,flags"
        assert lines[1].startswith("T1,7,k=2;pi=39;q=6,234,")

    def test_json_mirror(self):
        rows = [report_row(self._report())]
        parsed = json.loads(rows_to_json(rows))
        assert parsed == rows

    def test_float_formatting(self):
        assert format_number(0.1234567890123456) == "0.123456789012"
        assert format_number(3.0) == "3"
        assert format_number(12) == "12"
        assert format_number(None) == "nan"

    def test_ratio_recomputes_from_row(self):
        row = report_row(self._report())
        assert float(row["ratio"]) == pytest.approx(
            float(row["count"]) / float(row["rhs"]), rel=1e-10
        )


@settings(max_examples=80, deadline=None)
@given(_configs())
def test_reader_reads_every_config_the_line_reader_does(config):
    text = _config_text(*config)
    assert emit_config(parse_config(text)) == emit_config(oracles.parse_config_lines(text))


# Texts from a mix of good and faulty lines: parse_config and the line reader
# give one document, or one error with one message and line.  The tokens
# cover what int() reads and the int64 conversion may not (coordinates and
# weights beyond int64, a non-ASCII digit) and multiples of p, which reduce
# to a zero normal or direction.
_TOKENS = ("0", "1", "6", "-3", "13", "+4", "1_0", "x", "1e3", "0x1", "1.0", "\u0663", "7",
           "-5", "w=2", "w=1", "w=0", "w=x", "w=", "w=+2", "w=99999999999999999999",
           "99999999999999999999", "-99999999999999999999", "[points]", "#", "# note")
_LINES = st.one_of(
    st.sampled_from(("", "  ", "[points]", "[planes]", "[lines]", " [ Lines ] ", "[stuff]",
                     "p=7 dim=2", "# only a comment", "7 -14 1", "7 -14 0 1", "10 5 3")),
    st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=7).map(" ".join),
    st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=7).map("\t".join),
)


def _outcome(parse, text):
    try:
        return emit_config(parse(text))
    except Exception as exc:  # noqa: BLE001 - the two readers must fail alike
        return type(exc), str(exc), getattr(exc, "line", None)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("p=7 dim=2", "p=7 dim=3", "  p=5 dim=2 # c", "p=8 dim=2", "")),
       st.lists(_LINES, max_size=12))
def test_reader_agrees_with_the_line_reader(header, lines):
    text = "\n".join([header, *lines]) + "\n"
    assert _outcome(parse_config, text) == _outcome(oracles.parse_config_lines, text)
