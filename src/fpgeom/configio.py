"""Plain-text configuration files and CSV/JSON report serialisation.

Config grammar (UTF-8, '#' starts a comment anywhere; <int> is anything
Python's int reads, beyond int64 too):

    p=<int> dim=<int>
    [points]
    <dim ints> [w=<int>]
    [planes]
    <dim ints (normal)> <int (offset)> [w=<int>]
    [lines]
    <dim ints (base)> <dim ints (direction)> [w=<int>]

Objects are canonicalised on parse by the weighted sets (duplicates merge by
weight) and emitted in their sorted order, so parse -> emit -> parse is the
identity and emission is byte-stable.  Reports use the fixed column order
theorem,p,params,count,rhs,ratio,flags with 12-significant-digit floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .counting import WeightedLineSet, WeightedPlaneSet, WeightedPointSet
from .field import Prime


class ConfigParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class ConfigDoc:
    """Parsed configuration: weighted points, planes and lines over one field."""

    p: Prime
    dim: int
    points: WeightedPointSet
    planes: WeightedPlaneSet
    lines: WeightedLineSet

    @classmethod
    def of(cls, p, dim: int, points=(), planes=(), lines=(),
           weights=(None, None, None)) -> "ConfigDoc":
        """A document of anything the weighted sets' `of` take, with the
        weights of each section (None: all 1); equal objects merge."""
        wq, wpi, wl = weights
        return cls(p, dim, WeightedPointSet.of(points, p, wq, dim),
                   WeightedPlaneSet.of(planes, p, wpi, dim),
                   WeightedLineSet.of(lines, p, wl, dim))


_SECTIONS = ("points", "planes", "lines")


def _section_rules(dim: int) -> dict[str, tuple]:
    """section -> (row width, arity message, columns not all zero, zero message)"""
    return {
        "points": (dim, f"point needs {dim} coordinates", None, None),
        "planes": (dim + 1, f"plane needs {dim} normal coordinates and an offset",
                   slice(dim), "plane normal must be nonzero"),
        "lines": (2 * dim, f"line needs {dim} base and {dim} direction coordinates",
                  slice(dim, None), "zero vector has no canonical scaling"),
    }


def parse_config(text: str) -> ConfigDoc:
    """The document of a config text, read once.  The header and the section
    heads are found in one walk; each section's weights are split off in a
    pass of their own and its values read by one np.loadtxt of its width.  A
    section numpy does not read (a faulty line, a value beyond int64, a digit
    that is not ASCII) is read again as Python ints reduced mod p, up to the
    first faulty line, which ConfigParseError names."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    lines = [line.strip() for line in lines]
    first = next((i for i, line in enumerate(lines) if line), None)
    if first is None:
        raise ConfigParseError("empty configuration: missing 'p=... dim=...' header", 0)
    p, dim = _parse_header(lines[first], first + 1)
    heads = [i for i, line in enumerate(lines) if line.startswith("[")]
    stray = next((i for i in range(first + 1, heads[0] if heads else len(lines)) if lines[i]),
                 None)
    if stray is not None:
        raise ConfigParseError("object before any section header", stray + 1)
    spans: dict[str, list[slice]] = {name: [] for name in _SECTIONS}
    faults = []  # (line number, message); the earliest is raised
    for head, end in zip(heads, heads[1:] + [len(lines)]):
        name = lines[head].strip("[]").strip().lower()
        if name not in spans:
            faults.append((head + 1, f"unknown section [{name}]"))
            break
        spans[name].append(slice(head + 1, end))
    rules = _section_rules(dim)
    arrays, weights = [], []
    for name in _SECTIONS:
        body = [line for span in spans[name] for line in lines[span] if line]
        rows, section_weights, fault = _section_rows(body, int(p), *rules[name])
        if fault is not None:
            numbers = [i + 1 for span in spans[name]
                       for i in range(span.start, span.stop) if lines[i]]
            faults.append((numbers[fault[0]], fault[1]))
        arrays.append(rows)
        weights.append(section_weights)
    del lines, body  # the line strings are freed before the sets canonicalise
    if faults:
        line, message = min(faults)
        raise ConfigParseError(message, line)
    return ConfigDoc.of(p, dim, *arrays, weights=weights)


def _section_rows(lines: list[str], p: int, width: int, arity: str,
                  nonzero: slice | None, zero: str | None):
    """(rows reduced mod p, weights or None for all 1, fault) of one
    section's object lines.  The fault is None or the index and message of
    the first faulty line: a line that does not read, or a row whose columns
    `nonzero` are all zero.  The rows are those of the lines that read."""
    if not lines:  # numpy warns on a text of no lines
        return np.zeros((0, width), dtype=np.int64), None, None
    fault = None
    try:
        values, weights = _split_weights(lines)
        rows = np.loadtxt(values, dtype=np.int64, ndmin=2).reshape(len(lines), width) % p
    except (ValueError, OverflowError):
        # Python's int reads what numpy does not, up to the first faulty line
        faults = ((i, m) for i, line in enumerate(lines) if (m := _line_fault(line, width, arity)))
        fault = next(faults, None)
        values, weights = _split_weights(lines[: fault[0] if fault else len(lines)])
        rows = np.array([[int(t) % p for t in v.split()] for v in values],
                        dtype=np.int64).reshape(-1, width)
    if nonzero is not None:
        ok = rows[:, nonzero].any(axis=1)
        if not ok.all():
            fault = int(ok.argmin()), zero
    return rows, weights, fault


def _split_weights(lines: list[str]) -> tuple[list[str], list[int] | None]:
    """(the lines without their w= tokens, their weights), or (lines, None)
    when none holds one; ValueError at a faulty weight or a weight alone."""
    if not any("w=" in line for line in lines):
        return lines, None
    values, weights = [], []
    for line in lines:
        *value, last = line.rsplit(None, 1)
        weighted = last.startswith("w=")
        weights.append(int(last[2:]) if weighted else 1)
        if weights[-1] < 1 or weighted and not value:
            raise ValueError(f"a weight below 1 or of no object: {line!r}")
        values += value if weighted else [line]
    return values, weights


def _line_fault(line: str, width: int, arity: str) -> str | None:
    """The message of a faulty object line, None for a line that reads: its
    weight token, then its integer tokens, then its width."""
    tokens = line.split()
    if tokens[-1].startswith("w="):
        weight = tokens.pop()
        try:
            if int(weight[2:]) < 1:
                return "weights must be positive"
        except ValueError:
            return f"bad weight token {weight!r}"
    for token in tokens:
        try:
            int(token)
        except ValueError:
            return f"expected an integer, got {token!r}"
    if len(tokens) != width:
        return arity if tokens else "empty object line"


def _parse_header(line: str, lineno: int) -> tuple[Prime, int]:
    parts = line.split()
    if any("=" not in part for part in parts):
        raise ConfigParseError("header must be 'p=<int> dim=<int>'", lineno)
    fields = dict(part.split("=", 1) for part in parts)
    if set(fields) != {"p", "dim"} or len(parts) != 2:
        raise ConfigParseError("header must be 'p=<int> dim=<int>'", lineno)
    try:
        p = Prime(int(fields["p"]))
        dim = int(fields["dim"])
    except ValueError as exc:
        raise ConfigParseError(str(exc), lineno) from exc
    if dim not in (2, 3, 4):
        raise ConfigParseError(f"dim must be 2, 3 or 4, got {dim}", lineno)
    return p, dim


def emit_config(doc: ConfigDoc) -> str:
    """Canonical text: objects in their sets' order, weights only when above 1."""
    out = [f"p={int(doc.p)} dim={doc.dim}"]
    for name, objects in zip(_SECTIONS, (doc.points, doc.planes, doc.lines)):
        if len(objects):
            out.append(f"[{name}]")
            for row, w in zip(objects.rows.tolist(), objects.weights):
                body = " ".join(map(str, row))
                out.append(f"{body} w={w}" if w != 1 else body)
    return "\n".join(out) + "\n"


def load_config(path) -> ConfigDoc:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# report serialisation

REPORT_COLUMNS = ("theorem", "p", "params", "count", "rhs", "ratio", "flags")


def format_number(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, int):
        return str(v)
    f = float(v)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return format(f, ".12g")


def _params_field(params: dict) -> str:
    return ";".join(f"{k}={format_number(v)}" for k, v in sorted(params.items()))


def _flags_field(flags: dict) -> str:
    return ";".join(f"{k}={'1' if v else '0'}" for k, v in sorted(flags.items()))


def report_row(report) -> dict[str, str]:
    """Flatten a BoundReport-like object into the fixed CSV schema; a bound's
    branch is written among the flags as small_set_branch=1|0."""
    flags = dict(report.flags)
    if report.branch is not None:
        flags["small_set_branch"] = report.branch == "small"
    return {
        "theorem": report.theorem,
        "p": str(report.p),
        "params": _params_field(report.params),
        "count": format_number(report.count),
        "rhs": format_number(report.rhs),
        "ratio": format_number(report.ratio),
        "flags": _flags_field(flags),
    }


def rows_to_csv(rows: list[dict[str, str]]) -> str:
    lines = [",".join(REPORT_COLUMNS)]
    for row in rows:
        cells = [row.get(col, "") for col in REPORT_COLUMNS]
        for cell in cells:
            if "," in cell or "\n" in cell:
                raise ValueError(f"cell {cell!r} would need CSV quoting")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"
