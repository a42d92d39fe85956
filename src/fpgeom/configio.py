"""Plain-text configuration files and CSV/JSON report serialisation.

Config grammar (UTF-8, '#' starts a comment anywhere):

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
    """The document of a config text.  Each section's object lines are read
    with one integer conversion; on any fault the text is read again line by
    line, which raises at the first faulty line."""
    doc = _parse_sections(text)
    return _parse_lines(text) if doc is None else doc


def _parse_sections(text: str) -> ConfigDoc | None:
    """parse_config's document, or None when any line is faulty."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    lines = [line.strip() for line in lines]
    first = next((i for i, line in enumerate(lines) if line), None)
    if first is None:
        return None
    p, dim = _parse_header(lines[first], first + 1)
    heads = [i for i, line in enumerate(lines) if line.startswith("[")]
    if any(lines[first + 1 : heads[0] if heads else len(lines)]):
        return None  # an object before any section header
    body: dict[str, list[str]] = {name: [] for name in _SECTIONS}
    for head, end in zip(heads, heads[1:] + [len(lines)]):
        name = lines[head].strip("[]").strip().lower()
        if name not in body:
            return None
        body[name] += filter(None, lines[head + 1 : end])
    rules = _section_rules(dim)
    arrays, weights = [], []
    for name in _SECTIONS:
        width, _, nonzero, _ = rules[name]
        section = _section_rows(body[name], int(p), width, nonzero)
        if section is None:
            return None
        arrays.append(section[0])
        weights.append(section[1])
    return ConfigDoc.of(p, dim, *arrays, weights=weights)


def _section_rows(lines: list[str], p: int, width: int, nonzero: slice | None):
    """(rows reduced mod p, weights or None for all 1) of one section's
    object lines, or None when any of them is faulty; the columns `nonzero`
    may not all be zero."""
    weights = [] if any("w=" in line for line in lines) else None
    try:
        values = np.fromiter(map(int, _object_tokens(lines, width, weights)),
                             dtype=np.int64, count=len(lines) * width)
    except (ValueError, OverflowError):
        return None
    if weights and min(weights) < 1:
        return None
    rows = values.reshape(len(lines), width) % p
    if nonzero is not None and not rows[:, nonzero].any(axis=1).all():
        return None
    return rows, weights


def _object_tokens(lines: list[str], width: int, weights: list[int] | None):
    """Yield the value tokens of object lines of `width` values each, one
    line at a time, appending each line's weight (1 when it has no w= token)
    to `weights` unless it is None; raises ValueError at a faulty line."""
    for line in lines:
        tokens = line.split()
        if weights is not None:
            weights.append(int(tokens.pop()[2:]) if tokens[-1].startswith("w=") else 1)
        if len(tokens) != width:
            raise ValueError(f"{len(tokens)} values, not {width}")
        yield from tokens


def _parse_lines(text: str) -> ConfigDoc:
    """parse_config line by line, raising ConfigParseError at the first
    faulty line."""
    header = None
    section: str | None = None
    rows: dict[str, list[list[int]]] = {name: [] for name in _SECTIONS}
    weights: dict[str, list[int]] = {name: [] for name in _SECTIONS}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            header = p, dim = _parse_header(line, lineno)
            rules = _section_rules(dim)
            continue
        if line.startswith("["):
            name = line.strip("[]").strip().lower()
            if name not in _SECTIONS:
                raise ConfigParseError(f"unknown section [{name}]", lineno)
            section = name
            continue
        if section is None:
            raise ConfigParseError("object before any section header", lineno)
        values, weight = _parse_object_line(line, lineno, p)
        width, arity, nonzero, zero = rules[section]
        if len(values) != width:
            raise ConfigParseError(arity, lineno)
        if zero and not any(values[nonzero]):
            raise ConfigParseError(zero, lineno)
        rows[section].append(values)
        weights[section].append(weight)
    if header is None:
        raise ConfigParseError("empty configuration: missing 'p=... dim=...' header", 0)
    arrays = [np.array(rows[name], dtype=np.int64).reshape(len(rows[name]), rules[name][0])
              for name in _SECTIONS]
    return ConfigDoc.of(p, dim, *arrays, weights=[weights[name] for name in _SECTIONS])


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


def _parse_object_line(line: str, lineno: int, p: int) -> tuple[list[int], int]:
    """(values reduced mod p, weight) of an object line."""
    weight = 1
    tokens = line.split()
    if tokens and tokens[-1].startswith("w="):
        try:
            weight = int(tokens[-1][2:])
        except ValueError:
            raise ConfigParseError(f"bad weight token {tokens[-1]!r}", lineno)
        if weight < 1:
            raise ConfigParseError("weights must be positive", lineno)
        tokens = tokens[:-1]
    values = []
    for tok in tokens:
        try:
            values.append(int(tok) % p)
        except ValueError:
            raise ConfigParseError(f"expected an integer, got {tok!r}", lineno)
    if not values:
        raise ConfigParseError("empty object line", lineno)
    return values, weight


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
    if isinstance(v, bool):
        return "1" if v else "0"
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


def rows_to_json(rows: list[dict[str, str]]) -> str:
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"
