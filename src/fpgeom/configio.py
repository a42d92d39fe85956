"""Plain-text configuration files and CSV/JSON report serialisation.

Config grammar (UTF-8, '#' starts a comment anywhere):

    p=<int> dim=<int>
    [points]
    <dim ints> [w=<int>]
    [planes]
    <dim ints (normal)> <int (offset)> [w=<int>]
    [lines]
    <dim ints (base)> <dim ints (direction)> [w=<int>]

Objects are canonicalised on parse (duplicates merge by weight) and emitted
sorted, so parse -> emit -> parse is the identity and emission is
byte-stable.  Reports use the fixed column order
theorem,p,params,count,rhs,ratio,flags with 12-significant-digit floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .counting import WeightedPlaneSet, WeightedPointSet
from .field import Prime
from .geom import AffineLine, AffinePlane, GeometryError, Vec


class ConfigParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class ConfigDoc:
    """Parsed configuration: weighted points, planes and lines over one field."""

    p: Prime
    dim: int
    points: list[tuple[Vec, int]] = field(default_factory=list)
    planes: list[tuple[AffinePlane, int]] = field(default_factory=list)
    lines: list[tuple[AffineLine, int]] = field(default_factory=list)

    def point_list(self) -> list[Vec]:
        return [q for q, _ in self.points]

    def plane_list(self) -> list[AffinePlane]:
        return [pl for pl, _ in self.planes]

    def line_list(self) -> list[AffineLine]:
        return [ln for ln, _ in self.lines]

    def weighted_sets(self) -> tuple[WeightedPointSet, WeightedPlaneSet]:
        """The weighted points and planes, as the incidence counters take them."""
        return (
            WeightedPointSet.of(self.point_list(), self.p,
                                weights=[w for _, w in self.points], dim=self.dim),
            WeightedPlaneSet.of(self.plane_list(), self.p,
                                weights=[w for _, w in self.planes], dim=self.dim),
        )


_SECTIONS = ("points", "planes", "lines")


def parse_config(text: str) -> ConfigDoc:
    doc: ConfigDoc | None = None
    section: str | None = None
    pts: dict[Vec, int] = {}
    pls: dict[AffinePlane, int] = {}
    lns: dict[AffineLine, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if doc is None:
            doc = _parse_header(line, lineno)
            continue
        if line.startswith("["):
            name = line.strip("[]").strip().lower()
            if name not in _SECTIONS:
                raise ConfigParseError(f"unknown section [{name}]", lineno)
            section = name
            continue
        if section is None:
            raise ConfigParseError("object before any section header", lineno)
        values, weight = _parse_object_line(line, lineno)
        p, dim = doc.p, doc.dim
        try:
            if section == "points":
                if len(values) != dim:
                    raise ConfigParseError(f"point needs {dim} coordinates", lineno)
                key = tuple(v % p for v in values)
                pts[key] = pts.get(key, 0) + weight
            elif section == "planes":
                if len(values) != dim + 1:
                    raise ConfigParseError(
                        f"plane needs {dim} normal coordinates and an offset", lineno
                    )
                pl = AffinePlane(p, tuple(values[:dim]), values[dim])
                pls[pl] = pls.get(pl, 0) + weight
            else:
                if len(values) != 2 * dim:
                    raise ConfigParseError(
                        f"line needs {dim} base and {dim} direction coordinates", lineno
                    )
                ln = AffineLine(p, tuple(values[:dim]), tuple(values[dim:]))
                lns[ln] = lns.get(ln, 0) + weight
        except GeometryError as exc:
            raise ConfigParseError(str(exc), lineno) from exc
    if doc is None:
        raise ConfigParseError("empty configuration: missing 'p=... dim=...' header", 0)
    doc.points = sorted(pts.items())
    doc.planes = sorted(pls.items(), key=_plane_key)
    doc.lines = sorted(lns.items(), key=_line_key)
    return doc


# tuple keys give the objects' own field order (one document has one
# modulus) without their generated comparison methods, which cost a python
# call per comparison
def _plane_key(item: tuple[AffinePlane, int]):
    plane, weight = item
    return plane.normal, plane.offset, weight


def _line_key(item: tuple[AffineLine, int]):
    line, weight = item
    return line.base, line.direction, weight


def _parse_header(line: str, lineno: int) -> ConfigDoc:
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
    return ConfigDoc(p=p, dim=dim)


def _parse_object_line(line: str, lineno: int) -> tuple[list[int], int]:
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
            values.append(int(tok))
        except ValueError:
            raise ConfigParseError(f"expected an integer, got {tok!r}", lineno)
    if not values:
        raise ConfigParseError("empty object line", lineno)
    return values, weight


def emit_config(doc: ConfigDoc) -> str:
    """Canonical text: sorted objects, weights only when above 1."""
    out = [f"p={int(doc.p)} dim={doc.dim}"]
    if doc.points:
        out.append("[points]")
        for q, w in sorted(doc.points):
            out.append(_object_line(q, w))
    if doc.planes:
        out.append("[planes]")
        for pl, w in sorted(doc.planes, key=_plane_key):
            out.append(_object_line(pl.normal + (pl.offset,), w))
    if doc.lines:
        out.append("[lines]")
        for ln, w in sorted(doc.lines, key=_line_key):
            out.append(_object_line(ln.base + ln.direction, w))
    return "\n".join(out) + "\n"


def _object_line(values, weight: int) -> str:
    body = " ".join(str(v) for v in values)
    return f"{body} w={weight}" if weight != 1 else body


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
    """Flatten a BoundReport-like object into the fixed CSV schema."""
    return {
        "theorem": report.theorem,
        "p": str(report.p),
        "params": _params_field(report.params),
        "count": format_number(report.count),
        "rhs": format_number(report.rhs),
        "ratio": format_number(report.ratio),
        "flags": _flags_field(report.flags),
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
