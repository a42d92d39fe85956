"""Command-line experiment runner.

Subcommands: construct, count, distances, energy, forms, verify, sweep.
Global flags: --seed, --format {csv,json}, --out, --strict.
Exit codes: 0 success, 1 usage, 2 parse error, 3 constraint violation,
4 internal error (overflow or an unexpected failure).  All output is
deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys

import numpy as np

from . import bounds, configio, counting, erdos
from .configio import ConfigDoc, ConfigParseError
from .constructions import (
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
from .counting import WeightedLineSet, WeightedPlaneSet, WeightedPointSet
from .energy import rectangle_energy_paraboloid, rectangle_energy_sphere
from .field import Prime
from .geom import GeometryError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="fpgeom", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="seed for randomised steps")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    parser.add_argument("--strict", action="store_true",
                        help="exit 3 when any reported hypothesis flag is violated")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="emit a configuration file")
    c.add_argument("name", choices=(
        "sphere", "coprime", "elekes", "semi-isotropic", "cylinder",
        "random-3d", "random-2d"))
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n", type=int, help="grid size (elekes) or lattice bound (coprime)")
    c.add_argument("--k", type=int, help="parallel line count (semi-isotropic)")
    c.add_argument("--l", type=int, help="points per line (semi-isotropic)")
    c.add_argument("--t", type=int, help="sphere radius-square (cylinder)")
    c.add_argument("--k0", type=int, help="points per generator (cylinder)")
    c.add_argument("--m", type=int, help="generator count (cylinder)")
    c.add_argument("--points", type=int, default=0, help="random point count")
    c.add_argument("--planes", type=int, default=0,
                   help="random plane count; for 'sphere', sample size of the plane family")
    c.add_argument("--lines", type=int, default=0, help="random line count")

    for name, extra in (
        ("count", lambda s: (
            s.add_argument("--restricted", action="store_true",
                           help="discount incidences along the [lines] section"),
        )),
        ("distances", lambda s: (
            s.add_argument("--exclude-zero", action="store_true"),
        )),
        ("energy", lambda s: (
            s.add_argument("--quadric", choices=("paraboloid", "sphere"), required=True),
            s.add_argument("--t", type=int, default=1),
        )),
        ("forms", lambda s: (
            s.add_argument("--matrix", type=int, nargs=4, metavar=("M00", "M01", "M10", "M11")),
            s.add_argument("--solutions", action="store_true",
                           help="count value collisions instead of distinct values"),
        )),
        ("verify", lambda s: (
            s.add_argument("--quadric", choices=("paraboloid", "sphere")),
            s.add_argument("--t", type=int, default=1),
        )),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("config", help="configuration file path")
        sp.add_argument("--theorem", help="bound id for the rhs/ratio columns")
        extra(sp)

    sw = sub.add_parser("sweep", help="run an experiment specification")
    sw.add_argument("spec", help="experiment spec path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ConstraintError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"cannot read or write: {exc}", file=sys.stderr)
        return 1
    except (GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # the CLI boundary: one line, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def _dispatch(args) -> int:
    if args.command == "construct":
        return _cmd_construct(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "sweep":
        return _emit_rows(run_experiment_file(args.spec, seed=args.seed), args)
    handler = {
        "count": _cmd_count,
        "distances": _cmd_distances,
        "energy": _cmd_energy,
        "forms": _cmd_forms,
    }[args.command]
    return _emit_rows(handler(args), args)


def _write_out(text: str, args) -> None:
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_rows(reports, args) -> int:
    rows = [configio.report_row(r) for r in reports]
    text = configio.rows_to_csv(rows) if args.format == "csv" else configio.rows_to_json(rows)
    _write_out(text, args)
    if args.strict and any(
        not ok
        for r in reports
        for name, ok in r.flags.items()
        if name not in bounds.INFORMATIONAL_FLAGS
    ):
        print("strict mode: hypothesis flag violated", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# construct

def _cmd_construct(args) -> int:
    p = Prime(args.p)
    rng = random.Random(args.seed)
    name = args.name
    dim, points, planes, lines = 3, [], [], []
    if name == "sphere":
        pts, family = sphere_config(p)
        points, planes = pts.rows, family.rows
        if args.planes and args.planes < len(planes):
            # sampling indices picks the planes a sample of the plane list would
            planes = planes[rng.sample(range(len(planes)), args.planes)]
    elif name == "coprime":
        _need(args, "n")
        dim, points = 2, coprime_lattice(args.n, p)
    elif name == "elekes":
        _need(args, "n")
        grid = elekes_grid(args.n, p)
        dim, points, planes = 2, grid.points, grid.lines
    elif name == "semi-isotropic":
        _need(args, "k", "l")
        points = semi_isotropic_set(args.k, args.l, p).points
    elif name == "cylinder":
        _need(args, "t", "k0", "m")
        built = cylinder_set(p, args.t, args.k0, args.m)
        dim, points, lines = 4, built.points, built.generators
    elif name == "random-3d":
        points = random_points(p, 3, args.points, rng)
        planes = random_planes(p, 3, args.planes, rng)
        lines = random_lines(p, 3, args.lines, rng)
    else:  # random-2d
        dim, points = 2, random_points(p, 2, args.points, rng)
        lines = random_lines(p, 2, args.lines, rng)
    _write_out(configio.emit_config(ConfigDoc.of(p, dim, points, planes, lines)), args)
    return 0


def _need(args, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"construct {args.name} needs --{name}")


# ---------------------------------------------------------------------------
# measurements, each shared by its subcommand and the sweep cells of its kind.
# `cell` holds a sweep cell's construction parameters: a sweep row shows them
# in place of the subcommand's detail fields.

def _row(p, label, theorem, params, count, rhs_args, flags=None) -> bounds.BoundReport:
    """The count against the theorem's rhs when one is given, else a plain row."""
    if theorem:
        res = bounds.rhs(theorem, p, **rhs_args)
        return bounds.BoundReport.build(res, p, params, count, extra_flags=flags)
    return bounds.BoundReport(
        theorem=label, p=int(p), params=dict(params), count=count,
        rhs=float("nan"), ratio=None, flags=dict(flags or {}))


def _incidences(p, pts, planes, theorem, forbidden=None, cell=None) -> bounds.BoundReport:
    """Point-plane incidences, restricted when `forbidden` lines are given;
    T1C weighs them, the other theorems count pairs."""
    if forbidden is None:
        rep, label = counting.count_point_plane(pts, planes), "point_plane"
    else:
        rep, label = counting.count_restricted(pts, planes, forbidden), "point_plane_restricted"
    params = {"q": rep.distinct_points, "pi": rep.distinct_planes, "k": rep.k}
    params.update({"weighted": rep.weighted} if cell is None else cell)
    if rep.k_star is not None:
        params["kstar"] = rep.k_star
    t = (theorem or "").upper()
    if t == "T1C":
        count = rep.weighted
        w0 = max(rep.max_point_weight, rep.max_plane_weight, 1)
        rhs_args = {"W": rep.point_weight, "w0": w0, "k": rep.k}
        params["weights_balanced"] = int(rep.point_weight == rep.plane_weight)
    else:
        count = rep.pairs
        k = rep.k_star if (t == "T1B" and rep.k_star is not None) else rep.k
        rhs_args = {"q": rep.distinct_points, "pi": rep.distinct_planes, "k": k}
    return _row(p, label, theorem, params, count, rhs_args, rep.flags)


def _point_lines(p, points, covs, theorem, cell=None, **rhs_extra) -> bounds.BoundReport:
    """Planar point-line incidences over distinct points and covector lines."""
    points = WeightedPointSet.of(points, p, dim=2).rows
    covs = WeightedPlaneSet.of(covs, p, dim=2).rows
    count = counting.count_point_line_2d(points, covs, p)
    params = {"q": len(points), "l": len(covs)}
    rhs_args = _pick({**params, **rhs_extra}, theorem) if theorem else {}
    return _row(p, "point_line", theorem, {**params, **(cell or {})}, count, rhs_args)


def _pick(params: dict, theorem: str) -> dict:
    wanted = {
        "T2": ("a", "b", "l"), "T3": ("q", "l"), "VINH": ("q", "l"),
        "COR21": ("q", "l", "k"), "KRICH": ("n", "k"),
    }.get(theorem.upper())
    if wanted is None:
        return params
    missing = [w for w in wanted if w not in params]
    if missing:
        raise UsageError(f"{theorem} needs parameters {missing} not derivable here")
    return {w: params[w] for w in wanted}


def _distances(p, points, theorem, include_zero=True, cell=None) -> bounds.BoundReport:
    """The largest pinned distance count."""
    rep = erdos.distance_set(points, p, include_zero=include_zero)
    params, flags = {"s": len(points)}, {}
    if cell is not None:
        params.update(cell)
    else:
        params["values"] = len(rep.values)
        if rep.in_semi_isotropic_plane is not None:
            flags["outside_semi_isotropic_plane"] = not rep.in_semi_isotropic_plane
    return _row(p, "pinned_distances", theorem, params, rep.max_pinned,
                {"s": len(points)}, flags)


def _energy(p, points, quadric, t, theorem, cell=None) -> bounds.BoundReport:
    """Rectangle energy on the paraboloid or on the sphere of radius-square t."""
    if quadric == "paraboloid":
        rep = rectangle_energy_paraboloid(points, p)
    else:
        rep = rectangle_energy_sphere(points, p, t)
    params = {"a": rep.size, "k0": rep.k0}
    params.update(cell if cell is not None else {
        "rectangles": rep.rectangles, "ordinary": rep.ordinary,
        "semi_degenerate": rep.semi_degenerate, "degenerate": rep.degenerate,
    })
    return _row(p, f"energy_{quadric}", theorem, params, rep.energy,
                {"a": rep.size, "k0": rep.k0})


def _forms(p, points, form, theorem, solutions=False, cell=None) -> bounds.BoundReport:
    """Distinct values of a bilinear form, or its value collisions."""
    if solutions:
        count, label = erdos.form_solution_count(points, points, form), "form_solutions"
    else:
        count, label = len(erdos.form_values(points, form)), "form_values"
    params = {"s": len(points), **(cell or {})}
    return _row(p, label, theorem, params, count, {"s": len(points)})


# ---------------------------------------------------------------------------
# measurement subcommands

def _cmd_count(args) -> list[bounds.BoundReport]:
    doc = configio.load_config(args.config)
    if doc.dim == 3:
        forbidden = doc.lines.rows if args.restricted else None
        return [_incidences(doc.p, doc.points, doc.planes, args.theorem, forbidden)]
    if doc.dim == 2:
        if args.restricted:
            raise UsageError("count --restricted works on 3-dimensional configurations")
        return [_point_lines(doc.p, doc.points.rows, _covectors(doc), args.theorem)]
    raise UsageError("count supports dim 2 and 3 configurations")


def _covectors(doc: ConfigDoc):
    """The rows (a, b, c) of a planar document's lines and planes."""
    return np.vstack([doc.lines.covectors(), doc.planes.rows])


def _cmd_distances(args) -> list[bounds.BoundReport]:
    doc = configio.load_config(args.config)
    return [_distances(doc.p, doc.points.rows, args.theorem,
                       include_zero=not args.exclude_zero)]


def _cmd_energy(args) -> list[bounds.BoundReport]:
    doc = configio.load_config(args.config)
    return [_energy(doc.p, doc.points.rows, args.quadric, args.t, args.theorem)]


def _cmd_forms(args) -> list[bounds.BoundReport]:
    doc = configio.load_config(args.config)
    if doc.dim != 2:
        raise UsageError("forms works on 2-dimensional configurations")
    m = args.matrix or (0, 1, -1, 0)
    form = erdos.FormSpec(doc.p, ((m[0], m[1]), (m[2], m[3])))
    return [_forms(doc.p, doc.points.rows, form, args.theorem, args.solutions)]


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    doc = configio.load_config(args.config)
    checks: list[tuple[str, bool]] = []
    text1 = configio.emit_config(doc)
    text2 = configio.emit_config(configio.parse_config(text1))
    checks.append(("round-trip emission is stable", text1 == text2))
    if doc.dim == 3 and len(doc.planes):
        rep = counting.count_point_plane(doc.points, doc.planes)
        pairs, weighted = counting.count_point_plane_naive(doc.points, doc.planes)
        checks.append(("vectorised count matches the naive loop",
                       (rep.pairs, rep.weighted) == (pairs, weighted)))
        if len(doc.lines):
            rrep = counting.count_restricted(doc.points, doc.planes, doc.lines.rows)
            rpairs, rweighted = counting.count_point_plane_naive(
                doc.points, doc.planes, doc.lines.lines)
            checks.append(("restricted count matches the naive loop",
                           (rrep.pairs, rrep.weighted) == (rpairs, rweighted)))
    if doc.dim == 2 and (len(doc.lines) or len(doc.planes)):
        # the naive loop takes the objects, so it checks the covector step too
        fast = counting.count_point_line_2d(doc.points.rows, _covectors(doc), doc.p)
        slow = counting.count_point_line_2d_naive(
            doc.points.points, doc.lines.lines + doc.planes.planes, doc.p)
        checks.append(("planar count matches the naive loop", fast == slow))
    if args.quadric:
        from .quadrics import Paraboloid, Sphere

        quad = (Paraboloid(doc.p, doc.dim) if args.quadric == "paraboloid"
                else Sphere(doc.p, doc.dim, args.t))
        ok = all(quad.contains(q) for q in doc.points.points)
        checks.append((f"all points lie on the {args.quadric}", ok))
    lines = [f"{'ok' if ok else 'FAIL'}: {name}" for name, ok in checks]
    _write_out("\n".join(lines) + "\n", args)
    return 0 if all(ok for _, ok in checks) else 3


# ---------------------------------------------------------------------------
# sweep / run_experiment: each construction builds its set from the cell's
# keys (p already a Prime) and hands it to the measurement of its kind

def _sphere_cell(cell, p, seed):
    return _incidences(p, *sphere_config(p), cell["theorem"], cell={})


def _coprime_cell(cell, p, seed):
    n = _cell_need(cell, "N", "n")
    return _forms(p, coprime_lattice(n, p), erdos.dot_form(p), cell["theorem"],
                  cell={"N": n})


def _elekes_cell(cell, p, seed):
    n = _cell_need(cell, "n")
    grid = elekes_grid(n, p)
    return _point_lines(p, grid.points, grid.lines, cell["theorem"], cell={"n": n},
                        a=n, b=2 * n * n)


def _semi_isotropic_cell(cell, p, seed):
    k, l = _cell_need(cell, "k"), _cell_need(cell, "l")
    built = semi_isotropic_set(k, l, p, seed=cell.get("seed", seed))
    return _distances(p, built.points, cell["theorem"], cell={"k": k, "l": l})


def _cylinder_cell(cell, p, seed):
    t, k0, m = _cell_need(cell, "t"), _cell_need(cell, "k0"), _cell_need(cell, "m")
    return _energy(p, cylinder_set(p, t, k0, m).points, "sphere", t, cell["theorem"],
                   cell={"t": t, "m": m})


def _random_3d_cell(cell, p, seed):
    rng = random.Random(repr((cell.get("seed", seed), int(p), "3d")))
    pts = WeightedPointSet.of(random_points(p, 3, cell.get("points", 32), rng), p, dim=3)
    planes = WeightedPlaneSet.of(random_planes(p, 3, cell.get("planes", 32), rng), p, dim=3)
    return _incidences(p, pts, planes, cell["theorem"], cell={})


def _random_2d_cell(cell, p, seed):
    rng = random.Random(repr((cell.get("seed", seed), int(p), "2d")))
    pts = random_points(p, 2, cell.get("points", 32), rng)
    lines = WeightedLineSet.of(random_lines(p, 2, cell.get("lines", 32), rng), p, dim=2)
    return _point_lines(p, pts, lines.covectors(), cell["theorem"])


# construction -> (the theorems it pairs with, the first the default; its cell)
_CONSTRUCTIONS = {
    "sphere": (("T1", "T1B"), _sphere_cell),
    "coprime": (("T41",), _coprime_cell),
    "elekes": (("T2", "T3", "VINH"), _elekes_cell),
    "semi_isotropic": (("T42",), _semi_isotropic_cell),
    "cylinder": (("T56",), _cylinder_cell),
    "random_3d": (("T1", "T1B"), _random_3d_cell),
    "random_2d": (("VINH", "T3"), _random_2d_cell),
}

_SWEEP_KEYS = {"construction", "theorem", "p", "n", "N", "k", "l", "t", "k0", "m",
               "points", "planes", "lines", "seed"}


def parse_sweep_spec(text: str) -> list[dict]:
    """Expand a key=value sweep file into one cell per parameter combination."""
    entries: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"expected key=value, got {line!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SWEEP_KEYS:
            raise ConfigParseError(f"unknown sweep key {key!r}", lineno)
        if key in entries:
            raise ConfigParseError(f"duplicate key {key!r}", lineno)
        entries[key] = [v.strip() for v in value.split(",") if v.strip()]
        if not entries[key]:
            raise ConfigParseError(f"empty value for {key!r}", lineno)
    if "construction" not in entries:
        raise ConfigParseError("sweep spec needs a 'construction' key", 0)
    if "p" not in entries:
        raise ConfigParseError("sweep spec needs a 'p' key", 0)
    constructions = entries.pop("construction")
    theorems = entries.pop("theorem", [None])
    cells = []
    numeric_keys = sorted(entries)
    value_lists = [entries[k] for k in numeric_keys]
    for construction in constructions:
        cname = construction.replace("-", "_")
        if cname not in _CONSTRUCTIONS:
            raise ConfigParseError(f"unknown construction {construction!r}", 0)
        allowed = _CONSTRUCTIONS[cname][0]
        for theorem in theorems:
            tid = (theorem or allowed[0]).upper()
            if tid not in allowed:
                raise ConfigParseError(
                    f"theorem {tid} does not pair with construction {construction}", 0)
            for combo in itertools.product(*value_lists):
                cell = {"construction": cname, "theorem": tid}
                for key, val in zip(numeric_keys, combo):
                    try:
                        cell[key] = int(val)
                    except ValueError:
                        raise ConfigParseError(f"non-integer value {val!r} for {key}", 0)
                cells.append(cell)
    return cells


def _cell_need(cell: dict, *names: str) -> int:
    for n in names:
        if n in cell:
            return cell[n]
    raise ConfigParseError(f"sweep cell needs a value for {names[0]!r}", 0)


def run_experiment(spec_text: str, seed: int = 0) -> list[bounds.BoundReport]:
    """Execute construct -> measure -> rhs for every cell of a sweep spec,
    in the spec's expansion order."""
    return [_CONSTRUCTIONS[cell["construction"]][1](cell, Prime(cell["p"]), seed)
            for cell in parse_sweep_spec(spec_text)]


def run_experiment_file(path, seed: int = 0) -> list[bounds.BoundReport]:
    with open(path, "r", encoding="utf-8") as fh:
        return run_experiment(fh.read(), seed=seed)


if __name__ == "__main__":
    sys.exit(main())
