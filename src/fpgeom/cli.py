"""Command-line experiment runner.

Subcommands: construct, count, distances, energy, forms, verify, sweep.
Global flags: --seed, --threads, --format {csv,json}, --out, --strict.
Exit codes: 0 success, 1 usage, 2 parse error, 3 constraint violation,
4 internal error (overflow or an unexpected failure).  All output is
deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor

from . import bounds, configio, counting, erdos
from .configio import ConfigDoc, ConfigParseError
from .constructions import (
    ConstraintError,
    CylinderSet,
    coprime_lattice,
    cylinder_set,
    elekes_grid,
    random_lines,
    random_planes,
    random_points,
    semi_isotropic_set,
    sphere_config,
)
from .counting import WeightedPlaneSet, WeightedPointSet
from .energy import rectangle_energy_paraboloid, rectangle_energy_sphere
from .field import Prime
from .geom import GeometryError, line_as_covector


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="fpgeom", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="seed for randomised steps")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
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
        return _emit_rows(run_experiment_file(
            args.spec, seed=args.seed, threads=args.threads), args)
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
    doc = ConfigDoc(p=p, dim=3)
    rng = random.Random(args.seed)
    name = args.name
    if name == "sphere":
        pts, planes = sphere_config(p)
        doc.dim = 3
        doc.points = [(q, w) for q, w in zip(pts.points, pts.weights)]
        plane_objs = list(planes.planes)
        if args.planes and args.planes < len(plane_objs):
            plane_objs = sorted(rng.sample(plane_objs, args.planes))
        doc.planes = [(pl, 1) for pl in plane_objs]
    elif name == "coprime":
        _need(args, "n")
        doc.dim = 2
        doc.points = [(q, 1) for q in coprime_lattice(args.n, p)]
    elif name == "elekes":
        _need(args, "n")
        grid = elekes_grid(args.n, p)
        doc.dim = 2
        doc.points = [(q, 1) for q in grid.points]
        doc.planes = [(pl, 1) for pl in grid.lines]
    elif name == "semi-isotropic":
        _need(args, "k")
        _need(args, "l")
        built = semi_isotropic_set(args.k, args.l, p)
        doc.dim = 3
        doc.points = [(q, 1) for q in built.points]
    elif name == "cylinder":
        _need(args, "t")
        _need(args, "k0")
        _need(args, "m")
        built: CylinderSet = cylinder_set(p, args.t, args.k0, args.m)
        doc.dim = 4
        doc.points = [(q, 1) for q in built.points]
        doc.lines = [(ln, 1) for ln in built.generators]
    elif name == "random-3d":
        doc.dim = 3
        doc.points = [(q, 1) for q in random_points(p, 3, args.points, rng)]
        doc.planes = [(pl, 1) for pl in random_planes(p, 3, args.planes, rng)]
        doc.lines = [(ln, 1) for ln in random_lines(p, 3, args.lines, rng)]
    else:  # random-2d
        doc.dim = 2
        doc.points = [(q, 1) for q in random_points(p, 2, args.points, rng)]
        doc.lines = [(ln, 1) for ln in random_lines(p, 2, args.lines, rng)]
    # merge duplicates the canonical way
    doc = configio.parse_config(configio.emit_config(doc))
    _write_out(configio.emit_config(doc), args)
    return 0


def _need(args, name: str) -> None:
    if getattr(args, name.replace("-", "_"), None) is None:
        raise UsageError(f"construct {args.name} needs --{name}")


# ---------------------------------------------------------------------------
# measurement subcommands

def _load(args) -> ConfigDoc:
    return configio.load_config(args.config)


def _cmd_count(args) -> list[bounds.BoundReport]:
    doc = _load(args)
    if doc.dim == 3:
        pts = WeightedPointSet.of(
            [q for q, _ in doc.points], doc.p,
            weights=[w for _, w in doc.points] or None, dim=3)
        planes = WeightedPlaneSet.of(
            [pl for pl, _ in doc.planes], doc.p,
            weights=[w for _, w in doc.planes] or None, dim=3)
        if args.restricted:
            rep = counting.count_restricted(pts, planes, doc.line_list())
            label = "point_plane_restricted"
        else:
            rep = counting.count_point_plane(pts, planes)
            label = "point_plane"
        return [_incidence_report(rep, doc.p, label, args.theorem)]
    if doc.dim == 2:
        covs = [line_as_covector(ln) for ln in doc.line_list()] + doc.plane_list()
        count = counting.count_point_line_2d(doc.point_list(), covs, doc.p)
        params = {"q": len(doc.points), "l": len(covs)}
        if args.theorem:
            res = bounds.rhs(args.theorem, doc.p, **_pick(params, args.theorem))
            return [bounds.BoundReport.build(res, doc.p, params, count)]
        return [_plain_report("point_line", doc.p, params, count)]
    raise UsageError("count supports dim 2 and 3 configurations")


def _incidence_report(rep, p, label, theorem) -> bounds.BoundReport:
    params = {
        "q": rep.distinct_points,
        "pi": rep.distinct_planes,
        "k": rep.k,
        "weighted": rep.weighted,
    }
    if rep.k_star is not None:
        params["kstar"] = rep.k_star
    if theorem:
        t = theorem.upper()
        if t == "T1C":
            w0 = max(rep.max_point_weight, rep.max_plane_weight, 1)
            count = rep.weighted
            res = bounds.rhs(t, p, W=rep.point_weight, w0=w0, k=rep.k)
            params["weights_balanced"] = int(rep.point_weight == rep.plane_weight)
        else:
            k = rep.k_star if (t == "T1B" and rep.k_star is not None) else rep.k
            count = rep.pairs
            res = bounds.rhs(t, p, q=rep.distinct_points, pi=rep.distinct_planes, k=k)
        extra = dict(rep.flags)
        return bounds.BoundReport.build(res, p, params, count, extra_flags=extra)
    return _plain_report(label, p, params, rep.pairs, flags=rep.flags)


def _plain_report(label, p, params, count, flags=None) -> bounds.BoundReport:
    return bounds.BoundReport(
        theorem=label, p=int(p), params=dict(params), count=count,
        rhs=float("nan"), ratio=None, flags=dict(flags or {}))


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


def _cmd_distances(args) -> list[bounds.BoundReport]:
    doc = _load(args)
    rep = erdos.distance_set(doc.point_list(), doc.p, include_zero=not args.exclude_zero)
    params = {"s": len(doc.points), "values": len(rep.values)}
    flags = {}
    if rep.in_semi_isotropic_plane is not None:
        flags["outside_semi_isotropic_plane"] = not rep.in_semi_isotropic_plane
    count = rep.max_pinned
    if args.theorem:
        res = bounds.rhs(args.theorem, doc.p, s=len(doc.points))
        return [bounds.BoundReport.build(res, doc.p, params, count, extra_flags=flags)]
    return [_plain_report("pinned_distances", doc.p, params, count, flags)]


def _cmd_energy(args) -> list[bounds.BoundReport]:
    doc = _load(args)
    pts = doc.point_list()
    if args.quadric == "paraboloid":
        rep = rectangle_energy_paraboloid(pts, doc.p)
    else:
        rep = rectangle_energy_sphere(pts, doc.p, args.t)
    params = {
        "a": rep.size, "k0": rep.k0, "rectangles": rep.rectangles,
        "ordinary": rep.ordinary, "semi_degenerate": rep.semi_degenerate,
        "degenerate": rep.degenerate,
    }
    if args.theorem:
        res = bounds.rhs(args.theorem, doc.p, a=rep.size, k0=rep.k0)
        return [bounds.BoundReport.build(res, doc.p, params, rep.energy)]
    return [_plain_report(f"energy_{args.quadric}", doc.p, params, rep.energy)]


def _cmd_forms(args) -> list[bounds.BoundReport]:
    doc = _load(args)
    if doc.dim != 2:
        raise UsageError("forms works on 2-dimensional configurations")
    matrix = args.matrix or (0, 1, -1, 0)
    form = erdos.FormSpec(doc.p, ((matrix[0], matrix[1]), (matrix[2], matrix[3])))
    pts = doc.point_list()
    if args.solutions:
        count = erdos.form_solution_count(pts, pts, form)
        label = "form_solutions"
    else:
        count = len(erdos.form_values(pts, form))
        label = "form_values"
    params = {"s": len(pts)}
    if args.theorem:
        res = bounds.rhs(args.theorem, doc.p, s=len(pts))
        return [bounds.BoundReport.build(res, doc.p, params, count)]
    return [_plain_report(label, doc.p, params, count)]


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    doc = _load(args)
    checks: list[tuple[str, bool]] = []
    text1 = configio.emit_config(doc)
    text2 = configio.emit_config(configio.parse_config(text1))
    checks.append(("round-trip emission is stable", text1 == text2))
    if doc.dim == 3 and doc.planes:
        pts = WeightedPointSet.of(
            [q for q, _ in doc.points], doc.p,
            weights=[w for _, w in doc.points] or None, dim=3)
        planes = WeightedPlaneSet.of(
            [pl for pl, _ in doc.planes], doc.p,
            weights=[w for _, w in doc.planes] or None, dim=3)
        rep = counting.count_point_plane(pts, planes)
        pairs, weighted = counting.count_point_plane_naive(pts, planes)
        checks.append(("vectorised count matches the naive loop",
                       (rep.pairs, rep.weighted) == (pairs, weighted)))
        if doc.lines:
            rrep = counting.count_restricted(pts, planes, doc.line_list())
            rpairs, rweighted = counting.count_point_plane_naive(
                pts, planes, tuple(doc.line_list()))
            checks.append(("restricted count matches the naive loop",
                           (rrep.pairs, rrep.weighted) == (rpairs, rweighted)))
    if doc.dim == 2 and (doc.lines or doc.planes):
        covs = [line_as_covector(ln) for ln in doc.line_list()] + doc.plane_list()
        fast = counting.count_point_line_2d(doc.point_list(), covs, doc.p)
        slow = counting.count_point_line_2d_naive(doc.point_list(), covs, doc.p)
        checks.append(("planar count matches the naive loop", fast == slow))
    if args.quadric:
        from .quadrics import Paraboloid, Sphere

        quad = (Paraboloid(doc.p, doc.dim) if args.quadric == "paraboloid"
                else Sphere(doc.p, doc.dim, args.t))
        ok = all(quad.contains(q) for q in doc.point_list())
        checks.append((f"all points lie on the {args.quadric}", ok))
    lines = [f"{'ok' if ok else 'FAIL'}: {name}" for name, ok in checks]
    _write_out("\n".join(lines) + "\n", args)
    return 0 if all(ok for _, ok in checks) else 3


# ---------------------------------------------------------------------------
# sweep / run_experiment

_CONSTRUCTION_THEOREMS = {
    "sphere": ("T1", ("T1", "T1B")),
    "coprime": ("T41", ("T41",)),
    "elekes": ("T2", ("T2", "T3", "VINH")),
    "semi_isotropic": ("T42", ("T42",)),
    "cylinder": ("T56", ("T56",)),
    "random_3d": ("T1", ("T1", "T1B")),
    "random_2d": ("VINH", ("VINH", "T3")),
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
        if cname not in _CONSTRUCTION_THEOREMS:
            raise ConfigParseError(
                f"unknown construction {construction!r}", 0)
        default, allowed = _CONSTRUCTION_THEOREMS[cname]
        for theorem in theorems:
            tid = (theorem or default).upper()
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


def _run_cell(cell: dict, seed: int) -> bounds.BoundReport:
    p = Prime(cell["p"])
    tid = cell["theorem"]
    name = cell["construction"]
    if name == "sphere":
        pts, planes = sphere_config(p)
        rep = counting.count_point_plane(pts, planes)
        res = bounds.rhs(tid, p, q=rep.distinct_points, pi=rep.distinct_planes, k=rep.k)
        params = {"q": rep.distinct_points, "pi": rep.distinct_planes, "k": rep.k}
        return bounds.BoundReport.build(res, p, params, rep.pairs, extra_flags=rep.flags)
    if name == "coprime":
        n = _cell_need(cell, "N", "n")
        pts = coprime_lattice(n, p)
        count = len(erdos.form_values(pts, erdos.dot_form(p)))
        res = bounds.rhs(tid, p, s=len(pts))
        return bounds.BoundReport.build(res, p, {"N": n, "s": len(pts)}, count)
    if name == "elekes":
        n = _cell_need(cell, "n")
        grid = elekes_grid(n, p)
        count = counting.count_point_line_2d(grid.points, grid.lines, p)
        a, b, nl = n, 2 * n * n, len(grid.lines)
        if tid == "T2":
            res = bounds.rhs(tid, p, a=a, b=b, l=nl)
        else:
            res = bounds.rhs(tid, p, q=len(grid.points), l=nl)
        params = {"n": n, "q": len(grid.points), "l": nl}
        return bounds.BoundReport.build(res, p, params, count)
    if name == "semi_isotropic":
        k, l = _cell_need(cell, "k"), _cell_need(cell, "l")
        built = semi_isotropic_set(k, l, p, seed=cell.get("seed", seed))
        rep = erdos.distance_set(built.points, p)
        res = bounds.rhs(tid, p, s=len(built.points))
        params = {"k": k, "l": l, "s": len(built.points)}
        return bounds.BoundReport.build(res, p, params, rep.max_pinned)
    if name == "cylinder":
        t, k0, m = _cell_need(cell, "t"), _cell_need(cell, "k0"), _cell_need(cell, "m")
        built = cylinder_set(p, t, k0, m)
        rep = rectangle_energy_sphere(built.points, p, t)
        res = bounds.rhs(tid, p, a=rep.size, k0=rep.k0)
        params = {"t": t, "k0": rep.k0, "m": m, "a": rep.size}
        return bounds.BoundReport.build(res, p, params, rep.energy)
    if name == "random_3d":
        rng = random.Random(repr((cell.get("seed", seed), int(p), "3d")))
        pts = WeightedPointSet.of(
            random_points(p, 3, cell.get("points", 32), rng), p, dim=3)
        planes = WeightedPlaneSet.of(
            random_planes(p, 3, cell.get("planes", 32), rng), p, dim=3)
        rep = counting.count_point_plane(pts, planes)
        res = bounds.rhs(tid, p, q=rep.distinct_points, pi=rep.distinct_planes, k=rep.k)
        params = {"q": rep.distinct_points, "pi": rep.distinct_planes, "k": rep.k}
        return bounds.BoundReport.build(res, p, params, rep.pairs, extra_flags=rep.flags)
    if name == "random_2d":
        rng = random.Random(repr((cell.get("seed", seed), int(p), "2d")))
        pts = random_points(p, 2, cell.get("points", 32), rng)
        lines = random_lines(p, 2, cell.get("lines", 32), rng)
        covs = [line_as_covector(ln) for ln in lines]
        count = counting.count_point_line_2d(pts, covs, p)
        q, nl = len(set(pts)), len(set(covs))
        res = bounds.rhs(tid, p, q=q, l=nl)
        return bounds.BoundReport.build(res, p, {"q": q, "l": nl}, count)
    raise UsageError(f"unknown construction {name}")


def _cell_need(cell: dict, *names: str) -> int:
    for n in names:
        if n in cell:
            return cell[n]
    raise ConfigParseError(f"sweep cell needs a value for {names[0]!r}", 0)


def run_experiment(spec_text: str, seed: int = 0, threads: int = 1) -> list[bounds.BoundReport]:
    """Execute construct -> count -> rhs for every cell of a sweep spec.

    Cells are independent and may run concurrently; the output order is the
    deterministic spec expansion order either way.
    """
    cells = parse_sweep_spec(spec_text)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda c: _run_cell(c, seed), cells))
    return [_run_cell(cell, seed) for cell in cells]


def run_experiment_file(path, seed: int = 0, threads: int = 1) -> list[bounds.BoundReport]:
    with open(path, "r", encoding="utf-8") as fh:
        return run_experiment(fh.read(), seed=seed, threads=threads)


if __name__ == "__main__":
    sys.exit(main())
