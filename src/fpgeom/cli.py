"""Command-line experiment runner.

Subcommands: construct, count, distances, energy, forms, verify, sweep.
Global flags: --seed, --format {csv,json}, --out, --strict.
Exit codes: 0 success, 1 usage, 2 parse error, 3 constraint violation,
4 internal error (overflow or an unexpected failure).  All output is
deterministic for a fixed seed; `--format json verify` gives one
{check, ok} row per check.  Parsing the command line loads no numpy: each
subcommand loads only the layers it reads.  Unless OPENBLAS_NUM_THREADS is
set, `main` loads numpy with a single-threaded BLAS: every kernel is int64
arithmetic, which calls no BLAS routine, and starting OpenBLAS's thread pool
would cost each process about 70 ms.
"""

from __future__ import annotations

import argparse
import itertools
import os
import random
import sys

from . import bounds, configio, constructions, counting, energy, erdos, field, geom, quadrics


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


# construct's flags, each a key some builder reads: flag -> (default, help)
_CONSTRUCT_FLAGS = {
    "n": (None, "grid size (elekes) or lattice bound (coprime)"),
    "k": (None, "parallel line count (semi-isotropic)"),
    "l": (None, "points per line (semi-isotropic)"),
    "t": (None, "sphere radius-square (cylinder)"),
    "k0": (None, "points per generator (cylinder)"),
    "m": (None, "generator count (cylinder)"),
    "points": (0, "random point count"),
    "planes": (0, "random plane count; for 'sphere', sample size of the plane family"),
    "lines": (0, "random line count"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="fpgeom", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="seed for randomised steps")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    parser.add_argument("--strict", action="store_true",
                        help="exit 3 when any reported hypothesis flag is violated")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="emit a configuration file")
    c.add_argument("name", choices=[name.replace("_", "-") for name in _CONSTRUCTIONS])
    c.add_argument("--p", type=int, required=True)
    for flag, (default, text) in _CONSTRUCT_FLAGS.items():
        c.add_argument(f"--{flag}", type=int, default=default, help=text)

    subcommands = {name: flags for name, (_, flags) in _MEASUREMENTS.items()}
    subcommands["verify"] = [("--quadric", {"choices": ("paraboloid", "sphere")}),
                             ("--t", {"type": int})]
    for name, flags in subcommands.items():
        sp = sub.add_parser(name)
        sp.add_argument("config", help="configuration file path")
        sp.add_argument("--theorem", help="bound id for the rhs/ratio columns")
        for flag, kwargs in flags:
            sp.add_argument(flag, **kwargs)

    sw = sub.add_parser("sweep", help="run an experiment specification")
    sw.add_argument("spec", help="experiment spec path")
    return parser


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
    except OverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # before the layers' errors, whose lookup would load them
        print(f"cannot read or write: {exc}", file=sys.stderr)
        return 1
    except configio.ConfigParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except constructions.ConstraintError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return 3
    except (geom.GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # the CLI boundary: one line, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def _dispatch(args) -> int:
    if args.command in ("energy", "verify") and args.t is not None and args.quadric != "sphere":
        raise UsageError(f"{args.command} reads --t only with --quadric sphere")
    if args.command == "construct":
        return _cmd_construct(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "sweep":
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = fh.read()
        return _emit_rows(run_experiment(spec, seed=args.seed), args)
    measure = _MEASUREMENTS[args.command][0]
    doc = configio.load_config(args.config)
    return _emit_rows([measure(doc, args.theorem, vars(args).get)], args)


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
    if args.strict and not all(ok for r in reports for ok in r.flags.values()):
        print("strict mode: hypothesis flag violated", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# construct

def _cmd_construct(args) -> int:
    read = set()

    def get(key, default=None):
        if key == "seed":
            return None
        flag = key.lower()  # the flags are lowercase: --n sets N
        read.add(flag)
        value = getattr(args, flag)
        if value is None:
            raise UsageError(f"construct {args.name} needs --{flag}")
        return value

    build = _CONSTRUCTIONS[args.name.replace("-", "_")][2]
    doc = build(get, field.Prime(args.p), random.Random(args.seed))
    for flag, (default, _) in _CONSTRUCT_FLAGS.items():
        if flag not in read and getattr(args, flag) != default:
            raise UsageError(f"construct {args.name} does not read --{flag}")
    _write_out(configio.emit_config(doc), args)
    return 0


# ---------------------------------------------------------------------------
# measurements, each shared by its subcommand and the sweep cells of its kind:
# a document, a theorem and `opt`, which reads an option by its argparse dest,
# in; one report out.  `cell` holds a sweep cell's required keys, which its
# row shows in place of the subcommand's details.

def _row(p, label, theorem, params, count, known, flags=None) -> bounds.BoundReport:
    """The count against the theorem's rhs, its parameters taken from the
    quantities `known`, when a theorem that bounds the `label` quantity is
    given; else a plain row."""
    res = bounds.RhsResult(label, float("nan"), {})
    if theorem:
        names = bounds.parameters(theorem)
        missing = [name for name in names if name not in known]
        if missing:
            raise UsageError(f"{theorem.upper()} needs parameters {missing} not derivable here")
        if label not in bounds.quantities(theorem):
            raise UsageError(f"{theorem.upper()} does not bound {label}")
        res = bounds.rhs(theorem, p, **{name: known[name] for name in names})
    return bounds.BoundReport.build(res, int(p), params, count, extra_flags=flags)


def _count(doc, theorem, opt, cell=None) -> bounds.BoundReport:
    """Point-plane incidences in dimension 3 (restricted along the [lines]
    section on request; T1C weighs them), point-line incidences in the plane,
    where points forming a grid A x B give T2 its a and b."""
    if doc.dim == 2:
        if opt("restricted"):
            raise UsageError("count --restricted works on 3-dimensional configurations")
        lines = _planar_lines(doc)
        count = counting.weighted_incidences(doc.points, lines)[0]
        params = {"q": len(doc.points), "l": len(lines)}
        # T2's grid A x B: the distinct x and y values, when their product is q
        a, b = (len(counting._runs([col], len(col))[1]) - 1 for col in doc.points.rows.T)
        grid = {"a": a, "b": b} if a * b == len(doc.points) else {}
        return _row(doc.p, "point_line", theorem, {**params, **(cell or {})}, count,
                    {**params, **grid})
    if doc.dim != 3:
        raise UsageError("count supports dim 2 and 3 configurations")
    if opt("restricted"):
        rep = counting.count_restricted(doc.points, doc.planes, doc.lines.rows)
        label = "point_plane_restricted"
    else:
        rep, label = counting.count_point_plane(doc.points, doc.planes), "point_plane"
    points, planes, p = doc.points, doc.planes, doc.p
    q, W, w = len(points), points.total_weight(), points.max_weight()
    params = {"q": q, "pi": len(planes), "k": rep.k}
    params.update({"weighted": rep.weighted} if cell is None else cell)
    if rep.k_star is not None:
        params["kstar"] = rep.k_star
    t = (theorem or "").upper()
    known = {"q": q, "pi": len(planes), "W": W, "w0": max(w, planes.max_weight(), 1),
             "k": rep.k_star if (t == "T1B" and rep.k_star is not None) else rep.k}
    if t == "T1C":
        params["weights_balanced"] = int(W == planes.total_weight())
    count = rep.weighted if t == "T1C" else rep.pairs
    flags = {"points_lt_p_squared": q < p * p, "points_le_planes": q <= len(planes),
             "weight_ratio_lt_p_squared": w == 0 or W < p * p * w}
    return _row(p, label, theorem, params, count, known, flags)


def _planar_lines(doc: configio.ConfigDoc) -> counting.WeightedPlaneSet:
    """A planar document's lines and planes as one set of covectors (a, b, c)."""
    import numpy as np

    return counting.WeightedPlaneSet.of(np.vstack([doc.lines.covectors(), doc.planes.rows]),
                                        doc.p, dim=2)


def _distances(doc, theorem, opt, cell=None) -> bounds.BoundReport:
    """The largest pinned distance count."""
    rep = erdos.distance_set(doc.points.rows, doc.p)
    params = {"s": len(doc.points), **({"values": len(rep.values)} if cell is None else cell)}
    flags = {}
    if rep.in_semi_isotropic_plane is not None:
        flags["outside_semi_isotropic_plane"] = not rep.in_semi_isotropic_plane
    # each pinned count sees its point's zero distance to itself
    pinned = int(rep.pinned_counts.max()) - bool(opt("exclude_zero"))
    return _row(doc.p, "pinned_distances", theorem, params, pinned,
                {"s": len(doc.points)}, flags)


def _energy(doc, theorem, opt, cell=None) -> bounds.BoundReport:
    """Rectangle energy on the paraboloid or on the sphere of radius-square t."""
    quadric = opt("quadric")
    if quadric == "paraboloid":
        rep = energy.rectangle_energy_paraboloid(doc.points.rows, doc.p)
    else:
        t = opt("t")
        rep = energy.rectangle_energy_sphere(doc.points.rows, doc.p, 1 if t is None else t)
    known = {"a": rep.size, "k0": rep.k0}
    # the measured k0 replaces a cylinder cell's key of that name
    params = {**(cell or {}), **known}
    if cell is None:
        params.update(rectangles=rep.rectangles, ordinary=rep.ordinary,
                      semi_degenerate=rep.semi_degenerate, degenerate=rep.degenerate)
    return _row(doc.p, f"energy_{quadric}", theorem, params, rep.energy, known)


def _forms(doc, theorem, opt, cell=None) -> bounds.BoundReport:
    """Distinct values of a bilinear form (the wedge unless a matrix is
    given), or its value collisions."""
    if doc.dim != 2:
        raise UsageError("forms works on 2-dimensional configurations")
    m = opt("matrix") or (0, 1, -1, 0)
    form = erdos.FormSpec(doc.p, ((m[0], m[1]), (m[2], m[3])))
    points = doc.points.rows
    if opt("solutions"):
        count, label = erdos.form_solution_count(points, points, form), "form_solutions"
    else:
        count, label = len(erdos.form_values(points, form)), "form_values"
    return _row(doc.p, label, theorem, {"s": len(points), **(cell or {})}, count,
                {"s": len(points)})


# subcommand -> (its measurement, its own flags as (flag, argparse kwargs))
_MEASUREMENTS = {
    "count": (_count, [("--restricted", {
        "action": "store_true", "help": "discount incidences along the [lines] section"})]),
    "distances": (_distances, [("--exclude-zero", {"action": "store_true"})]),
    "energy": (_energy, [("--quadric", {"choices": ("paraboloid", "sphere"), "required": True}),
                         ("--t", {"type": int})]),
    "forms": (_forms, [
        ("--matrix", {"type": int, "nargs": 4, "metavar": ("M00", "M01", "M10", "M11")}),
        ("--solutions", {"action": "store_true",
                         "help": "count value collisions instead of distinct values"})]),
}


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
                doc.points, doc.planes, doc.lines.rows.tolist())
            checks.append(("restricted count matches the naive loop",
                           (rrep.pairs, rrep.weighted) == (rpairs, rweighted)))
    if doc.dim == 2 and (len(doc.lines) or len(doc.planes)):
        # the naive loop turns the line rows into covectors itself, so it
        # checks the covector step too
        fast = counting.weighted_incidences(doc.points, _planar_lines(doc))[0]
        slow = counting.count_point_line_2d_naive(
            doc.points.rows.tolist(), doc.lines.rows.tolist() + doc.planes.rows.tolist(), doc.p)
        checks.append(("planar count matches the naive loop", fast == slow))
    if args.quadric:
        t = 1 if args.quadric == "sphere" and args.t is None else args.t  # None: paraboloid
        ok = not quadrics.off_quadric(doc.points.rows, doc.p, t).any()
        checks.append((f"all points lie on the {args.quadric}", ok))
    if args.format == "json":
        text = configio.rows_to_json([{"check": name, "ok": ok} for name, ok in checks])
    else:
        text = "".join(f"{'ok' if ok else 'FAIL'}: {name}\n" for name, ok in checks)
    _write_out(text, args)
    return 0 if all(ok for _, ok in checks) else 3


# ---------------------------------------------------------------------------
# constructions: a builder reads its keys through `get`, draws from `rng` and
# returns the document that `construct` emits and a sweep cell measures.
#
# Seeding stays with the callers, because the golden bytes pin it: construct
# draws from Random(--seed) and gets seed None, so a semi-isotropic set keeps
# its offsets 1..l; a sweep cell draws from Random(repr((seed, p, tag))), tag
# the last word of the construction's name ("3d", "2d"), and gets its seed.

def _sphere(get, p, rng) -> configio.ConfigDoc:
    return configio.ConfigDoc(p, 3, *constructions.sphere_config(p, get("planes"), rng),
                              counting.WeightedLineSet.of((), p, dim=3))


def _elekes(get, p, rng) -> configio.ConfigDoc:
    grid = constructions.elekes_grid(get("n"), p)
    return configio.ConfigDoc.of(p, 2, grid.points, grid.lines)


def _cylinder(get, p, rng) -> configio.ConfigDoc:
    built = constructions.cylinder_set(p, get("t"), get("k0"), get("m"))
    return configio.ConfigDoc.of(p, 4, built.points, (), built.generators)


def _random_3d(get, p, rng) -> configio.ConfigDoc:
    return configio.ConfigDoc.of(p, 3, constructions.random_points(p, 3, get("points"), rng),
                                 constructions.random_planes(p, 3, get("planes"), rng),
                                 constructions.random_lines(p, 3, get("lines", 0), rng))


def _random_2d(get, p, rng) -> configio.ConfigDoc:
    return configio.ConfigDoc.of(p, 2, constructions.random_points(p, 2, get("points"), rng),
                                 (), constructions.random_lines(p, 2, get("lines"), rng))


# construction -> (the theorems it pairs with, the first the default; the sweep
# keys it reads, each with its default, None when required; its builder; the
# subcommand that measures it and the options it fixes there)
_CONSTRUCTIONS = {
    "sphere": (("T1", "T1B"), {"planes": 0}, _sphere, "count", {}),
    "coprime": (("T41",), {"N": None},
                lambda get, p, rng: configio.ConfigDoc.of(
                    p, 2, constructions.coprime_lattice(get("N"), p)),
                "forms", {"matrix": (1, 0, 0, 1)}),
    "elekes": (("T2", "T3", "VINH"), {"n": None}, _elekes, "count", {}),
    "semi_isotropic": (("T42",), {"k": None, "l": None},
                       lambda get, p, rng: configio.ConfigDoc.of(
                           p, 3, constructions.semi_isotropic_set(
                               get("k"), get("l"), p, seed=get("seed")).points),
                       "distances", {}),
    "cylinder": (("T56",), {"t": None, "k0": None, "m": None}, _cylinder,
                 "energy", {"quadric": "sphere"}),
    "random_3d": (("T1", "T1B"), {"points": 32, "planes": 32}, _random_3d, "count", {}),
    "random_2d": (("VINH", "T3"), {"points": 32, "lines": 32}, _random_2d, "count", {}),
}


_ALIASES = {"N": "n"}  # a spec may write coprime's N as n, as `construct coprime --n` does
_READS = {c: {*row[1], *map(_ALIASES.get, row[1])} - {None} for c, row in _CONSTRUCTIONS.items()}
# keys every spec may hold; any other key must be read by one of its constructions
_SPEC_KEYS = {"construction", "theorem", "p", "seed"}
_SWEEP_KEYS = _SPEC_KEYS.union(*_READS.values())


def parse_sweep_spec(text: str) -> list[dict]:
    """Expand a key=value sweep file into one cell per parameter combination.

    An error names the line of the key it concerns; a spec without a
    'construction' or 'p' key is reported at line 0."""
    entries: dict[str, list] = {}
    at: dict[str, int] = {}  # the line of each key
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise configio.ConfigParseError(f"expected key=value, got {line!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SWEEP_KEYS:
            raise configio.ConfigParseError(f"unknown sweep key {key!r}", lineno)
        if key in entries:
            raise configio.ConfigParseError(f"duplicate key {key!r}", lineno)
        values = [v.strip() for v in value.split(",") if v.strip()]
        if not values:
            raise configio.ConfigParseError(f"empty value for {key!r}", lineno)
        if key not in ("construction", "theorem"):
            values = [_sweep_number(key, v, lineno) for v in values]
        entries[key], at[key] = values, lineno
    if "construction" not in entries:
        raise configio.ConfigParseError("sweep spec needs a 'construction' key", 0)
    if "p" not in entries:
        raise configio.ConfigParseError("sweep spec needs a 'p' key", 0)
    named = entries.pop("construction")
    theorems = entries.pop("theorem", [None])
    names = [c.replace("-", "_") for c in named]
    for construction, cname in zip(named, names):
        if cname not in _CONSTRUCTIONS:
            raise configio.ConfigParseError(f"unknown construction {construction!r}",
                                            at["construction"])
        for key, default in _CONSTRUCTIONS[cname][1].items():
            if default is None and key not in entries and _ALIASES.get(key) not in entries:
                raise configio.ConfigParseError(f"sweep cell needs a value for {key!r}",
                                                at["construction"])
    unused = sorted(set(entries) - _SPEC_KEYS.union(*(_READS[n] for n in names)))
    if unused:
        raise configio.ConfigParseError(f"no construction in this spec reads {unused[0]!r}",
                                        at[unused[0]])
    cells = []
    keys = sorted(entries)
    for construction, cname in zip(named, names):
        allowed = _CONSTRUCTIONS[cname][0]
        for theorem in theorems:
            tid = (theorem or allowed[0]).upper()
            if tid not in allowed:
                raise configio.ConfigParseError(
                    f"theorem {tid} does not pair with construction {construction}",
                    at["theorem"])
            for combo in itertools.product(*(entries[k] for k in keys)):
                cells.append({"construction": cname, "theorem": tid, **dict(zip(keys, combo))})
    return cells


def _sweep_number(key: str, value: str, lineno: int) -> int:
    """One value of a numeric sweep key, each p a Prime."""
    try:
        number = int(value)
    except ValueError:
        raise configio.ConfigParseError(f"non-integer value {value!r} for {key}", lineno) from None
    try:
        return field.Prime(number) if key == "p" else number
    except ValueError as exc:
        raise configio.ConfigParseError(str(exc), lineno) from None


def run_experiment(spec_text: str, seed: int = 0) -> list[bounds.BoundReport]:
    """Execute construct -> measure -> rhs for every cell of a sweep spec,
    in the spec's expansion order."""
    reports = []
    for cell in parse_sweep_spec(spec_text):
        name = cell["construction"]
        _, keys, build, command, options = _CONSTRUCTIONS[name]
        # parsing made sure every required key has a value and each p is prime
        values = {k: cell.get(k, cell.get(_ALIASES.get(k), d)) for k, d in keys.items()}
        values["seed"] = cell.get("seed", seed)
        shown = {key: values[key] for key, default in keys.items() if default is None}
        p = cell["p"]
        rng = random.Random(repr((values["seed"], int(p), name.rpartition("_")[2])))
        reports.append(_MEASUREMENTS[command][0](build(values.get, p, rng), cell["theorem"],
                                                 {**values, **options}.get, shown))
    return reports


if __name__ == "__main__":
    sys.exit(main())
