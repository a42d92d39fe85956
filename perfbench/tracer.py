"""Replay one fpgeom CLI invocation in-process, with spans around public functions.

    python3 perfbench/tracer.py SPANS.json ARG...

runs `fpgeom.cli.main([ARG...])` and writes the spans it recorded to
SPANS.json as a list of [name, start, end, parent, counts], where parent is
the index of the enclosing span or -1.  The exit code is main's.

Each target is rebound in every `fpgeom` module namespace that holds it, so
calls between modules and inside a module are caught as well: `cli` imports
`sphere_config` and `rectangle_energy_paraboloid` by name, `constructions`
imports `sphere_points` and `affine_planes` by name.  Only public names are
traced, so the spans survive refactors of private helpers; a target that no
longer exists is skipped and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _incidence_bytes(args, kwargs, result):
    # the dense int64 |Q| x |Pi| matrix, computed from the sizes
    points, planes = _arg(args, kwargs, 0, "points"), _arg(args, kwargs, 1, "planes")
    return {"bytes": len(points) * len(planes) * 8}


def _incidences(args, kwargs, result):
    return {"point_pairs": _pairs(len(_arg(args, kwargs, 0, "points"))),
            "pairs": result.pairs}


def _planar(args, kwargs, result):
    points, lines = _arg(args, kwargs, 0, "points"), _arg(args, kwargs, 1, "lines")
    return {"bytes": len(points) * len(lines) * 8, "pairs": result}


def _rectangles(args, kwargs, result):
    return {"rectangles": result.rectangles}


def _distance_pairs(args, kwargs, result):
    return {"point_pairs": _pairs(len(_arg(args, kwargs, 0, "points")))}


# (module, public name, counts taken from the call)
TARGETS = (
    ("cli", "main", None),
    ("configio", "load_config", None),
    ("configio", "rows_to_csv", None),
    ("bounds", "rhs", None),
    ("constructions", "sphere_config", None),
    ("quadrics", "sphere_points", None),
    ("geom", "affine_planes", None),
    ("counting", "WeightedPointSet.of", None),
    ("counting", "WeightedPlaneSet.of", None),
    ("counting", "incidence_matrix", _incidence_bytes),
    ("counting", "count_point_plane", _incidences),
    ("counting", "count_restricted", _incidences),
    ("counting", "count_point_line_2d", _planar),
    ("energy", "rectangle_energy_paraboloid", _rectangles),
    ("energy", "max_on_isotropic_line", None),
    ("erdos", "distance_set", _distance_pairs),
)

# Every per-layer metric a traced run reports; one not seen in a run reads 0.
LAYER_METRICS = tuple(
    f"{module}.{name}.{kind}" for module, name, _ in TARGETS for kind in ("s", "self_s", "calls")
) + (
    "counting.incidence_matrix.bytes",
    "counting.count_point_line_2d.bytes",
    "counting.point_pairs",
    "counting.pairs",
    "energy.rectangles",
    "erdos.point_pairs",
    "trace.overhead_s",
)


class SpanRecorder:
    """Spans kept in memory as [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, {}]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        return traced


def install(recorder: SpanRecorder) -> None:
    importlib.import_module("fpgeom.cli")
    modules = [m for n, m in sys.modules.items() if n == "fpgeom" or n.startswith("fpgeom.")]
    for module, qualname, counts in TARGETS:
        owner = sys.modules[f"fpgeom.{module}"]
        name = f"{module}.{qualname}"
        if "." in qualname:  # a classmethod; the class object is shared
            cls_name, method = qualname.split(".")
            cls = getattr(owner, cls_name, None)
            if cls is None or method not in vars(cls):
                print(f"tracer: {name} not found, skipped", file=sys.stderr)
                continue
            fn = vars(cls)[method].__func__
            setattr(cls, method, classmethod(recorder.wrap(name, fn, counts)))
            continue
        fn = getattr(owner, qualname, None)
        if fn is None:
            print(f"tracer: {name} not found, skipped", file=sys.stderr)
            continue
        wrapped = recorder.wrap(name, fn, counts)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, wrapped)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    install(recorder)
    code = sys.modules["fpgeom.cli"].main(argv)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
