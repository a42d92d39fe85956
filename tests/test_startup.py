"""Start-up: the command line parses without numpy, each subcommand loads
only the layers it reads, numpy's BLAS runs on one thread unless the user
says otherwise, no subcommand the benchmark runs loads `numpy.ma`, and the
benchmark's tracer still finds every module it patches.

Each check runs in a fresh interpreter, since this process has long loaded
every layer.  A layer that has not run is still a lazy module: reading any
of its attributes would run it, so the checks look only at its type.  The
in-process CLI tests have set OPENBLAS_NUM_THREADS here, so it is removed
from each child's environment unless a check sets it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TINY = "p=5 dim=3\n[points]\n0 0 0\n1 0 0\n0 1 0\n1 1 1\n[planes]\n0 0 1 0\n1 0 0 1\n"

# the fpgeom submodules that have run, read without running the others
RAN = ("sorted(n[7:] for n, m in sys.modules.items()"
       " if n.startswith('fpgeom.') and type(m) is types.ModuleType)")


def _python(*args: str, cwd=ROOT, env=None) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    inherited = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env={**inherited, "PYTHONPATH": path, **(env or {})}, timeout=120)


def _last_json(code: str, *args: str, env=None):
    """The JSON value that `code` prints last, run in a fresh interpreter."""
    run = _python("-c", code, *args, env=env)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_import_fpgeom_loads_no_numpy_and_runs_no_layer():
    ran, numpy = _last_json(f"import json, sys, types, fpgeom; "
                            f"print(json.dumps([{RAN}, 'numpy' in sys.modules]))")
    assert (ran, numpy) == ([], False)


def test_help_and_usage_errors_load_no_numpy():
    code = """
import json, sys
from fpgeom.cli import main

def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's --help
        return exc.code

codes = [exit_code(argv) for argv in (["--help"], ["count", "--help"], ["count"])]
print(json.dumps([codes, "numpy" in sys.modules]))
"""
    assert _last_json(code) == [[0, 0, 1], False]


@pytest.mark.parametrize("config, expected", [("tiny.cfg", 0), ("missing.cfg", 1)])
def test_count_runs_only_the_layers_it_reads(tmp_path, config, expected):
    (tmp_path / "tiny.cfg").write_text(TINY, encoding="utf-8")
    code = f"""
import json, sys, types
from fpgeom.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, {RAN}]))
"""
    exit_code, ran = _last_json(code, "count", str(tmp_path / config), "--theorem", "T1")
    assert exit_code == expected
    assert "counting" in ran and "configio" in ran
    assert not {"energy", "erdos", "constructions"} & set(ran)


# a count of TINY, then its exit code, its BLAS thread setting and, on Linux,
# the number of OS threads the process holds
COUNT_THREADS = """
import json, os, sys
from fpgeom.cli import main
code = main(sys.argv[1:])
threads = None
if sys.platform.startswith("linux"):
    with open("/proc/self/status") as fh:
        threads = int(next(line.split()[1] for line in fh if line.startswith("Threads:")))
print(json.dumps([code, os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


def _count_threads(tmp_path, env=None):
    (tmp_path / "tiny.cfg").write_text(TINY, encoding="utf-8")
    return _last_json(COUNT_THREADS, "count", str(tmp_path / "tiny.cfg"), env=env)


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_count_runs_blas_single_threaded_unless_the_user_set_it(tmp_path, preset, expected):
    env = None if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    code, value, _ = _count_threads(tmp_path, env)
    assert (code, value) == (0, expected)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_count_ends_with_one_os_thread(tmp_path):
    assert _count_threads(tmp_path)[2] == 1


PARABOLOID = "p=5 dim=3\n[points]\n" + "".join(
    f"{x} {y} {(x * x + y * y) % 5}\n" for x in range(5) for y in range(5))


# each kind of invocation the benchmark's workloads run, on a small input
@pytest.mark.parametrize("text, argv", [
    # the x axis carries two points and lies in the plane z = 0: a forbidden pair
    (TINY + "[lines]\n0 0 0 1 0 0\n", ["count", "--restricted", "--theorem", "T1B"]),
    ("p=7 dim=2\n[points]\n0 0\n0 3\n1 0\n1 3\n[lines]\n0 0 1 1\n", ["count", "--theorem", "T2"]),
    ("construction=sphere\ntheorem=T1\np=11,13\n", ["sweep"]),
    (PARABOLOID, ["energy", "--quadric", "paraboloid", "--theorem", "T53"]),
    (TINY, ["distances", "--theorem", "T42"]),
], ids=["restricted", "2d", "sphere-sweep", "paraboloid-energy", "distances"])
def test_benchmarked_subcommands_load_no_numpy_ma(tmp_path, text, argv):
    (tmp_path / "input").write_text(text, encoding="utf-8")
    code = """
import json, sys
from fpgeom.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, "numpy.ma" in sys.modules]))
"""
    args = [argv[0], str(tmp_path / "input"), *argv[1:]]
    assert _last_json(code, *args) == [0, False]


def test_the_tracer_replays_a_count_with_its_spans(tmp_path):
    (tmp_path / "tiny.cfg").write_text(TINY, encoding="utf-8")
    spans = tmp_path / "spans.json"
    run = _python(str(PERFBENCH / "tracer.py"), str(spans), "count", "tiny.cfg",
                  "--theorem", "T1", cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    names = {span[0] for span in json.loads(spans.read_text())}
    assert {"cli.main", "configio.load_config", "counting.count_point_plane"} <= names


def test_importing_the_cli_registers_every_module_the_tracer_patches():
    code = f"""
import json, sys
import fpgeom.cli
sys.path.insert(0, {str(PERFBENCH)!r})
import tracer
print(json.dumps(sorted({{m for m, _, _ in tracer.TARGETS}}
                        - {{n[7:] for n in sys.modules if n.startswith("fpgeom.")}})))
"""
    assert _last_json(code) == []
