"""The benchmark's workloads build against the package as it stands.

`perfbench/workloads.py` imports library names and calls the naive loops
in fixed forms while it writes and checks its inputs; a change that drops
one of them turns every benchmark run into a setup error.  Each workload is
built here once, at seed 1, and must report no setup error.  Nothing under
`perfbench/` is changed.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["sphere_sweep", "paraboloid_energy", "random_mixed"])
def test_workload_builds_without_setup_error(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache files under perfbench/
    workloads = importlib.import_module("workloads")
    built = workloads.build(name, 1, tmp_path)
    assert built.setup_error is None
    assert built.invocations
