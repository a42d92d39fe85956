"""Golden CLI runs: exit code, stdout and stderr pinned byte for byte.

Every case runs three ways: as written, with `--format json` and with
`--strict`.  The expected values live in `cli_golden.json` beside this file;
after a deliberate output change, rewrite them with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of the JSON file.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import sys
from pathlib import Path

import pytest

from fpgeom.cli import main
from fpgeom.configio import ConfigDoc, emit_config
from fpgeom.constructions import (cylinder_set, elekes_grid, random_lines, random_planes,
                                  random_points, semi_isotropic_set)
from fpgeom.quadrics import paraboloid_lift, sphere_points

GOLDEN = Path(__file__).with_name("cli_golden.json")


def _config(p: int, dim: int, points=(), planes=(), lines=()) -> str:
    out = [f"p={p} dim={dim}"]
    for section, rows in (("points", points), ("planes", planes), ("lines", lines)):
        if len(rows):
            out.append(f"[{section}]")
            out.extend(" ".join(map(str, row)) if not isinstance(row, str) else row
                       for row in rows)
    return "\n".join(out) + "\n"


def _paraboloid(p: int, dim: int):
    return paraboloid_lift(itertools.product(range(p), repeat=dim - 1), p)


def _files() -> dict[str, str]:
    grid = elekes_grid(2, 23)
    # `fpgeom --seed 3 construct random-3d --p 11 --points 900 --planes 30
    # --lines 4`: 650 distinct points, past 4 * 11^2 == 484, so k and k* read
    # the census by direction
    rng = random.Random(3)
    random3d = ConfigDoc.of(11, 3, random_points(11, 3, 900, rng), random_planes(11, 3, 30, rng),
                            random_lines(11, 3, 4, rng))
    cylinder = cylinder_set(13, 1, 3, 4)
    # the full isotropic line (1, 2, 3) + s (1, 5, 0) of F_13^3 (1 + 5^2 == 0)
    # and 20 seeded points, lifted to the paraboloid of F_13^4
    line = [((1 + s) % 13, (2 + 5 * s) % 13, 3) for s in range(13)]
    free = random.Random(3).sample(list(itertools.product(range(13), repeat=3)), 20)
    return {
        # weighted 3-D set with a forbidden line carrying four points
        "w3.txt": _config(7, 3, points=["0 0 0 w=2", "1 0 0", "2 0 0", "3 0 0", "0 1 0",
                                        "1 1 1 w=3"],
                          planes=["0 0 1 0 w=2", "0 1 0 0", "1 1 1 3", "1 0 0 1"],
                          lines=["0 0 0 1 0 0"]),
        # a point weight of 10^400, past any float, for the overflow exit
        "floatw3.txt": _config(7, 3, points=[f"0 0 0 w={10**400}", "1 0 0"],
                               planes=["0 0 1 0", "1 0 0 1"]),
        # weights past 2^62, so the weighted count takes python ints; the
        # point and plane weights balance, with a forbidden line of three points
        "hugew3.txt": _config(7, 3, points=["0 0 0 w=99999999999999999999", "1 0 0", "2 0 0",
                                            "0 1 0", "1 1 1 w=3"],
                              planes=["0 0 1 0 w=99999999999999999999", "0 1 0 0 w=3",
                                      "1 1 1 3 w=2", "1 0 0 1"],
                              lines=["0 0 0 1 0 0"]),
        "plane2.txt": _config(11, 2, points=[(x, (2 * x + 1) % 11) for x in range(6)]
                              + [(0, 0), (3, 4), (5, 5)],
                              planes=["2 10 1", "1 1 0", "0 1 5"], lines=["0 0 1 1"]),
        # one line listed under [planes] (x + 6y = 0) and under [lines]
        "dup2.txt": _config(7, 2, points=[(0, 0), (1, 1), (2, 2)],
                            planes=["1 6 0"], lines=["0 0 1 1"]),
        "dim4.txt": _config(5, 4, points=[(0, 0, 0, 0), (1, 2, 3, 4)]),
        "dist3.txt": _config(7, 3, points=[(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 2, 3),
                                           (4, 4, 4)]),
        # two rows of one point mod 7
        "one3.txt": _config(7, 3, points=[(1, 2, 3), (8, 9, 10)]),
        "semi3.txt": _config(13, 3, points=semi_isotropic_set(2, 3, 13).points),
        # 20 seeded points of F_13^2, for the planar distance bounds
        "dist2.txt": _config(13, 2, points=sorted(random.Random(5).sample(
            list(itertools.product(range(13), repeat=2)), 20))),
        "par3.txt": _config(5, 3, points=_paraboloid(5, 3)),
        "par4.txt": _config(5, 4, points=_paraboloid(5, 4)[:40]),
        # the full paraboloid of F_5^3 with its point (1, 1, 2) moved to (1, 1, 3)
        "paroff3.txt": _config(5, 3, points=[[1, 1, 3] if q == [1, 1, 2] else q
                                             for q in _paraboloid(5, 3).tolist()]),
        "sph3.txt": _config(5, 3, points=sphere_points(5, 3, 1)),
        "sph4.txt": _config(5, 4, points=sphere_points(5, 4, 1)[:40]),
        # sets too small against p^d for the sum and difference tables, so
        # energy takes its pair route
        "cyl13.txt": emit_config(ConfigDoc.of(13, 4, cylinder.points, (), cylinder.generators)),
        "sph4_7.txt": _config(7, 4, points=sorted(random.Random(1).sample(
            sphere_points(7, 4, 1).tolist(), 40))),
        "parline4.txt": _config(13, 4, points=paraboloid_lift(sorted(set(line + free)), 13)),
        "off3.txt": _config(7, 3, points=[(1, 0, 0), (1, 1, 1)]),
        "empty2.txt": _config(7, 2),
        # three points, where the semi-isotropic-plane test must not scan p^2
        # directions
        "mid3.txt": _config(10007, 3, points=[(0, 0, 0), (1, 2, 3), (5, 7, 11)]),
        "big3.txt": _config(2147483647, 3, points=[(0, 0, 0), (1, 2, 3), (5, 7, 11)]),
        "forms2.txt": _config(13, 2, points=[(1, 0), (0, 1), (1, 1), (2, 3), (5, 7)]),
        "elekes2.txt": emit_config(ConfigDoc.of(23, 2, grid.points, grid.lines)),
        "random3d_650.txt": emit_config(random3d),
        "sweep_sphere.txt": "construction=sphere\ntheorem=T1,T1B\np=5,7\n",
        "sweep_coprime.txt": "construction=coprime\np=23,29\nN=2\n",
        "sweep_elekes.txt": "construction=elekes\ntheorem=T2,T3,VINH\np=23\nn=2,3\n",
        "sweep_semi.txt": "construction=semi_isotropic\np=13\nk=2\nl=3,4\n",
        "sweep_semi_seed.txt": "construction=semi-isotropic\np=13\nk=2\nl=3\nseed=5\n",
        "sweep_cylinder.txt": "construction=cylinder\np=5\nt=1\nk0=2,3\nm=2\n",
        "sweep_random.txt": ("construction=random_3d,random_2d\np=11,13\n"
                             "points=12\nplanes=8\nlines=8\n"),
        "sweep_bad_pair.txt": "construction=sphere\ntheorem=T41\np=7\n",
        "sweep_missing.txt": "construction=elekes\np=23\n",
        # sphere reads planes as `construct sphere --planes` does
        "sweep_sphere_planes.txt": "construction=sphere\np=5\nplanes=10\n",
        # no construction of the spec reads planes
        "sweep_unused_key.txt": "construction=semi_isotropic\np=13\nk=2\nl=3\nplanes=5\n",
        "sweep_negative.txt": "construction=random_2d\np=11\npoints=-4\n",
        "sweep_nonprime.txt": "construction=sphere\np=5,4\n",
        # a sweep spec line without '=', of an unknown key, of a key seen
        # before, and with no value: each exits 2 naming line 3
        "sweep_no_equals.txt": "construction=sphere\np=5\nplanes\n",
        "sweep_unknown_key.txt": "construction=sphere\np=5\ncolour=red\n",
        "sweep_duplicate_key.txt": "construction=sphere\np=5\np=7\n",
        "sweep_empty_value.txt": "construction=sphere\np=5\nplanes= , \n",
        # parse errors exit 2 and name the first faulty line
        "bad_token.txt": _config(7, 3, points=["1 2 3", "1 2 x"]),
        "bad_section.txt": _config(7, 3, points=["1 2 3"]) + "[stuff]\n1 2 3\n",
        "zero_normal.txt": _config(7, 3, planes=["1 0 0 1", "0 0 0 1"]),
        # a [planes] row of three values before a [points] row with a bad token
        "two_faults.txt": _config(7, 3, planes=["1 0 0"]) + "[points]\n1 2 x\n",
        # coordinates beyond int64 are valid and reduced mod p
        "huge.txt": _config(7, 3, points=["99999999999999999999 -99999999999999999999 3"],
                            planes=["1 0 0 99999999999999999999"]),
        # integers Python's int reads and numpy does not (a sign, an
        # underscore, a non-ASCII digit, values beyond int64) in every
        # section, and the same config in plain digits
        "ints3.txt": _config(7, 3, points=["+4 1_0 \u0663", "99999999999999999999 1 2",
                                           "4 -99999999999999999999 3 w=1_0", "4 0 3 w=+2"],
                             planes=["1 0 0 +4", "0 1_0 0 \u0663",
                                     "0 0 99999999999999999999 3"],
                             lines=["+4 0 \u0663 0 1_0 1_0"]),
        "plain3.txt": _config(7, 3, points=["4 10 3", "1 1 2", "4 6 3 w=10", "4 0 3 w=2"],
                              planes=["1 0 0 4", "0 10 0 3", "0 0 1 3"],
                              lines=["4 0 3 0 10 10"]),
    }


CASES = {
    "construct-sphere": ["construct", "sphere", "--p", "3"],
    "construct-sphere-planes": ["--seed", "2", "construct", "sphere", "--p", "5",
                                "--planes", "10"],
    "construct-coprime": ["construct", "coprime", "--p", "23", "--n", "2"],
    "construct-elekes": ["construct", "elekes", "--p", "23", "--n", "2"],
    "construct-semi-isotropic": ["construct", "semi-isotropic", "--p", "13",
                                 "--k", "2", "--l", "3"],
    "construct-cylinder": ["construct", "cylinder", "--p", "5", "--t", "1",
                           "--k0", "2", "--m", "2"],
    "construct-sphere-negative-planes": ["construct", "sphere", "--p", "5", "--planes", "-2"],
    "construct-unread-flag": ["construct", "coprime", "--p", "23", "--n", "2", "--planes", "5"],
    "construct-random-3d": ["--seed", "3", "construct", "random-3d", "--p", "11",
                            "--points", "10", "--planes", "5", "--lines", "2"],
    "construct-random-2d": ["--seed", "3", "construct", "random-2d", "--p", "11",
                            "--points", "8", "--lines", "3"],
    "count": ["count", "w3.txt"],
    "count-T1": ["count", "w3.txt", "--theorem", "T1"],
    "count-T1B": ["count", "w3.txt", "--theorem", "t1b"],
    "count-T1C": ["count", "w3.txt", "--theorem", "T1C"],
    "count-T2": ["count", "w3.txt", "--theorem", "T2"],
    "count-restricted": ["count", "w3.txt", "--restricted"],
    "count-restricted-T1B": ["count", "w3.txt", "--restricted", "--theorem", "T1B"],
    "count-restricted-T1C": ["count", "w3.txt", "--restricted", "--theorem", "T1C"],
    # a config that cannot be read and an output that cannot be written exit
    # 1; a weight past any float exits 4 from the bound's float conversion
    "count-missing-file": ["count", "missing.txt"],
    "count-out-missing-dir": ["--out", "nodir/x.csv", "count", "w3.txt"],
    "count-float-overflow-T1C": ["count", "floatw3.txt", "--theorem", "T1C"],
    "count-huge-weights-T1C": ["count", "hugew3.txt", "--theorem", "T1C"],
    "count-huge-weights-restricted-T1C": ["count", "hugew3.txt", "--restricted",
                                          "--theorem", "T1C"],
    "count-random-3d-650-T1": ["count", "random3d_650.txt", "--theorem", "T1"],
    "count-random-3d-650-restricted-T1B": ["count", "random3d_650.txt", "--restricted",
                                           "--theorem", "T1B"],
    "count-2d": ["count", "plane2.txt"],
    "count-2d-T3": ["count", "plane2.txt", "--theorem", "T3"],
    "count-2d-VINH": ["count", "plane2.txt", "--theorem", "VINH"],
    "count-2d-T2": ["count", "plane2.txt", "--theorem", "T2"],
    "count-2d-grid-T2": ["count", "elekes2.txt", "--theorem", "T2"],
    "count-2d-shared-line": ["count", "dup2.txt", "--theorem", "VINH"],
    "count-dim4": ["count", "dim4.txt"],
    "count-bad-token": ["count", "bad_token.txt"],
    "count-unknown-section": ["count", "bad_section.txt"],
    "count-zero-normal": ["count", "zero_normal.txt"],
    "count-first-of-two-faults": ["count", "two_faults.txt"],
    "count-huge-coordinates": ["count", "huge.txt"],
    "count-python-int-tokens": ["count", "ints3.txt", "--restricted", "--theorem", "T1B"],
    "count-plain-int-tokens": ["count", "plain3.txt", "--restricted", "--theorem", "T1B"],
    "distances": ["distances", "dist3.txt"],
    "distances-exclude-zero": ["distances", "dist3.txt", "--exclude-zero",
                               "--theorem", "T42"],
    "distances-semi-isotropic": ["distances", "semi3.txt", "--theorem", "T42"],
    "distances-p10007": ["distances", "mid3.txt", "--theorem", "T42"],
    "distances-p2147483647": ["distances", "big3.txt", "--theorem", "T42"],
    "distances-planar-T43": ["distances", "dist2.txt", "--theorem", "T43"],
    "distances-planar-T43LARGE": ["distances", "dist2.txt", "--theorem", "T43LARGE"],
    "distances-planar-exclude-zero-T43PINNED": ["distances", "dist2.txt", "--exclude-zero",
                                                "--theorem", "T43PINNED"],
    "distances-one-point": ["distances", "one3.txt"],
    # a bound on another quantity than the subcommand's exits 1
    "distances-T41": ["distances", "dist3.txt", "--theorem", "T41"],
    "energy-paraboloid": ["energy", "par3.txt", "--quadric", "paraboloid"],
    "energy-paraboloid-T54": ["energy", "par3.txt", "--quadric", "paraboloid",
                              "--theorem", "T54"],
    "energy-paraboloid-T53": ["energy", "par4.txt", "--quadric", "paraboloid",
                              "--theorem", "T53"],
    "energy-off-paraboloid": ["energy", "paroff3.txt", "--quadric", "paraboloid"],
    "energy-empty-dim2": ["energy", "empty2.txt", "--quadric", "sphere"],
    "energy-sphere-t0": ["energy", "sph3.txt", "--quadric", "sphere", "--t", "0"],
    "energy-sphere-T55": ["energy", "sph3.txt", "--quadric", "sphere", "--theorem", "T55"],
    "energy-sphere-T56": ["energy", "sph4.txt", "--quadric", "sphere", "--t", "1",
                          "--theorem", "T56"],
    "energy-cylinder-pairs": ["energy", "cyl13.txt", "--quadric", "sphere", "--t", "1"],
    "energy-sphere-subset-pairs": ["energy", "sph4_7.txt", "--quadric", "sphere", "--t", "1",
                                   "--theorem", "T56"],
    "energy-paraboloid-line-pairs": ["energy", "parline4.txt", "--quadric", "paraboloid",
                                     "--theorem", "T53"],
    "forms": ["forms", "forms2.txt"],
    "forms-solutions": ["forms", "forms2.txt", "--solutions"],
    "forms-matrix-T41": ["forms", "forms2.txt", "--matrix", "1", "0", "0", "1",
                         "--theorem", "T41"],
    "forms-3d": ["forms", "dist3.txt"],
    "forms-T42": ["forms", "forms2.txt", "--theorem", "T42"],
    "forms-solutions-T41": ["forms", "forms2.txt", "--solutions", "--theorem", "T41"],
    "verify-ok": ["verify", "w3.txt"],
    "verify-ok-2d": ["verify", "plane2.txt"],
    "verify-ok-sphere": ["verify", "sph3.txt", "--quadric", "sphere", "--t", "1"],
    "verify-fail": ["verify", "off3.txt", "--quadric", "sphere", "--t", "1"],
    "verify-ok-paraboloid": ["verify", "par3.txt", "--quadric", "paraboloid"],
    "verify-fail-paraboloid": ["verify", "paroff3.txt", "--quadric", "paraboloid"],
    "sweep-sphere": ["sweep", "sweep_sphere.txt"],
    "sweep-coprime": ["sweep", "sweep_coprime.txt"],
    "sweep-elekes": ["sweep", "sweep_elekes.txt"],
    "sweep-semi-isotropic": ["--seed", "7", "sweep", "sweep_semi.txt"],
    "sweep-semi-isotropic-seed": ["sweep", "sweep_semi_seed.txt"],
    "sweep-cylinder": ["sweep", "sweep_cylinder.txt"],
    "sweep-random": ["--seed", "4", "sweep", "sweep_random.txt"],
    "sweep-bad-pairing": ["sweep", "sweep_bad_pair.txt"],
    "sweep-missing-key": ["sweep", "sweep_missing.txt"],
    "sweep-sphere-planes": ["--seed", "2", "sweep", "sweep_sphere_planes.txt"],
    "sweep-unused-key": ["sweep", "sweep_unused_key.txt"],
    "sweep-negative-count": ["sweep", "sweep_negative.txt"],
    "sweep-nonprime-p": ["sweep", "sweep_nonprime.txt"],
    "sweep-no-equals": ["sweep", "sweep_no_equals.txt"],
    "sweep-unknown-key": ["sweep", "sweep_unknown_key.txt"],
    "sweep-duplicate-key": ["sweep", "sweep_duplicate_key.txt"],
    "sweep-empty-value": ["sweep", "sweep_empty_value.txt"],
}

VARIANTS = {"": [], "[json]": ["--format", "json"], "[strict]": ["--strict"]}


def _runs():
    for name, argv in CASES.items():
        for suffix, flags in VARIANTS.items():
            yield name + suffix, flags + argv


def run_case(argv: list[str], workdir: Path) -> dict:
    """Run the CLI in `workdir` (holding the case files); return its results."""
    for fname, text in _files().items():
        (workdir / fname).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(run_id for run_id, _ in _runs())


def test_python_int_tokens_read_as_plain_digits(golden):
    for suffix in VARIANTS:
        assert (golden["count-python-int-tokens" + suffix]
                == golden["count-plain-int-tokens" + suffix])


@pytest.mark.parametrize("run_id, argv", list(_runs()), ids=[r for r, _ in _runs()])
def test_cli_output_is_pinned(golden, tmp_path, run_id, argv):
    assert run_case(argv, tmp_path) == golden[run_id]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        results = {run_id: run_case(argv, Path(tmp)) for run_id, argv in _runs()}
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} runs to {GOLDEN}", file=sys.stderr)
