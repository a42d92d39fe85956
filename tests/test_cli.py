import argparse
import itertools
import json
import warnings

import pytest

from fpgeom import cli, configio, counting
from conftest import rng_for
from fpgeom.bounds import BoundReport
from fpgeom.cli import main, parse_sweep_spec, run_experiment
from fpgeom.configio import ConfigParseError, emit_config
from fpgeom.counting import WeightedPlaneSet, WeightedPointSet
from fpgeom.geom import AffineLine
from fpgeom.quadrics import paraboloid_lift

SWEEP = """\
# unit-sphere incidence sweep
construction=sphere
theorem=T1
p=7,11
"""


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(["--out", str(out), *argv])
    text = out.read_text() if out.exists() else ""
    return code, text


def record_measured(monkeypatch) -> list:
    """Make every measurement append the document it measures to the list
    returned."""
    measured = []

    def recording(measure):
        def record(doc, theorem, opt, cell=None):
            measured.append(doc)
            return measure(doc, theorem, opt, cell)
        return record

    for command, (measure, flags) in list(cli._MEASUREMENTS.items()):
        monkeypatch.setitem(cli._MEASUREMENTS, command, (recording(measure), flags))
    return measured


class TestConstruct:
    def test_sphere_config(self, tmp_path):
        code, text = run(tmp_path, "construct", "sphere", "--p", "3")
        assert code == 0
        assert text.startswith("p=3 dim=3\n")
        assert sum(1 for _ in text.splitlines()) == 2 + 6 + 1 + 39  # header+sections+objects

    def test_deterministic_bytes(self, tmp_path):
        a = run(tmp_path, "construct", "random-3d", "--p", "11",
                "--points", "20", "--planes", "10", "--lines", "2")
        b = run(tmp_path, "construct", "random-3d", "--p", "11",
                "--points", "20", "--planes", "10", "--lines", "2")
        assert a == b and a[0] == 0

    def test_seed_changes_random_output(self, tmp_path):
        _, a = run(tmp_path, "--seed", "1", "construct", "random-2d", "--p", "11",
                   "--points", "12", "--lines", "4")
        _, b = run(tmp_path, "--seed", "2", "construct", "random-2d", "--p", "11",
                   "--points", "12", "--lines", "4")
        assert a != b

    def test_constraint_violation_exit_code(self, tmp_path):
        code, _ = run(tmp_path, "construct", "elekes", "--p", "7", "--n", "3")
        assert code == 3

    def test_missing_parameter_is_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "construct", "elekes", "--p", "23")
        assert code == 1

    # the golden runs cover `construct coprime --planes 5`
    @pytest.mark.parametrize("argv, flag", [
        (["sphere", "--p", "5", "--n", "2"], "n"),
        (["cylinder", "--p", "5", "--t", "1", "--k0", "2", "--m", "2", "--points", "3"],
         "points"),
        (["random-2d", "--p", "7", "--points", "2", "--planes", "1"], "planes"),
        (["elekes", "--p", "23", "--n", "2", "--k", "1", "--l", "1"], "k"),
    ])
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, argv, flag):
        code, text = run(tmp_path, "construct", *argv)
        assert code == 1 and text == ""
        assert capsys.readouterr().err == (
            f"usage error: construct {argv[0]} does not read --{flag}\n")

    def test_unread_flag_at_its_default_is_allowed(self, tmp_path):
        assert run(tmp_path, "construct", "coprime", "--p", "23", "--n", "2",
                   "--planes", "0") == run(tmp_path, "construct", "coprime", "--p", "23",
                                           "--n", "2")

    # the golden runs cover `construct sphere --planes -2` and a negative sweep count
    @pytest.mark.parametrize("argv, what", [
        (["random-3d", "--p", "7", "--points", "-3"], "point count, got -3"),
        (["random-2d", "--p", "7", "--points", "2", "--lines", "-1"], "line count, got -1"),
    ])
    def test_negative_count_is_constraint_violation(self, tmp_path, capsys, argv, what):
        code, text = run(tmp_path, "construct", *argv)
        assert code == 3 and text == ""
        assert capsys.readouterr().err == f"constraint violation: need a nonnegative {what}\n"


class TestCountPipeline:
    def _config(self, tmp_path, name="cfg.txt"):
        path = tmp_path / name
        code = main(["--out", str(path), "construct", "sphere", "--p", "3"])
        assert code == 0
        return path

    def test_count_csv(self, tmp_path):
        cfg = self._config(tmp_path)
        code, text = run(tmp_path, "count", str(cfg))
        assert code == 0
        header, row = text.splitlines()
        assert header == "theorem,p,params,count,rhs,ratio,flags"
        assert row.startswith("point_plane,3,")
        assert ",78," in row  # each of the 6 sphere points lies on 13 planes

    def test_count_with_theorem(self, tmp_path):
        cfg = self._config(tmp_path)
        code, text = run(tmp_path, "count", str(cfg), "--theorem", "T1")
        assert code == 0
        row = text.splitlines()[1]
        cells = row.split(",")
        assert cells[0] == "T1"
        assert float(cells[5]) > 0  # ratio defined

    def test_json_mirror(self, tmp_path):
        cfg = self._config(tmp_path)
        code, text = run(tmp_path, "--format", "json", "count", str(cfg))
        assert code == 0
        rows = json.loads(text)
        assert rows[0]["theorem"] == "point_plane"

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("p=7 dim=3\n[points]\n1 2\n")
        code, _ = run(tmp_path, "count", str(bad))
        assert code == 2

    @pytest.mark.parametrize("body, code, err", [
        ("[points]\n1 2 3\n[planes]\n[lines]\n0 0 0 1 0 0\n", 0, ""),
        ("[points]\nw=3\n", 2, "parse error: line 3: empty object line\n"),
    ])
    def test_reading_never_warns(self, tmp_path, capsys, body, code, err):
        # numpy warns on a text of no lines and skips a line that is empty
        # once its weight is split off: an empty section takes no
        # conversion, and a weight alone is a faulty line
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("p=7 dim=3\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if code:
                with pytest.raises(ConfigParseError, match="^line 3: empty object line$"):
                    configio.parse_config(cfg.read_text())
            else:
                configio.parse_config(cfg.read_text())
            assert run(tmp_path, "count", str(cfg))[0] == code
        assert capsys.readouterr().err == err

    def test_restricted(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "p=7 dim=3\n[points]\n" +
            "\n".join(f"{t} 0 0" for t in range(7)) +
            "\n[planes]\n0 1 0 0\n0 0 1 0\n[lines]\n0 0 0 1 0 0\n"
        )
        code, text = run(tmp_path, "count", str(cfg), "--restricted")
        assert code == 0
        assert ",0," in text.splitlines()[1]

    def test_2d_line_listed_twice_counts_once(self, tmp_path):
        # x + 6y = 0 under [planes] and the line through 0 with direction (1, 1)
        # under [lines] are one line
        cfg = tmp_path / "dup.txt"
        cfg.write_text("p=7 dim=2\n[points]\n0 0\n1 1\n2 2\n"
                       "[planes]\n1 6 0\n[lines]\n0 0 1 1\n")
        code, text = run(tmp_path, "count", str(cfg))
        assert code == 0
        assert text.splitlines()[1] == "point_line,7,l=1;q=3,3,nan,nan,"

    @pytest.mark.parametrize("points, row", [
        ("", "T2,7,l=0;q=0,0,0,nan,a_le_b=1;al_lt_p2=1"),
        ("[points]\n3 4\n", "T2,7,l=0;q=1,0,1,0,a_le_b=1;al_lt_p2=1"),
        ("[points]\n0 0\n3 0\n5 0\n0 1\n3 1\n5 1\n", "T2,7,l=0;q=6,0,6,0,a_le_b=0;al_lt_p2=1"),
    ])
    def test_2d_T2_reads_the_grid_of_the_points(self, tmp_path, points, row):
        # an empty set is the grid of no x and no y values, a point the 1 x 1
        # grid; three x and two y values break T2's a <= b
        cfg = tmp_path / "grid.txt"
        cfg.write_text("p=7 dim=2\n" + points)
        code, text = run(tmp_path, "count", str(cfg), "--theorem", "T2")
        assert code == 0
        assert text.splitlines()[1] == row

    def test_2d_restricted_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "plane.txt"
        cfg.write_text("p=11 dim=2\n[points]\n0 0\n1 1\n[lines]\n0 0 1 1\n")
        code, text = run(tmp_path, "count", str(cfg), "--restricted")
        assert code == 1 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1



class TestObjectCounts:
    """Every path reads the config's rows: none builds a line object."""

    def test_no_run_builds_a_line_object(self, monkeypatch, tmp_path):
        def refuse(line):
            raise AssertionError("an AffineLine was built")

        monkeypatch.setattr(AffineLine, "__post_init__", refuse)
        rng, p = rng_for("objects"), 101
        vec = lambda dim: " ".join(str(rng.randrange(p)) for _ in range(dim))
        rows = lambda count, dim: "".join(f"{vec(dim)}\n" for _ in range(count))
        configs = {
            "3d.txt": (f"p={p} dim=3\n[points]\n{rows(200, 3)}[planes]\n{rows(300, 4)}"
                       f"[lines]\n{rows(10, 6)}"),
            "2d.txt": (f"p={p} dim=2\n[points]\n{rows(200, 2)}[planes]\n{rows(100, 3)}"
                       f"[lines]\n{rows(100, 4)}"),
            "cyl.spec": "construction=cylinder\np=5\nt=1\nk0=2\nm=2\n",
        }
        for name, text in configs.items():
            (tmp_path / name).write_text(text)
        for argv in (["count", "3d.txt", "--restricted", "--theorem", "T1B"],
                     ["count", "3d.txt", "--theorem", "T1"],
                     ["count", "2d.txt", "--theorem", "VINH"],
                     ["verify", "3d.txt"],
                     ["verify", "2d.txt"],
                     ["construct", "cylinder", "--p", "5", "--t", "1", "--k0", "2", "--m", "2"],
                     ["construct", "elekes", "--p", "11", "--n", "2"],
                     ["sweep", "cyl.spec"]):
            argv = [str(tmp_path / a) if a.endswith((".txt", ".spec")) else a for a in argv]
            code, text = run(tmp_path, *argv)
            assert code == 0 and "FAIL" not in text, argv

    def test_planar_count_canonicalises_each_set_once(self, monkeypatch, tmp_path):
        # the config's points and planes, then the merged covector lines
        calls = {WeightedPointSet: 0, WeightedPlaneSet: 0}
        for cls in calls:
            def counted(owner, *args, cls=cls, of=cls.of.__func__, **kwargs):
                calls[cls] += 1
                return of(owner, *args, **kwargs)
            monkeypatch.setattr(cls, "of", classmethod(counted))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("p=11 dim=2\n[points]\n0 1\n1 3\n2 5\n3 4\n"
                       "[planes]\n2 10 1\n1 1 0\n[lines]\n0 0 1 1\n")
        code, _ = run(tmp_path, "count", str(cfg), "--theorem", "VINH")
        assert code == 0
        assert calls == {WeightedPointSet: 1, WeightedPlaneSet: 2}


class TestOtherSubcommands:
    def test_distances(self, tmp_path):
        cfg = tmp_path / "d.txt"
        cfg.write_text("p=7 dim=3\n[points]\n0 0 0\n1 0 0\n0 1 0\n")
        code, text = run(tmp_path, "distances", str(cfg), "--theorem", "T42")
        assert code == 0
        assert text.splitlines()[1].startswith("T42,7,")

    def test_energy_paraboloid(self, tmp_path):
        cfg = tmp_path / "e.txt"
        cfg.write_text("p=7 dim=3\n[points]\n0 0 0\n1 0 1\n0 1 1\n1 1 2\n")
        code, text = run(tmp_path, "energy", str(cfg), "--quadric", "paraboloid")
        assert code == 0
        assert ",36," in text.splitlines()[1]

    def test_energy_at_largest_modulus(self, tmp_path):
        # p^3 is far above 2^62: the census keys on coordinate rows
        cfg = tmp_path / "e.txt"
        cfg.write_text("p=2147483647 dim=3\n[points]\n0 0 0\n1 0 1\n0 1 1\n1 1 2\n")
        code, text = run(tmp_path, "energy", str(cfg), "--quadric", "paraboloid")
        assert code == 0
        assert text.splitlines()[1].split(",")[3] == "36"

    def test_forms(self, tmp_path):
        cfg = tmp_path / "f.txt"
        cfg.write_text("p=7 dim=2\n[points]\n1 0\n0 1\n")
        code, text = run(tmp_path, "forms", str(cfg))
        assert code == 0
        assert text.splitlines()[1].startswith("form_values,7,")

    def test_verify_ok(self, tmp_path):
        cfg = tmp_path / "v.txt"
        main(["--out", str(cfg), "construct", "sphere", "--p", "3"])
        code, text = run(tmp_path, "verify", str(cfg), "--quadric", "sphere", "--t", "1")
        assert code == 0
        assert all(line.startswith("ok:") for line in text.splitlines())

    def test_verify_flags_off_quadric_point(self, tmp_path):
        cfg = tmp_path / "v.txt"
        cfg.write_text("p=7 dim=3\n[points]\n1 1 1\n")
        code, text = run(tmp_path, "verify", str(cfg), "--quadric", "sphere", "--t", "1")
        assert code == 3
        assert any(line.startswith("FAIL:") for line in text.splitlines())

    @pytest.mark.parametrize("config, names", [
        ("p=7 dim=3\n[points]\n1 2 3\n0 0 0\n[planes]\n1 0 0 1\n0 0 1 3\n"
         "[lines]\n1 2 3 0 1 0\n",
         ["vectorised count matches the naive loop", "restricted count matches the naive loop"]),
        ("p=7 dim=2\n[points]\n1 2\n3 4\n[lines]\n1 2 0 1\n[planes]\n1 1 3\n",
         ["planar count matches the naive loop"]),
    ])
    def test_verify_fails_on_a_wrong_count(self, tmp_path, monkeypatch, config, names):
        # the engine reports one pair too many: every count check fails
        incidences = counting.weighted_incidences
        monkeypatch.setattr(counting, "weighted_incidences",
                            lambda *a: tuple(x + 1 for x in incidences(*a)))
        cfg = tmp_path / "v.txt"
        cfg.write_text(config)
        code, text = run(tmp_path, "verify", str(cfg))
        assert code == 3
        assert [f"FAIL: {name}" for name in names] == [
            line for line in text.splitlines() if line.startswith("FAIL:")]
        code, text = run(tmp_path, "--format", "json", "verify", str(cfg))
        assert code == 3
        assert [row["check"] for row in json.loads(text) if row["ok"] is False] == names

    # only the sphere reads --t; anywhere else it is a usage error
    @pytest.mark.parametrize("argv", [
        ["energy", "--quadric", "paraboloid", "--t", "5"],
        ["verify", "--t", "5"],
        ["verify", "--quadric", "paraboloid", "--t", "1"],
    ])
    def test_unread_t_is_a_usage_error(self, tmp_path, capsys, argv):
        cfg = tmp_path / "e.txt"
        cfg.write_text("p=7 dim=3\n")
        code, text = run(tmp_path, argv[0], str(cfg), *argv[1:])
        assert code == 1 and text == ""
        assert capsys.readouterr().err == (
            f"usage error: {argv[0]} reads --t only with --quadric sphere\n")

    @pytest.mark.parametrize("command", ["energy", "verify"])
    def test_sphere_reads_t_and_defaults_to_1(self, tmp_path, command):
        cfg = tmp_path / "s.txt"
        cfg.write_text("p=7 dim=3\n[points]\n1 0 0\n0 1 0\n")
        default = run(tmp_path, command, str(cfg), "--quadric", "sphere")
        assert default == run(tmp_path, command, str(cfg), "--quadric", "sphere", "--t", "1")
        assert default[0] == 0
        assert run(tmp_path, command, str(cfg), "--quadric", "sphere", "--t", "2")[0] != 0

    # the quadric's dimension is checked on an empty set as on any other
    @pytest.mark.parametrize("command", ["energy", "verify"])
    @pytest.mark.parametrize("quadric, name", [("sphere", "spheres"),
                                               ("paraboloid", "the paraboloid")])
    def test_empty_set_of_the_wrong_dimension(self, tmp_path, capsys, command, quadric, name):
        cfg = tmp_path / "e.txt"
        cfg.write_text("p=7 dim=2\n")
        code, text = run(tmp_path, command, str(cfg), "--quadric", quadric)
        assert code == 1 and text == ""
        assert capsys.readouterr().err == (
            f"error: {name} {'are' if quadric == 'sphere' else 'is'} generated in "
            "dimensions 3 and 4\n")

    @pytest.mark.parametrize("quadric", ["sphere", "paraboloid"])
    def test_empty_energy_in_a_quadric_dimension(self, tmp_path, quadric):
        cfg = tmp_path / "e.txt"
        cfg.write_text("p=7 dim=3\n")
        code, text = run(tmp_path, "energy", str(cfg), "--quadric", quadric)
        assert code == 0
        assert text.splitlines()[1].startswith(f"energy_{quadric},7,a=0;")


class TestSweep:
    def test_rows_per_parameter(self, tmp_path):
        spec = tmp_path / "sweep.txt"
        spec.write_text(SWEEP)
        code, text = run(tmp_path, "sweep", str(spec))
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("T1,7,") and lines[2].startswith("T1,11,")

    def test_rerun_byte_identical(self, tmp_path):
        spec = tmp_path / "sweep.txt"
        spec.write_text(SWEEP)
        _, a = run(tmp_path, "--seed", "5", "sweep", str(spec))
        _, b = run(tmp_path, "--seed", "5", "sweep", str(spec))
        assert a == b

    def test_random_cells_run(self, tmp_path):
        spec = tmp_path / "sweep.txt"
        spec.write_text("construction=random_3d,random_2d\np=11,13\n"
                        "points=12\nplanes=8\nlines=8\n")
        code, text = run(tmp_path, "--seed", "4", "sweep", str(spec))
        assert code == 0
        rows = text.splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["T1", "T1", "VINH", "VINH"]
        assert run(tmp_path, "--seed", "4", "sweep", str(spec)) == (code, text)

    def test_spec_validation(self):
        with pytest.raises(Exception):
            parse_sweep_spec("construction=sphere\ntheorem=T41\np=7\n")  # bad pairing

    @pytest.mark.parametrize("spec, line, what", [
        ("construction=sphere\np=5\nplanes=x\n", 3, "non-integer value 'x' for planes"),
        ("construction=sphere\np=5,4\n", 2, "modulus must be prime, got 4"),
        ("p=5\n# comment\nconstruction=torus\n", 3, "unknown construction 'torus'"),
        ("p=23\nconstruction=coprime,elekes\nN=2\n", 2, "sweep cell needs a value for 'n'"),
        ("theorem=T41\nconstruction=sphere\np=7\n", 1, "does not pair"),
        ("construction=sphere\np=5\nk=2\n", 3, "no construction in this spec reads 'k'"),
        ("p=5\n", 0, "needs a 'construction' key"),
        ("construction=sphere\n", 0, "needs a 'p' key"),
    ])
    def test_errors_name_the_line_of_their_key(self, spec, line, what):
        with pytest.raises(ConfigParseError, match=what) as exc:
            parse_sweep_spec(spec)
        assert exc.value.line == line

    def test_run_experiment_semi_isotropic(self):
        rows = run_experiment("construction=semi_isotropic\np=13\nk=2\nl=3\n")
        assert len(rows) == 1
        assert rows[0].theorem == "T42" and rows[0].count <= 3

    @pytest.mark.parametrize("spec", [
        "construction=sphere\np=5\nn=2\n",
        "construction=random_2d\np=11\nplanes=3\n",
        "construction=random_3d\np=11\nlines=8\n",  # no sweep cell measures lines
    ])
    def test_key_no_construction_reads_is_parse_error(self, spec):
        with pytest.raises(ConfigParseError, match="no construction in this spec reads"):
            parse_sweep_spec(spec)

    def test_keys_are_checked_per_spec(self):
        # random_3d reads planes, random_2d does not; coprime reads n as N
        assert len(parse_sweep_spec("construction=random_3d,random_2d\np=11\nplanes=3\n")) == 2
        assert run_experiment("construction=coprime\np=23\nn=2\n")[0].params["N"] == 2
        coprime, elekes = run_experiment("construction=coprime,elekes\np=23\nN=2\nn=3\n")
        assert coprime.params["N"] == 2 and elekes.params["n"] == 3

    @pytest.mark.parametrize("construct_argv, spec", [
        (["sphere", "--p", "5"], "construction=sphere\np=5\n"),
        (["coprime", "--p", "23", "--n", "2"], "construction=coprime\np=23\nN=2\n"),
        (["elekes", "--p", "23", "--n", "2"], "construction=elekes\np=23\nn=2\n"),
        (["cylinder", "--p", "5", "--t", "1", "--k0", "2", "--m", "2"],
         "construction=cylinder\np=5\nt=1\nk0=2\nm=2\n"),
    ])
    def test_sweep_measures_the_constructed_document(self, tmp_path, monkeypatch,
                                                     construct_argv, spec):
        code, emitted = run(tmp_path, "construct", *construct_argv)
        assert code == 0
        measured = record_measured(monkeypatch)
        run_experiment(spec)
        assert [emit_config(doc) for doc in measured] == [emitted]

    # one cell of each construction, with the subcommand run that measures it
    SUBCOMMAND_RUNS = {
        "sphere": ("construction=sphere\np=7\nplanes=20\n", ["count"]),
        "coprime": ("construction=coprime\np=101\nN=4\n",
                    ["forms", "--matrix", "1", "0", "0", "1"]),
        "elekes": ("construction=elekes\np=101\nn=5\n", ["count"]),
        "semi_isotropic": ("construction=semi_isotropic\np=13\nk=2\nl=4\n", ["distances"]),
        "cylinder": ("construction=cylinder\np=5\nt=1\nk0=2\nm=2\n",
                     ["energy", "--quadric", "sphere", "--t", "1"]),
        "random_3d": ("construction=random_3d\np=11\npoints=20\nplanes=12\n", ["count"]),
        "random_2d": ("construction=random_2d\np=13\npoints=20\nlines=12\n", ["count"]),
    }

    @pytest.mark.parametrize("name", sorted(cli._CONSTRUCTIONS))
    def test_sweep_row_matches_its_subcommand(self, tmp_path, monkeypatch, name):
        # the subcommand measures the document the sweep cell built, with each
        # theorem the construction pairs with
        spec, argv = self.SUBCOMMAND_RUNS[name]
        theorems, _, _, command, _ = cli._CONSTRUCTIONS[name]
        assert argv[0] == command
        measured = record_measured(monkeypatch)
        reports = run_experiment(spec + "theorem=" + ",".join(theorems) + "\n")
        monkeypatch.undo()
        assert len(measured) == len(reports) == len(theorems)
        cfg = tmp_path / "doc.txt"
        for doc, theorem, report in zip(measured, theorems, reports):
            cfg.write_text(emit_config(doc))
            code, text = run(tmp_path, argv[0], str(cfg), *argv[1:], "--theorem", theorem)
            assert code == 0
            got = text.splitlines()[1].split(",")
            want = [str(v) for v in configio.report_row(report).values()]
            assert got[3:5] == want[3:5]  # count and rhs
            sweep_flags, flags = (dict(f.split("=") for f in row[6].split(";") if f)
                                  for row in (want, got))
            assert flags == sweep_flags

    def test_empty_spec_is_error(self, tmp_path):
        spec = tmp_path / "empty.txt"
        spec.write_text("# nothing\n")
        code, _ = run(tmp_path, "sweep", str(spec))
        assert code == 2

    def test_unknown_subcommand_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "frobnicate")
        assert code == 1

    def test_strict_mode_flags_violations(self, tmp_path):
        # 100 points over p=7 violate |Q| < p^2
        cfg = tmp_path / "big.txt"
        code = main(["--out", str(cfg), "construct", "random-3d", "--p", "7",
                     "--points", "100", "--planes", "5"])
        assert code == 0
        code, _ = run(tmp_path, "--strict", "count", str(cfg), "--theorem", "T1")
        assert code == 3

    def test_strict_ignores_branch_flag(self, tmp_path):
        # 25 points at p=5 take the T54 large-set branch: small_set_branch=0
        # reports the branch and violates no hypothesis
        cfg = tmp_path / "par.txt"
        cfg.write_text("p=5 dim=3\n[points]\n" + "".join(
            " ".join(map(str, q)) + "\n"
            for q in paraboloid_lift(itertools.product(range(5), repeat=2), 5)))
        code, text = run(tmp_path, "--strict", "energy", str(cfg),
                         "--quadric", "paraboloid", "--theorem", "T54")
        assert code == 0
        assert text.splitlines()[1].endswith(",small_set_branch=0")

    @pytest.mark.parametrize("hypothesis_holds, expected", [(True, 0), (False, 3)])
    def test_strict_reads_hypotheses_beside_branch_flag(self, capsys, hypothesis_holds, expected):
        report = BoundReport(theorem="T54", p=5, params={}, count=1, rhs=1.0, ratio=1.0,
                             flags={"s_le_p2": hypothesis_holds}, branch="large")
        args = argparse.Namespace(format="csv", out="-", strict=True)
        assert cli._emit_rows([report], args) == expected
        assert capsys.readouterr().out.endswith(",1,s_le_p2=%d;small_set_branch=0\n"
                                                % hypothesis_holds)


class TestInternalErrors:
    def test_unexpected_exception_is_one_line_exit_4(self, tmp_path, monkeypatch, capsys):
        def broken(doc, theorem, opt, cell=None):
            raise TypeError("unsupported operand")

        monkeypatch.setitem(cli._MEASUREMENTS, "energy", (broken, cli._MEASUREMENTS["energy"][1]))
        cfg = tmp_path / "e.txt"
        cfg.write_text("p=7 dim=3\n[points]\n0 0 0\n")
        code, _ = run(tmp_path, "energy", str(cfg), "--quadric", "paraboloid")
        err = capsys.readouterr().err
        assert code == 4
        assert err == "internal error: TypeError: unsupported operand\n"
