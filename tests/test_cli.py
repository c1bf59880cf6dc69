import json
import os

import numpy as np
import pytest

from layerdet import cli
from layerdet.cli import main, parse_scene_file
from layerdet.errors import ConvergenceError, SceneFileError, UnresolvedGridError
from layerdet.kernel import KAPPA_MIN_FACTOR

DATA = os.path.join(os.path.dirname(__file__), "data")
CANONICAL = os.path.join(DATA, "canonical_two_disks.json")
KITE = os.path.join(DATA, "single_kite.json")

#: Birman-Krein real-axis evaluation of Tr D_f for f = lam^2 e^{-4 lam^2}
#: on the canonical scene (n = 96), committed from the dual-path run
BK_CROSS_VALUE = -0.01165083458919235

#: edits that turn the canonical scene file into a malformed one
MALFORMED = {
    "n_fractional": lambda d: d.update(n=100.7),
    "n_string": lambda d: d.update(n="abc"),
    "n_boolean": lambda d: d.update(n=True),
    "n_odd_per_obstacle": lambda d: d["obstacles"][0].update(n=33),
    "kind_list": lambda d: d["obstacles"][0].update(kind=["circle"]),
    "center_one_element": lambda d: d["obstacles"][0].update(center=[0.0]),
    "radius_string": lambda d: d["obstacles"][0].update(radius="x"),
    "radius_null": lambda d: d["obstacles"][0].update(radius=None),
    "cos_scalar": lambda d: d["obstacles"].__setitem__(
        0, {"kind": "polar_fourier", "center": [0.0, 0.0], "cos": 1.0}),
    "overlapping": lambda d: d["obstacles"][1].update(center=[1.5, 0.0]),
    "crossing": lambda d: d["obstacles"].__setitem__(
        1, {"kind": "ellipse", "center": [0.0, 1.2], "a": 1.5, "b": 0.3}),
    "center_three_elements": lambda d: d["obstacles"][0].update(center=[0, 0, 5]),
    "radius_boolean": lambda d: d["obstacles"][0].update(radius=True),
    "radius_nan": lambda d: d["obstacles"][0].update(radius=float("nan")),
    "kite_scale_overflow": lambda d: d["obstacles"].__setitem__(
        0, {"kind": "kite", "center": [0.0, 0.0], "scale": float("inf")}),
}

#: the key each malformed number names in its error line
MALFORMED_KEY = {"center_three_elements": "center", "radius_boolean": "radius",
                 "radius_nan": "radius", "kite_scale_overflow": "scale"}


class TestSceneFiles:
    def test_parse_canonical(self):
        scene, ns = parse_scene_file(CANONICAL)
        assert scene.n_obstacles == 2
        assert ns == [96, 96]
        assert scene.gap == pytest.approx(2.0, abs=1e-10)

    def test_unknown_key_rejected(self, tmp_path):
        doc = json.load(open(CANONICAL))
        doc["frobnicate"] = 1
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SceneFileError):
            parse_scene_file(str(p))

    def test_unknown_obstacle_key_rejected(self, tmp_path):
        doc = json.load(open(CANONICAL))
        doc["obstacles"][0]["colour"] = "red"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SceneFileError):
            parse_scene_file(str(p))

    def test_bad_version_rejected(self, tmp_path):
        doc = json.load(open(CANONICAL))
        doc["version"] = 2
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["xi", "--scene", str(p), "--output", "-"]) == 2

    def test_corrupted_json_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{ not json")
        assert main(["xi", "--scene", str(p), "--output", "-"]) == 2

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_exit_code(self, tmp_path, capsys, name):
        doc = json.load(open(CANONICAL))
        MALFORMED[name](doc)
        p = tmp_path / "bad.json"
        # json writes inf as Infinity; spell it as a literal that overflows
        p.write_text(json.dumps(doc).replace("Infinity", "1e400"))
        assert main(["xi", "--scene", str(p), "--output", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if name in MALFORMED_KEY:
            assert f'obstacle 0: "{MALFORMED_KEY[name]}"' in err


class TestCmdXi:
    def test_single_obstacle_zeros(self, tmp_path):
        out = tmp_path / "xi.csv"
        rc = main(["xi", "--scene", KITE, "--n", "64", "--kappa-count", "5",
                   "--kappa-min", "0.1", "--kappa-max", "2.0",
                   "--output", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "kappa_or_lambda,xi_re,xi_im,branch_offset,err_est"
        assert len(rows) == 6
        for row in rows[1:]:
            cols = row.split(",")
            assert abs(float(cols[1])) <= 1e-12 and float(cols[2]) == 0.0

    def test_imag_axis_realness(self, tmp_path):
        out = tmp_path / "xi.csv"
        rc = main(["xi", "--scene", CANONICAL, "--kappa-count", "6",
                   "--kappa-min", "0.1", "--kappa-max", "5.0",
                   "--output", str(out)])
        assert rc == 0
        for row in out.read_text().splitlines()[1:]:
            assert abs(float(row.split(",")[2])) <= 1e-10

    def test_golden_file(self, tmp_path):
        out = tmp_path / "xi.csv"
        rc = main(["xi", "--scene", CANONICAL, "--kappa-min", "0.1",
                   "--kappa-max", "10", "--kappa-count", "8",
                   "--output", str(out)])
        assert rc == 0
        got = out.read_text().splitlines()
        ref = open(os.path.join(DATA, "golden_xi_imag.csv")).read().splitlines()
        assert got[0] == ref[0]
        for g, r in zip(got[1:], ref[1:]):
            gc = [float(v) for v in g.split(",")]
            rc_ = [float(v) for v in r.split(",")]
            tol = 5 * max(gc[4], rc_[4]) + 1e-13
            assert gc[0] == rc_[0]
            assert abs(gc[1] - rc_[1]) <= tol

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["xi", "--scene", CANONICAL, "--n", "64", "--kappa-count", "4",
                "--kappa-min", "0.5", "--kappa-max", "2.0"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_real_axis(self, tmp_path):
        out = tmp_path / "xi_real.csv"
        rc = main(["xi", "--scene", CANONICAL, "--n", "64", "--axis", "real",
                   "--kappa-min", "0.5", "--kappa-max", "2.0",
                   "--kappa-count", "3", "--output", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(len(r.split(",")) == 5 for r in rows)

    @pytest.mark.parametrize("command", ["xi", "shift"])
    def test_emit_plot(self, tmp_path, command):
        out = tmp_path / f"{command}.csv"
        rc = main([command, "--scene", KITE, "--n", "64", "--kappa-count", "3",
                   "--kappa-min", "0.5", "--kappa-max", "2.0",
                   "--output", str(out), "--emit-plot"])
        assert rc == 0
        script = out.with_suffix(".csv.plot.py")
        assert script.exists() and "matplotlib" in script.read_text()


class TestCmdShift:
    def test_golden_file(self, tmp_path):
        out = tmp_path / "shift.csv"
        rc = main(["shift", "--scene", CANONICAL, "--n", "64",
                   "--kappa-min", "0.5", "--kappa-max", "3",
                   "--kappa-count", "4", "--output", str(out)])
        assert rc == 0
        got = out.read_text().splitlines()
        ref = open(os.path.join(DATA, "golden_shift.csv")).read().splitlines()
        assert got[0] == ref[0]
        for g, r in zip(got[1:], ref[1:]):
            gc = [float(v) for v in g.split(",")]
            rc_ = [float(v) for v in r.split(",")]
            tol = 5 * max(gc[3], rc_[3]) + 1e-10
            assert abs(gc[1] - rc_[1]) <= tol

    def test_tol_rejected(self, capsys):
        # shift reads no tolerance, so the flag is not registered
        with pytest.raises(SystemExit) as exc:
            main(["shift", "--scene", CANONICAL, "--tol", "1e-3"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_single_obstacle_zeros(self, tmp_path):
        out = tmp_path / "shift.csv"
        rc = main(["shift", "--scene", KITE, "--n", "64", "--kappa-count", "3",
                   "--kappa-min", "0.5", "--kappa-max", "2",
                   "--output", str(out)])
        assert rc == 0
        for row in out.read_text().splitlines()[1:]:
            assert float(row.split(",")[1]) == 0.0


class TestEnergyCommands:
    @pytest.mark.parametrize("error, code", [(UnresolvedGridError, 5),
                                             (ConvergenceError, 3)])
    def test_exit_code_of_a_failed_integral(self, monkeypatch, capsys, error, code):
        def fail(*args):
            raise error("spectral quadrature did not converge")

        monkeypatch.setattr(cli, "casimir_energy", fail)
        assert main(["energy", "--scene", CANONICAL, "--n", "64"]) == code
        assert capsys.readouterr().err.startswith("error: spectral quadrature")

    def test_power_half_equals_energy(self, tmp_path):
        e_out, p_out = tmp_path / "e.json", tmp_path / "p.json"
        assert main(["energy", "--scene", CANONICAL, "--n", "64",
                     "--output", str(e_out)]) == 0
        assert main(["power", "--scene", CANONICAL, "--n", "64", "--s", "0.5",
                     "--output", str(p_out)]) == 0
        e = json.load(open(e_out))
        p = json.load(open(p_out))
        assert p["value"] == pytest.approx(e["value"], rel=1e-10)
        assert e["quad_err"] >= 0 and e["tail_bound"] >= 0

    def test_scaled_scene_energy_halves(self, tmp_path):
        doc = json.load(open(CANONICAL))
        for ob in doc["obstacles"]:
            ob["center"] = [2 * c for c in ob["center"]]
            ob["radius"] = 2 * ob["radius"]
        scaled = tmp_path / "scaled.json"
        scaled.write_text(json.dumps(doc))
        e1, e2 = tmp_path / "e1.json", tmp_path / "e2.json"
        assert main(["energy", "--scene", CANONICAL, "--n", "64",
                     "--output", str(e1)]) == 0
        assert main(["energy", "--scene", str(scaled), "--n", "64",
                     "--output", str(e2)]) == 0
        v1 = json.load(open(e1))
        v2 = json.load(open(e2))
        tol = v1["quad_err"] + v2["quad_err"]
        assert abs(v2["value"] - v1["value"] / 2) <= max(tol, 1e-6 * abs(v1["value"]))

    def test_samples_dump(self, tmp_path, q_assemblies):
        out = tmp_path / "e.json"
        assert main(["energy", "--scene", CANONICAL, "--n", "64",
                     "--samples", "--output", str(out)]) == 0
        kappas = np.array([k for k, _ in json.load(open(out))["samples"]])
        # one sample per Xi evaluation, distinct and sorted, spanning the
        # default range [1e-6 / gap, 30 / (0.9 gap)] with gap 2
        assert kappas.size == q_assemblies[0]
        assert np.all(np.diff(kappas) > 0)
        assert (kappas[0], kappas[-1]) == (KAPPA_MIN_FACTOR / 2.0,
                                           30.0 / (0.9 * 2.0))

    def test_disc_err_follows_tail_bound(self, tmp_path):
        out = tmp_path / "out.json"
        for argv in (["energy"], ["power", "--s", "0.25"], ["force"],
                     ["tracedf", "--a", "1.0", "--t", "4.0"]):
            assert main([*argv, "--scene", CANONICAL, "--n", "64",
                         "--output", str(out)]) == 0
            # the writer sorts the keys
            payload = json.load(open(out))
            assert list(payload) == ["config", "disc_err", "quad_err",
                                     "tail_bound", "value"]
            assert payload["disc_err"] > 0

    def test_tracedf_vs_committed_cross_value(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["tracedf", "--scene", CANONICAL, "--a", "1.0",
                     "--t", "4.0", "--output", str(out)]) == 0
        val = json.load(open(out))["value"]
        assert val == pytest.approx(BK_CROSS_VALUE, rel=1e-3)

    def test_force_needs_two_obstacles(self, tmp_path):
        assert main(["force", "--scene", KITE, "--output", "-"]) == 3

    def test_force_attractive(self, tmp_path, canonical_force_reference):
        out = tmp_path / "f.json"
        assert main(["force", "--scene", CANONICAL, "--n", "48",
                     "--output", str(out)]) == 0
        payload = json.load(open(out))
        assert payload["value"] < 0
        assert payload["config"]["sign_convention"].startswith("negative")
        # exact in the separation: no step, and the partial-wave value
        assert "h" not in payload["config"]
        assert abs(payload["value"] - canonical_force_reference) <= 1e-9
        assert payload["quad_err"] > 0
        assert payload["tail_bound"] >= 0


#: flag values outside their command's domain, checked before any work
BAD_FLAGS = {
    "power_s_above_one": ["power", "--s", "2"],
    "tracedf_a_negative": ["tracedf", "--a", "-1", "--t", "4"],
    "tracedf_t_negative": ["tracedf", "--a", "1", "--t", "-1"],
    "tracedf_theta_wide": ["tracedf", "--a", "1", "--t", "4", "--theta", "1.0"],
    "xi_count_negative": ["xi", "--kappa-count", "-1"],
    "shift_count_zero": ["shift", "--kappa-count", "0"],
    "xi_kappa_max_infinite": ["xi", "--kappa-max", "inf"],
    "energy_tol_negative": ["energy", "--tol", "-1"],
    "energy_tol_infinite": ["energy", "--tol", "inf"],
    "tracedf_t_infinite": ["tracedf", "--a", "1", "--t", "inf"],
}


class TestFlagDomains:
    @pytest.mark.parametrize("argv", BAD_FLAGS.values(), ids=BAD_FLAGS.keys())
    def test_out_of_domain_exit_code(self, capsys, q_assemblies, argv):
        try:
            code = main(argv + ["--scene", CANONICAL, "--n", "32", "--output", "-"])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "error: " in capsys.readouterr().err
        assert q_assemblies[0] == 0


class TestValidate:
    def test_quick_suites_pass(self, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["validate", "specfun", "--output", str(out)]) == 0
        assert main(["validate", "nullity", "--output", str(out)]) == 0
        text = out.read_text()
        assert "PASS" in text and "FAIL" not in text

    def test_full_suite_passes(self, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["validate", "all", "--output", str(out)]) == 0
        assert out.read_text().count("PASS") == 5

    def test_suite_above_its_bound_fails(self, tmp_path, monkeypatch):
        # one suite over its bound: exit 4, its line shows the figure, and
        # the other suites still run and pass
        _, bound, label = cli._SUITES["scaling"]
        monkeypatch.setitem(cli._SUITES, "scaling", (lambda: 3 * bound, bound, label))
        out = tmp_path / "report.txt"
        assert main(["validate", "all", "--output", str(out)]) == 4
        lines = out.read_text().splitlines()
        assert lines[2] == f"FAIL scaling: {label} 3.00e-10 > 1e-10"
        assert len(lines) == 5
        assert all(line.startswith("PASS ") for i, line in enumerate(lines) if i != 2)
