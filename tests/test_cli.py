"""End-to-end CLI tests: subcommands, formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ckl.cli as cli
from ckl.errors import NumericsError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCatalog:
    def test_lists_builtins(self, capsys):
        code, out, err = run(capsys, "catalog")
        assert code == 0
        rows = json.loads(out)
        ids = {r["id"] for r in rows}
        assert {"sphere2", "sphere3", "torus", "spheroid", "plane",
                "quadric411"} <= ids


class TestCurvature:
    def test_quadric_report(self, capsys):
        code, out, _ = run(capsys, "curvature", "--manifold", "quadric411",
                           "--point", "0:0,0,0")
        assert code == 0
        data = json.loads(out)
        assert data["principal_curvatures"] == [4.0, 1.0, 1.0]
        assert data["equicurvature_residual"] == 0.0
        assert data["scalar_curvature"] == 18.0

    def test_from_description_file(self, capsys, tmp_path):
        spec = tmp_path / "m.txt"
        spec.write_text("type=torus R=2.0 r=1.0\n")
        code, out, _ = run(capsys, "curvature", "--manifold", str(spec),
                           "--point", "0.3,0.0")
        assert code == 0
        data = json.loads(out)
        assert data["scalar_curvature"] == pytest.approx(2.0 / 3.0, rel=1e-10)


class TestOperator:
    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "operator", "--manifold", "torus",
                           "--point", "0.3,0.0", "--eps", "0.01,0.005",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eps,value,tail_bound"
        assert len(lines) == 3
        eps, value, tail = (float(t) for t in lines[1].split(","))
        assert eps == 0.01
        assert value == pytest.approx(1.0 + 0.01 / 9.0, abs=1e-4)
        assert tail >= 0.0

    def test_json_with_monte_carlo(self, capsys):
        code, out, _ = run(capsys, "operator", "--manifold", "sphere2",
                           "--eps", "0.05", "--mc", "2000", "--seed", "7")
        assert code == 0
        data = json.loads(out)
        assert len(data["samples"]) == 1
        assert len(data["monte_carlo"]) == 1
        assert data["monte_carlo"][0]["seed"] == 7

    def test_byte_identical_reruns(self, capsys):
        args = ("operator", "--manifold", "sphere2", "--eps", "0.05,0.025",
                "--mc", "2000", "--seed", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "ladder.csv"
        code, out, _ = run(capsys, "operator", "--manifold", "sphere2",
                           "--eps", "0.05", "--format", "csv",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("eps,value,tail_bound")


class TestExpand:
    def test_sphere_const_q1(self, capsys):
        code, out, _ = run(capsys, "expand", "--manifold", "sphere2",
                           "--f", "const1", "--Q", "1")
        assert code == 0
        data = json.loads(out)
        assert data["a"][0] == pytest.approx(1.0, abs=1e-6)
        assert abs(data["a"][1]) <= 1e-3
        assert data["closed_form"] == {"a0": 1.0, "a1": 0.0}
        assert data["passed"] is True

    def test_richardson_method(self, capsys):
        code, out, _ = run(capsys, "expand", "--manifold", "sphere2",
                           "--f", "ambient:3", "--point", "0.9273,1.0",
                           "--Q", "2", "--method", "richardson")
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "richardson"
        assert data["a"][1] == pytest.approx(data["closed_form"]["a1"],
                                             rel=0.02)


class TestScan:
    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "equicurved-scan", "--manifold", "torus",
                           "--grid", "12x8")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ("chart,s1,s2,kappa_1,kappa_2,e1,e2,residual,"
                            "spread,class")
        assert len(lines) == 1 + 12 * 8

    def test_quadric_origin_in_zero_set(self, capsys):
        code, out, _ = run(capsys, "equicurved-scan", "--manifold",
                           "quadric411", "--grid", "8x8x8",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        hits = [r for r in data["zero_set"]
                if np.linalg.norm(r["coords"]) < 1e-12]
        assert len(hits) == 1
        assert hits[0]["kappas"] == [4.0, 1.0, 1.0]

    def test_grid_validation(self, capsys):
        code, _, err = run(capsys, "equicurved-scan", "--manifold", "torus",
                           "--grid", "12")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "validation"

    def test_stdout_and_file_bytes_equal(self, capsys, tmp_path):
        argv = ["equicurved-scan", "--manifold", "sphere2", "--grid", "8x4"]
        code, out, _ = run(capsys, *argv, "--out", "-")
        assert code == 0
        path = tmp_path / "scan.csv"
        assert cli.main(argv + ["--out", str(path)]) == 0
        assert out.encode("utf-8") == path.read_bytes()


def assert_one_validation_line(code, out, err):
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == "validation"


class TestFunctionSpecs:
    def test_poly_field(self, capsys):
        code, out, _ = run(capsys, "operator", "--manifold", "plane",
                           "--point", "0.0,0.0", "--f", "poly:2:(2,0)",
                           "--eps", "0.002", "--format", "csv")
        assert code == 0
        # K_eps (2 s1^2) at the origin of the plane: 2 * 2 eps = 4 eps
        value = float(out.strip().split("\n")[1].split(",")[1])
        assert value == pytest.approx(4 * 0.002, rel=1e-6)

    def test_unknown_spec(self, capsys):
        code, _, err = run(capsys, "operator", "--manifold", "plane",
                           "--f", "sin:1")
        assert code == 1
        assert "unknown function spec" in json.loads(err)["error"]["message"]


class TestErrors:
    def test_unknown_manifold(self, capsys):
        code, _, err = run(capsys, "curvature", "--manifold", "klein")
        assert code == 1
        msg = json.loads(err)["error"]
        assert msg["type"] == "validation"
        assert "klein" in msg["message"]

    def test_bad_eps(self, capsys):
        code, _, err = run(capsys, "operator", "--manifold", "sphere2",
                           "--eps", "0.1,-0.2")
        assert code == 1

    def test_point_outside_domain(self, capsys):
        code, _, err = run(capsys, "curvature", "--manifold", "quadric411",
                           "--point", "3,0,0")
        assert code == 1
        # the only chart index is 0
        code, out, err = run(capsys, "curvature", "--manifold", "torus",
                             "--point", "1:0.3,0.0")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["type"] == "validation"

    @pytest.mark.parametrize("order", ["1", "0", "513"])
    def test_order_below_two_rejected(self, capsys, order):
        # every rule, windowed or full, needs at least 2 nodes per axis, and
        # a 2-d chart allows at most 512
        for argv in (("operator", "--eps", "0.001"), ("expand",)):
            code, out, err = run(capsys, *argv, "--manifold", "torus",
                                 "--order", order, "--point", "0.3,0.0")
            assert code == 1
            assert out == ""
            assert err.count("\n") == 1
            assert json.loads(err)["error"]["type"] == "validation"

    def test_nonfinite_field_is_numerics_error(self, capsys):
        # inf - inf in f must not print nan with exit 0
        code, out, err = run(capsys, "operator", "--manifold", "plane",
                             "--f", "poly:1e308:(2,0),-1e308:(0,2)",
                             "--eps", "0.1,0.001", "--format", "csv")
        assert code == 2
        assert out == ""
        last = err.strip().split("\n")[-1]
        assert json.loads(last)["error"]["type"] == "NumericsError"

    @pytest.mark.parametrize("argv", [
        ("operator", "--eps", "inf"),
        ("operator", "--eps", "nan"),
        ("operator", "--eps", "0.1,inf"),
        ("expand", "--eps0", "inf"),
        ("expand", "--eps0", "0"),
        ("operator", "--mc", "2000", "--seed", "-1", "--eps", "0.1"),
        ("operator", "--mc", "0", "--eps", "0.1"),
        ("operator", "--mc", "1000001", "--eps", "0.1"),
    ], ids=["inf", "nan", "0.1,inf", "eps0=inf", "eps0=0", "seed=-1", "mc=0",
            "mc=1000001"])
    def test_nonfinite_eps_rejected(self, capsys, argv):
        # bandwidths and the Monte Carlo seed and sample count are
        # range-checked at parse time
        command, *rest = argv
        assert_one_validation_line(*run(capsys, command, "--manifold",
                                        "sphere2", *rest))

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tol_eq_rejected(self, capsys, tol):
        assert_one_validation_line(*run(
            capsys, "equicurved-scan", "--manifold", "torus", "--grid", "4x4",
            "--tol-eq", tol))

    def test_bad_thread_count_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("CKL_THREADS", "abc")
        assert_one_validation_line(*run(
            capsys, "equicurved-scan", "--manifold", "torus", "--grid", "4x4"))

    @pytest.mark.parametrize("command", ["curvature", "operator"])
    def test_nonfinite_description_field_rejected(self, capsys, tmp_path, command):
        # a non-finite field is refused before any geometry runs
        path = tmp_path / "torus.txt"
        path.write_text("type=torus R=inf r=1\n", encoding="utf-8")
        code, out, err = run(capsys, command, "--manifold", str(path),
                             "--point", "0.3,0.0")
        assert_one_validation_line(code, out, err)
        assert "R='inf'" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("argv, description", [
        (["curvature"], "type=sphere radius=1e308"),
        (["operator"], "type=sphere radius=1e308"),
        (["curvature"], "type=graph d=2 poly=1e308:(2,0) box=1e308"),
        (["equicurved-scan", "--grid", "8x4"], "type=sphere radius=1e308"),
    ], ids=["curvature-sphere", "operator-sphere", "curvature-graph",
            "scan-sphere"])
    def test_overflowing_geometry_is_numerics_error(
            self, capsys, tmp_path, monkeypatch, argv, description):
        # finite but huge inputs overflow inside numpy, in the scan's worker
        # threads too: one JSON line, exit 2
        monkeypatch.setenv("CKL_THREADS", "2")
        path = tmp_path / "huge.txt"
        path.write_text(description + "\n", encoding="utf-8")
        code, out, err = run(capsys, argv[0], "--manifold", str(path),
                             *argv[1:])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["type"] == "NumericsError"

    def test_numerics_exit_code(self, capsys, monkeypatch):
        def boom(args):
            raise NumericsError("synthetic numerical failure")
        monkeypatch.setitem(cli._DISPATCH, "catalog", boom)
        code, _, err = run(capsys, "catalog")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "NumericsError"


def test_import_is_numpy_only():
    # the runtime needs numpy alone: neither sympy nor scipy is loaded
    code = ("import sys, ckl, ckl.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('sympy', 'scipy')))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestVerify:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("CHECK")
        assert all(" FAIL " not in line for line in lines)
        assert lines[-1].endswith("checks passed")
