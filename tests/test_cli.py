"""End-to-end CLI tests: subcommands, formats, determinism, exit codes."""

import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ckl.cli as cli
import ckl.hypersurface as hypersurface
import ckl.verify as verify
from ckl.catalog import catalog_manifold
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
        assert lines[0] == "eps,value,tail_bound,quad_error"
        assert len(lines) == 3
        eps, value, tail, quad_error = (float(t) for t in lines[1].split(","))
        assert eps == 0.01
        assert value == pytest.approx(1.0 + 0.01 / 9.0, abs=1e-4)
        assert tail >= 0.0 and quad_error >= 0.0

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
        assert target.read_text().startswith("eps,value,tail_bound,quad_error")


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
        # the axis count, the cells per axis and the node cap are checked by
        # scan_equicurved, before any grid array is built
        for grid in ("12", "12x8x4", "1x8", "100000x100000",
                     "1000000000000x2"):
            code, out, err = run(capsys, "equicurved-scan", "--manifold",
                                 "torus", "--grid", grid)
            assert code == 1 and out == "", grid
            assert len(err.splitlines()) == 1
            assert json.loads(err)["error"]["type"] == "validation"

    def test_stdout_and_file_bytes_equal(self, capsys, tmp_path):
        argv = ["equicurved-scan", "--manifold", "sphere2", "--grid", "8x4"]
        code, out, _ = run(capsys, *argv, "--out", "-")
        assert code == 0
        path = tmp_path / "scan.csv"
        assert cli.main(argv + ["--out", str(path)]) == 0
        assert out.encode("utf-8") == path.read_bytes()

    def test_csv_blocks_match_per_value_format(self):
        # columns of few distinct values go through a string table, the rest
        # are formatted a block at a time; both must print what %.17g prints,
        # in a last block that is full, partial, or the only one, and the
        # class column prints every code's name, degenerate (8) included
        names = hypersurface.CLASS_NAMES
        specials = np.array([0.0, -0.0, math.nan, -np.float64(math.nan),
                             5e-324, 1.7976931348623157e308, 1.0,
                             np.nextafter(1.0, 2.0)])
        for n in (2 * cli._CSV_BLOCK_ROWS + 5, cli._CSV_BLOCK_ROWS, 11):
            rng = np.random.default_rng(3)
            mixed = rng.standard_normal(n)
            mixed[::97] = np.resize(specials, mixed[::97].size)
            columns = [rng.choice(specials, n), np.full(n, 0.25),
                       rng.standard_normal(n), np.resize(specials, n)[::-1],
                       mixed]
            shares = [np.unique(c.view(np.int64)).size / n for c in columns]
            assert min(shares) <= cli._CSV_TABLE_MAX_SHARE < max(shares)
            codes = (np.arange(n) % len(names)).astype(np.uint8)
            labels = [names[c] for c in codes]
            text = b"".join(cli._csv(["a", "b"], ["0", *columns,
                                                  (names, codes)])
                            ).decode("ascii")
            rows = ["0," + "".join("%.17g," % col[i] for col in columns)
                    + labels[i] + "\n" for i in range(n)]
            assert text == "a,b\n" + "".join(rows)
            assert {"0", "-0", "nan", "4.9406564584124654e-324",
                    "1.7976931348623157e+308", "1", "1.0000000000000002",
                    "degenerate"} <= set(text.replace("\n", ",").split(","))

    def test_nan_grid_row_prints_nan(self, capsys, monkeypatch):
        grid_pass = hypersurface._grid_pass

        def nan_first_row(*args, **kwargs):
            out = grid_pass(*args, **kwargs)
            out[0][0] = math.nan
            return out

        monkeypatch.setattr(hypersurface, "_grid_pass", nan_first_row)
        code, out, _ = run(capsys, "equicurved-scan", "--manifold", "plane",
                           "--grid", "2x2")
        assert code == 0
        first = out.split("\n")[1].split(",")
        assert first[3:] == ["nan"] * 6 + ["generic"]


@pytest.mark.parametrize("argv", [
    ["equicurved-scan", "--manifold", "sphere2", "--grid", "8x4"],
    ["equicurved-scan", "--manifold", "quadric411", "--grid", "4x4x4",
     "--format", "json"],
    ["verify"],
], ids=["scan-csv", "scan-json", "verify"])
def test_stdout_bytes_equal_file_bytes(argv, capsysbinary, tmp_path):
    assert cli.main(argv + ["--out", "-"]) == 0
    out = capsysbinary.readouterr().out
    path = tmp_path / "out"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert out == path.read_bytes() and out


def reference_json(obj):
    """What the CLI's JSON must equal, numpy scalars as their Python values."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
                      default=lambda o: o.item()) + "\n"


JSON_KEYS = st.text(st.sampled_from('ab"\\\n\t\x00\x1f\x7f é€😀%/'),
                    max_size=4)
JSON_FLOATS = st.floats(allow_nan=False, allow_infinity=False) \
    | st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e22, 0.1, 1.0])
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | JSON_FLOATS
                | JSON_KEYS | JSON_FLOATS.map(np.float64)
                | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
                | st.booleans().map(np.bool_))
JSON_PAYLOADS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=20)


@st.composite
def row_tables(draw):
    """A ``_Rows`` table and the list of dicts it must print as.

    Column ``p`` draws from a pool of two values, so that it is formatted
    through a table of its distinct values when they are few enough.
    """
    n = draw(st.integers(0, 7))
    width = draw(st.integers(0, 3))
    floats = st.lists(JSON_FLOATS, min_size=n, max_size=n)
    vector = np.array(draw(floats))
    pool = st.sampled_from(draw(st.lists(JSON_FLOATS, min_size=2,
                                         max_size=2)))
    pooled = np.array(draw(st.lists(pool, min_size=n, max_size=n)), dtype=float)
    matrix = np.array([draw(floats) for _ in range(width)]).T.reshape(n, width)
    names = draw(st.lists(JSON_KEYS, min_size=1, max_size=3))
    codes = np.array(draw(st.lists(st.integers(0, len(names) - 1),
                                   min_size=n, max_size=n)), dtype=np.uint8)
    shared = draw(st.dictionaries(st.sampled_from(["chart", "%s", "z"]),
                                  JSON_PAYLOADS, max_size=2))
    label = draw(st.sampled_from(["class", "a%"]))
    shared.pop(label, None)
    table = cli._Rows({"v": vector, "m": matrix, "p": pooled},
                      (label, codes, names), shared)
    rows = [{"v": vector[i], "m": list(matrix[i]), "p": pooled[i],
             label: names[codes[i]], **shared} for i in range(n)]
    return table, rows


class TestJsonWriter:
    @settings(max_examples=300)
    @given(JSON_PAYLOADS)
    def test_matches_json_dumps(self, obj):
        assert b"".join(cli._json(obj)).decode() == reference_json(obj)

    @settings(max_examples=200)
    @given(row_tables(), st.integers(1, 4))
    def test_row_tables_match_json_dumps(self, table_rows, block_rows):
        # blocks of a few rows, so that a table spans several
        table, rows = table_rows
        with mock.patch.object(cli, "_CSV_BLOCK_ROWS", block_rows):
            text = b"".join(cli._json({"rows": table, "n": [table]}))
        assert text.decode() == reference_json({"rows": rows, "n": [rows]})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_anywhere_raises_before_output(self, bad):
        table = cli._Rows({"v": np.array([0.0, bad])},
                          ("c", np.zeros(2, dtype=np.uint8), ["x"]), {})
        for payload in ({"a": [1.0, {"b": bad}]}, [np.float64(bad)],
                        {"a": "x", "rows": table}):
            with pytest.raises(NumericsError):
                cli._json(payload)

    @pytest.mark.parametrize("poison", ["refined", "zero_set", "scalar"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_scan_writes_nothing(self, capsys, monkeypatch,
                                           tmp_path, poison, bad):
        scan_equicurved = cli.scan_equicurved

        def poisoned(*args, **kwargs):
            scan = scan_equicurved(*args, **kwargs)
            refined = scan.refined
            if poison == "refined":
                kappas = refined.kappas.copy()
                kappas[-1, 1] = bad
                refined = refined._replace(kappas=kappas)
            e2, residual = scan.e2.copy(), scan.residual.copy()
            if poison == "zero_set":
                e2[scan.zero_index[-1]] = bad
            elif poison == "scalar":
                # outside the zero set: only residual_max sees it
                residual[np.argmax(np.abs(residual))] = bad
            return dataclasses.replace(scan, refined=refined, e2=e2,
                                       residual=residual)

        monkeypatch.setattr(cli, "scan_equicurved", poisoned)
        out = tmp_path / "scan.json"
        code, stdout, err = run(capsys, "equicurved-scan", "--manifold",
                                "quadric411", "--grid", "4x4x4", "--format",
                                "json", "--out", str(out))
        assert code == 2 and stdout == "" and not out.exists()
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["type"] == "NumericsError"


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
        # bandwidths are range-checked at parse time, --eps0 by the ladder
        # and the Monte Carlo seed and sample count by the sampler
        command, *rest = argv
        assert_one_validation_line(*run(capsys, command, "--manifold",
                                        "sphere2", *rest))

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tol_eq_rejected(self, capsys, tol):
        assert_one_validation_line(*run(
            capsys, "equicurved-scan", "--manifold", "torus", "--grid", "4x4",
            "--tol-eq", tol))

    @pytest.mark.parametrize("manifold, point", [
        ("torus", "nan,0.3"), ("sphere2", "1.0,inf")],
        ids=["torus-nan", "sphere2-inf"])
    def test_nonfinite_point_rejected(self, capsys, manifold, point):
        # a periodic axis has no bounds to check, so finiteness is checked
        # on its own, before the coordinate is wrapped
        assert_one_validation_line(*run(capsys, "curvature", "--manifold",
                                        manifold, "--point=" + point))

    @pytest.mark.parametrize("argv, description", [
        (["operator"], "type=graph d=0"),
        (["curvature"], "type=graph d=0"),
        (["operator", "--eps", "0.1"], "type=graph d=6 poly=x1^2"),
    ], ids=["operator-d0", "curvature-d0", "operator-d6"])
    def test_unbuildable_description_rejected(self, capsys, tmp_path, argv,
                                              description):
        # a box with no axes, and a 64^6-node rule, are refused before any
        # array is built
        path = tmp_path / "graph.txt"
        path.write_text(description + "\n", encoding="utf-8")
        assert_one_validation_line(*run(capsys, argv[0], "--manifold",
                                        str(path), *argv[1:]))

    def test_unopenable_out_rejected(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "catalog", "--out", str(target))
        assert_one_validation_line(code, out, err)
        assert "--out" in json.loads(err)["error"]["message"]

    def test_monte_carlo_needs_json(self, capsys):
        # the CSV table has no Monte Carlo column
        assert_one_validation_line(*run(
            capsys, "operator", "--manifold", "sphere2", "--eps", "0.1",
            "--mc", "1000", "--format", "csv"))

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
            self, capsys, tmp_path, argv, description):
        # finite but huge inputs overflow inside numpy: one JSON line, exit 2
        path = tmp_path / "huge.txt"
        path.write_text(description + "\n", encoding="utf-8")
        code, out, err = run(capsys, argv[0], "--manifold", str(path),
                             *argv[1:])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["type"] == "NumericsError"

    def test_singular_scan_metric_is_one_error_line(self, capsys, tmp_path):
        # a metric that underflows to singular has no curvatures to report
        path = tmp_path / "tiny.txt"
        path.write_text("type=sphere radius=1e-200\n", encoding="utf-8")
        code, out, err = run(capsys, "equicurved-scan", "--manifold",
                             str(path), "--grid", "4x4")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["type"] == "DegenerateChartError"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_singular_metric_at_a_node_is_one_error_line(
            self, capsys, zero_column_at, fmt):
        # one torus node's Jacobian loses a column; a division by its zero
        # pivot would surface as a NumericsError
        zero_column_at(hypersurface.scan_equicurved(
            catalog_manifold("torus"), [8, 4], refine=False).coords[13])
        with np.errstate(divide="raise"):
            code, out, err = run(capsys, "equicurved-scan", "--manifold",
                                 "torus", "--grid", "8x4", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["type"] == "DegenerateChartError"

    @pytest.mark.parametrize("description, grid, error", [
        ("type=sphere radius=1e-60", "8x4", None),
        ("type=sphere radius=1e-100", "8x4", None),
        ("type=sphere radius=1e-60 dim=3", "4x4x4", None),
        ("type=sphere radius=1e-100 dim=3", "4x4x4", None),
        ("type=sphere radius=1e-160", "8x4", "DegenerateChartError"),
        ("type=sphere radius=1e-160 dim=3", "4x4x4", "DegenerateChartError"),
        ("type=sphere radius=1e-200", "8x4", "DegenerateChartError"),
        ("type=sphere radius=1e-200 dim=3", "4x4x4", "DegenerateChartError"),
        ("type=sphere radius=1e100", "8x4", "NumericsError"),
        ("type=sphere radius=1e100 dim=3", "4x4x4", "NumericsError"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_scan_at_extreme_scales(self, capsys, tmp_path, description,
                                    grid, error, fmt):
        # tiny spheres scan (their nodes may all sit at the metric floor)
        # until the metric itself underflows; huge ones overflow.  Either
        # failure is one JSON line with exit 2, never a raw numpy warning
        path = tmp_path / "sphere.txt"
        path.write_text(description + "\n", encoding="utf-8")
        code, out, err = run(capsys, "equicurved-scan", "--manifold",
                             str(path), "--grid", grid, "--format", fmt)
        if error is None:
            assert (code, err) == (0, "")
            assert out
            return
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["type"] == error

    @pytest.mark.parametrize("argv", [
        ("expand", "--manifold", "torus", "--point", "6.0,0.3",
         "--f", "poly:1:(1,0)"),
        ("operator", "--manifold", "sphere2", "--point", "1.0,6.1",
         "--f", "poly:1:(0,1)", "--eps", "0.01"),
    ], ids=["torus-u", "sphere2-phi"])
    def test_poly_on_periodic_axis_rejected(self, capsys, argv):
        # a chart polynomial in a periodic coordinate jumps at the seam
        code, out, err = run(capsys, *argv)
        assert_one_validation_line(code, out, err)
        assert "periodic" in json.loads(err)["error"]["message"]

    def test_poly_on_open_axis_accepted(self, capsys):
        code, out, _ = run(capsys, "operator", "--manifold", "sphere2",
                           "--point", "1.0,6.1", "--f", "poly:1:(1,0)",
                           "--eps", "0.01", "--format", "csv")
        assert code == 0
        assert out.startswith("eps,value,tail_bound,quad_error\n")

    def test_unresolved_monte_carlo_bandwidth(self, capsys):
        # at eps 1e-40 the Gaussian's nodes x + sigma z round onto a few
        # floats about x: the estimate read 8.27 +- 1.05 for a true 1.0
        base = ["operator", "--manifold", "sphere2", "--point", "1.1,2.0",
                "--mc", "1000"]
        code, out, err = run(capsys, *base, "--eps", "0.1,1e-40")
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["type"] == "NumericsError"
        # at 1e-24 each width is at least 3.6e3 roundings of its coordinate
        code, out, _ = run(capsys, *base, "--eps", "1e-24")
        assert code == 0
        (row,) = json.loads(out)["monte_carlo"]
        assert abs(row["estimate"] - 1.0) <= 5.0 * row["std_error"]

    def test_numerics_exit_code(self, capsys, monkeypatch):
        def boom(args):
            raise NumericsError("synthetic numerical failure")
        monkeypatch.setitem(cli._DISPATCH, "catalog", boom)
        code, _, err = run(capsys, "catalog")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "NumericsError"


def test_import_is_numpy_only():
    # the runtime needs numpy alone: neither sympy nor scipy is loaded, and
    # the exact series use integers, not fractions (which loads decimal)
    code = ("import sys, ckl, ckl.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('sympy', 'scipy', 'fractions', 'decimal', '_pydecimal')))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_json_scan_leaves_numpy_random_unloaded():
    # refined zeros are clustered along a fixed direction, so a JSON scan
    # loads numpy.random only if importing numpy already did (numpy < 2)
    code = ("import os, sys, numpy; "
            "before = 'numpy.random' in sys.modules; import ckl.cli; "
            "code = ckl.cli.main(['equicurved-scan', '--manifold', "
            "'quadric411', '--grid', '4x4x4', '--format', 'json', "
            "'--out', os.devnull]); "
            "print(code, before, 'numpy.random' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    code, before, after = out.split()
    assert code == "0"
    assert after == before
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        assert after == "False"


@pytest.mark.parametrize("argv", [
    ["operator", "--manifold", "sphere3"],
    ["operator", "--manifold", "torus"],
    # full boxes of 72 x 71 x 73 and 48 x 48 x 49 nodes at eps 0.003125
    ["expand", "--manifold", "quadric411", "--point", "0.1,0,-0.05",
     "--f", "ambient:4"],
], ids=["sphere3", "torus", "quadric411-expand"])
def test_default_operator_leaves_numpy_polynomial_unloaded(argv):
    # the rules a default sweep uses come from the package's table, so
    # numpy's quadrature generators load only if importing numpy did
    code = ("import os, sys, numpy; "
            "before = 'numpy.polynomial' in sys.modules; import ckl.cli; "
            f"code = ckl.cli.main({argv!r} + ['--out', os.devnull]); "
            "print(code, before, 'numpy.polynomial' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    code, before, after = out.split()
    assert code == "0"
    if before == "True":
        pytest.skip("importing numpy loads numpy.polynomial")
    assert after == "False"


def _chart_box(name):
    chart = cli.load_manifold(name).charts[0]
    return chart.lo, chart.hi


FUZZ_BOXES = {name: _chart_box(name) for name in sorted(cli.CATALOG)}
BAD_COORDS = st.one_of(st.floats(-4.0, 7.0), st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e300, -1e300]))
GOOD_EPS = st.sampled_from([0.1, 0.02, 0.003])
BAD_EPS = st.sampled_from([0.0, -0.1, math.nan, math.inf, -math.inf, 1e-300,
                           1e300])
BAD_FIELDS = st.sampled_from([
    "const:nan", "const:-inf", "const:1e308", "ambient:0", "ambient:9",
    "ambient:x", "poly:1:(1,0)", "poly:1:(0,1)", "poly:1e308:(2,0,0)",
    "poly:1:(1,0,0,0)", "poly:", "sin:1"])
SCAN_LABELS = {"flat", "umbilic", "equicurved", "generic", "degenerate"}


@st.composite
def cli_inputs(draw):
    """An argv for one numeric subcommand.

    Each input takes a bad value on about one draw in five, so that many
    runs get past validation and reach the numerics.
    """
    def pick(good, bad):
        return draw(bad if draw(st.integers(0, 4)) == 4 else good)

    command = draw(st.sampled_from(
        ["curvature", "operator", "expand", "equicurved-scan"]))
    manifold = draw(st.sampled_from(list(FUZZ_BOXES)))
    lo, hi = FUZZ_BOXES[manifold]
    argv = [command, "--manifold", manifold]
    if command == "equicurved-scan":
        cells = [draw(st.integers(1, 5)) for _ in lo]
        argv += ["--grid", "x".join(map(str, cells)),
                 "--format", draw(st.sampled_from(["csv", "json"]))]
    else:
        inside = st.tuples(*(st.floats(a, b) for a, b in zip(lo, hi)))
        # absent, inside the box, or the wrong length or non-finite, huge or
        # outside coordinates
        bad = st.integers(0, lo.size + 1).flatmap(
            lambda n: st.tuples(*[BAD_COORDS] * n))
        coords = pick(st.none() | inside, bad)
        if coords is not None:
            argv.append("--point=" + ",".join(map(repr, coords)))
    if command in ("operator", "expand"):
        square = "poly:2:(" + ",".join(["2"] + ["0"] * (lo.size - 1)) + ")"
        good = st.sampled_from(["const1", "const:2.5", "ambient:1", "ambient:3",
                                square])
        argv += ["--f=" + pick(good, BAD_FIELDS),
                 "--order=" + str(pick(st.integers(2, 12), st.integers(-1, 1)))]
    if command == "operator":
        eps = [pick(GOOD_EPS, BAD_EPS) for _ in range(draw(st.integers(0, 3)))]
        if eps:
            argv.append("--eps=" + ",".join(map(repr, eps)))
        mc = pick(st.none() | st.sampled_from([1000, 2000]),
                  st.sampled_from([0, 999]))
        if mc is not None:
            argv.append(f"--mc={mc}")
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    if command == "expand":
        argv += ["--eps0=" + repr(pick(GOOD_EPS, BAD_EPS)),
                 "--Q=" + str(pick(st.integers(1, 4), st.integers(-1, 0)))]
    return argv


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=150)
@given(cli_inputs())
def test_fuzzed_inputs_keep_the_error_contract(argv):
    # every input gives finite output with exit 0, or one JSON error line
    # with exit 1 or 2; nothing else reaches stdout or stderr
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    if err:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert set(json.loads(err)) == {"error"}
    if code != 0:
        assert err and out == ""
        return
    assert not err
    if out.startswith("{") or out.startswith("["):
        json.loads(out, parse_constant=_reject_constant)
        return
    for line in out.splitlines()[1:]:
        for field in line.split(","):
            assert field in SCAN_LABELS or math.isfinite(float(field)), line


def _perturbed(real, change):
    """``real`` with its result passed through ``change(result, *args)``."""
    return lambda *args: change(real(*args), *args)


class TestVerify:
    @staticmethod
    def failed_row(capsys, monkeypatch, row, name, change):
        """The verify line of ``row`` alone, with the library function
        ``name`` it calls perturbed by ``change``: the row must fail."""
        monkeypatch.setattr(verify, name,
                            _perturbed(getattr(verify, name), change))
        monkeypatch.setattr(verify, "CHECKS", {row: verify.CHECKS[row]})
        code, out, _ = run(capsys, "verify")
        line, total = out.strip().split("\n")[1:]
        assert code == 1 and total == "0/1 checks passed"
        assert line.split()[1] == "FAIL"
        return line

    def test_failed_check_names_its_case(self, capsys, monkeypatch):
        # every check passing is the verify.txt golden; a failing row exits 1
        # and its detail names the bandwidth that failed
        line = self.failed_row(
            capsys, monkeypatch, "sphere-operator-closed-form",
            "apply_operator", lambda out, M, f, x, eps, *rule:
            (out[0] + (1e-6 if eps == 0.025 else 0.0), out[1]))
        assert line.endswith("failed: eps=0.025")

    @pytest.mark.parametrize("row, name, change, case", [
        # the quadric is the only sweep fitted to degree 4
        ("leading-coefficients", "fit_polynomial",
         lambda rep, ladder, degree: rep if degree != 4 else
         dataclasses.replace(rep, coefficients=(
             rep.coefficients[0], rep.coefficients[1] + 0.01,
             *rep.coefficients[2:])), "quadric f=1"),
        # a term linear in s: the residual's slope on S3 falls to about 1
        ("volume-density-terms", "volume_density",
         lambda rho, M, x, v, s: rho + (1e-3 * s if M.dim == 3 else 0.0),
         "S3"),
        # only the torus case bounds the gap itself
        ("limit-criterion", "limit_criterion_check",
         lambda rep, *args: dataclasses.replace(rep, gap=rep.gap + 0.02),
         "torus f=1"),
    ], ids=["leading-coefficients", "volume-density-terms", "limit-criterion"])
    def test_acceptance_row_names_its_case(self, capsys, monkeypatch, row,
                                           name, change, case):
        line = self.failed_row(capsys, monkeypatch, row, name, change)
        assert line.endswith(f"failed: {case}")
