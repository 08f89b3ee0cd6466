"""Golden CLI outputs: each command must reproduce its recorded file byte for byte.

The files under ``golden/`` were written by ``ckl <argv> --out <file>``.
Regenerate one only for an intended output change, and say why in the commit.
"""

import hashlib
from pathlib import Path

import pytest

import ckl.cli as cli
import ckl.hypersurface as hypersurface

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "curvature_torus.json": ["curvature", "--manifold", "torus",
                             "--point", "0:0.3,0.7"],
    "scan_spheroid.json": ["equicurved-scan", "--manifold", "spheroid",
                           "--grid", "60x30", "--format", "json"],
    "scan_torus.csv": ["equicurved-scan", "--manifold", "torus",
                       "--grid", "40x20"],
    # golden-section dips on every grid line, snapped to both poles
    "scan_sphere2.json": ["equicurved-scan", "--manifold", "sphere2",
                          "--grid", "8x4", "--format", "json"],
    # one file per classification label, and the d = 3 column layout
    "scan_sphere2.csv": ["equicurved-scan", "--manifold", "sphere2",
                         "--grid", "8x4"],
    "scan_plane.csv": ["equicurved-scan", "--manifold", "plane",
                       "--grid", "4x4"],
    "scan_torus_tol.csv": ["equicurved-scan", "--manifold", "torus",
                           "--grid", "12x6", "--tol-eq", "0.6"],
    "scan_quadric.csv": ["equicurved-scan", "--manifold", "quadric411",
                         "--grid", "4x4x4"],
    # sign-change Illinois refinement along the edges of a d = 3 grid
    "scan_quadric.json": ["equicurved-scan", "--manifold", "quadric411",
                          "--grid", "4x4x4", "--format", "json"],
    "operator_torus.csv": ["operator", "--manifold", "torus",
                           "--point", "0.3,0.0", "--eps", "0.05,0.01",
                           "--format", "csv"],
    # fit and closed form; a1 holds the Laplacian of z on a non-constant metric
    "expand_torus_z.json": ["expand", "--manifold", "torus",
                            "--point", "0.3,0.7", "--f", "ambient:3"],
    # one full-atlas rule and one windowed rule on the closed-form S^3 volume element
    "operator_sphere3.csv": ["operator", "--manifold", "sphere3",
                             "--eps", "0.05,0.0125", "--format", "csv"],
    # the 18 detail strings of the invariant suite
    "verify.txt": ["verify"],
    # a clipped axis beside two Hermite axes; the target is met
    "operator_quadric_clipped.csv": ["operator", "--manifold", "quadric411",
                                     "--point", "0.95,0,0", "--eps", "1e-4",
                                     "--format", "csv"],
    # the ladder misses its target and the capped full box cannot resolve
    # the kernel: the last rule is kept, with the spread of its values
    "operator_quadric_edge.csv": ["operator", "--manifold", "quadric411",
                                  "--point", "0.9925,0,0", "--eps",
                                  "1e-4,1e-6", "--order", "2",
                                  "--format", "csv"],
    # unmet ladders at 0.2 and 0.05 fall back to escalated full boxes
    "operator_torus_seam.csv": ["operator", "--manifold", "torus",
                                "--point", "0.02,0.3", "--eps",
                                "0.2,0.05,0.01,0.001", "--format", "csv"],
    # orders accepted at the chord's rounding floor
    "operator_sphere2_tiny.csv": ["operator", "--manifold", "sphere2",
                                  "--point", "1.1,2.0", "--eps", "1e-8,1e-12",
                                  "--format", "csv"],
    # clipped and FULL axes near a pole
    "operator_spheroid_pole.csv": ["operator", "--manifold", "spheroid",
                                   "--point", "0.01,0.0", "--eps",
                                   "0.05,0.001,0.0001", "--format", "csv"],
    # Monte Carlo: a defensive mixture of the kernel's Gaussian and the box
    "operator_sphere2_mc.json": ["operator", "--manifold", "sphere2",
                                 "--eps", "0.05,0.01", "--mc", "2000",
                                 "--seed", "7"],
    # the default ladder: a shared 64^3 box, an escalated box, Hermite rules
    "operator_sphere3_ladder.csv": ["operator", "--manifold", "sphere3",
                                    "--format", "csv"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert cli.main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# The benchmark's 400x200 torus scan is 12.6 MB, too large to commit: its
# sha256 is pinned instead.
TORUS_400X200_SHA256 = (
    "796f50c1ab6652d314978fd575ff29cc536327ad4c5cee4538e25006571ecd16")


def test_large_scan_matches_digest(tmp_path):
    out = tmp_path / "scan.csv"
    assert cli.main(["equicurved-scan", "--manifold", "torus", "--grid",
                     "400x200", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TORUS_400X200_SHA256


# The benchmark's refined quadric scan, pinned the same way.
QUADRIC_20X20X20_SHA256 = (
    "52e44759b30d816a3f01b710cdb566349ddbe5ac24c4aa00d818136456b35967")


def test_quadric_refined_scan_matches_digest(tmp_path):
    out = tmp_path / "scan.json"
    assert cli.main(["equicurved-scan", "--manifold", "quadric411", "--grid",
                     "20x20x20", "--format", "json", "--out", str(out)]) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == QUADRIC_20X20X20_SHA256)


# A spheroid scan whose wide threshold starts a dip search on many lines.
SPHEROID_TOL_SHA256 = (
    "c017306cce79d7e85dee40615e1e74451bc03b44a15cddd49eefcb7f6c564081")


def test_spheroid_wide_threshold_scan_matches_digest(tmp_path):
    out = tmp_path / "scan.json"
    assert cli.main(["equicurved-scan", "--manifold", "spheroid", "--grid",
                     "60x30", "--format", "json", "--tol-eq", "1e-3",
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SPHEROID_TOL_SHA256


# Larger refined JSON scans: 4,705 refined zeros on quadric411 40^3, the 20^3
# scan with a zero threshold (no dip search starts), and a spheroid scan with
# a 600-row zero set.
JSON_SCAN_SHA256 = {
    ("quadric411", "40x40x40"):
        "e88449ce8a1bce98dd06863f38bbc5b9bfde142ba8c317a25b4385c1d1d14058",
    ("quadric411", "20x20x20", "--tol-eq", "0"):
        "9c4e6b6dd1edf29e68cfb1f27172dbcab10bc6dca59c0b1c26afd296b6557c20",
    ("spheroid", "200x100"):
        "c37b5976dafe279b68d1813343317493bd701dec5e229a133230aff29e88e0d4",
}


@pytest.mark.parametrize("spec", sorted(JSON_SCAN_SHA256), ids="_".join)
def test_refined_json_scan_matches_digest(spec, tmp_path):
    manifold, grid, *extra = spec
    out = tmp_path / "scan.json"
    assert cli.main(["equicurved-scan", "--manifold", manifold, "--grid", grid,
                     "--format", "json", *extra, "--out", str(out)]) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == JSON_SCAN_SHA256[spec])


# Monte Carlo over the default ladder: a window across both torus seams, the
# 3-sphere, a spheroid pole and a clipped quadric411 box.
MC_SHA256 = {
    ("torus", "--point", "6.2,0.05", "--f", "ambient:3"):
        "6a51bc911fa05eb3a915c9b53547fbb23d67a2700e536f9b71a6006ac3bc7e6b",
    ("sphere3", "--f", "ambient:4"):
        "ed795ecfb32658c49ac8bde4e170a7472915fff84750ec667c5fea01c2868e6b",
    ("spheroid", "--point", "0.05,1.0"):
        "14e5b32904116d83aa04eb59e173fabcd86babeba28039586ef661868f4bf1a2",
    ("quadric411", "--point", "0.95,0,0", "--f", "ambient:4"):
        "7181d0ba17d7226894a994e9a22a6b42bd01d298d7914d61cb71050928f63926",
}


@pytest.mark.parametrize("spec", sorted(MC_SHA256), ids="_".join)
def test_monte_carlo_ladder_matches_digest(spec, tmp_path):
    manifold, *extra = spec
    out = tmp_path / "mc.json"
    assert cli.main(["operator", "--manifold", manifold, *extra, "--mc", "5000",
                     "--seed", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MC_SHA256[spec]


# Full boxes whose field is an embedding column: quadric411's dense P(s) and
# an axis column s_1, and sphere3's dense x_0; the goldens above use f = 1.
FULL_BOX_FIELD_SHA256 = {
    ("operator", "quadric411", "--point", "0.1,0,-0.05", "--f", "ambient:4"):
        "3d94e263693a03d12f47b2fb37aece6e9dedfbd503e9b29be2cef0c37b90dd15",
    ("operator", "quadric411", "--point", "0.1,0,-0.05", "--f", "ambient:1"):
        "94569c60f273eaf915c25e2a2e600f3ff95e5c75d46fa3fc012b721944006e7a",
    ("operator", "sphere3", "--f", "ambient:1"):
        "1f78aae80894bfbd4b22ea4e8a3e621ca71f2c6966e898870ae1ba089d4d0b27",
    ("expand", "quadric411", "--point", "0.1,0,-0.05", "--f", "ambient:4"):
        "179495063ec556229caff0410dddcd589b15843a524d568f715cefae84dbfc0c",
}


@pytest.mark.parametrize("spec", sorted(FULL_BOX_FIELD_SHA256), ids="_".join)
def test_full_box_field_matches_digest(spec, tmp_path):
    command, manifold, *extra = spec
    out = tmp_path / "out"
    assert cli.main([command, "--manifold", manifold, *extra,
                     "--out", str(out)]) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == FULL_BOX_FIELD_SHA256[spec])


def test_only_json_scans_refine_zeros(tmp_path, monkeypatch):
    # CSV prints no refined zeros, so it must not compute them
    def no_refinement(*args):
        raise RuntimeError("zero refinement ran")

    monkeypatch.setattr(hypersurface, "_refine_zeros", no_refinement)
    argv = CASES["scan_sphere2.csv"]
    out = tmp_path / "scan_sphere2.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "scan_sphere2.csv").read_bytes()
    with pytest.raises(RuntimeError, match="zero refinement ran"):
        cli.main(argv + ["--format", "json", "--out", str(tmp_path / "s.json")])
