"""Golden CLI outputs: each command must reproduce its recorded file byte for byte.

The files under ``golden/`` were written by ``ckl <argv> --out <file>``.
Regenerate one only for an intended output change, and say why in the commit.
"""

import hashlib
from pathlib import Path

import pytest

import ckl.cli as cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "curvature_torus.json": ["curvature", "--manifold", "torus",
                             "--point", "0:0.3,0.7"],
    "scan_spheroid.json": ["equicurved-scan", "--manifold", "spheroid",
                           "--grid", "60x30", "--format", "json"],
    "scan_torus.csv": ["equicurved-scan", "--manifold", "torus",
                       "--grid", "40x20"],
    # one file per classification label, and the d = 3 column layout
    "scan_sphere2.csv": ["equicurved-scan", "--manifold", "sphere2",
                         "--grid", "8x4"],
    "scan_plane.csv": ["equicurved-scan", "--manifold", "plane",
                       "--grid", "4x4"],
    "scan_torus_tol.csv": ["equicurved-scan", "--manifold", "torus",
                           "--grid", "12x6", "--tol-eq", "0.6"],
    "scan_quadric.csv": ["equicurved-scan", "--manifold", "quadric411",
                         "--grid", "4x4x4"],
    "operator_torus.csv": ["operator", "--manifold", "torus",
                           "--point", "0.3,0.0", "--eps", "0.05,0.01",
                           "--format", "csv"],
    # fit and closed form; a1 holds the Laplacian of z on a non-constant metric
    "expand_torus_z.json": ["expand", "--manifold", "torus",
                            "--point", "0.3,0.7", "--f", "ambient:3"],
    # one full-atlas rule and one windowed rule on the determinant path
    "operator_sphere3.csv": ["operator", "--manifold", "sphere3",
                             "--eps", "0.05,0.0125", "--format", "csv"],
    # the 15 detail strings of the invariant suite
    "verify.txt": ["verify"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert cli.main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# The benchmark's 400x200 torus scan is 12.6 MB, too large to commit: its
# sha256 is pinned instead.
TORUS_400X200_SHA256 = (
    "78cdcb717a24c507cc32cd167cd4fef26098ce0d25e393e5978cd995d5242b8a")


def test_large_scan_matches_digest(tmp_path):
    out = tmp_path / "scan.csv"
    assert cli.main(["equicurved-scan", "--manifold", "torus", "--grid",
                     "400x200", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TORUS_400X200_SHA256


def test_threaded_scan_matches_golden(tmp_path, monkeypatch):
    monkeypatch.setenv("CKL_THREADS", "2")
    out = tmp_path / "scan_torus.csv"
    assert cli.main(CASES["scan_torus.csv"] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "scan_torus.csv").read_bytes()
