"""Golden CLI outputs: each command must reproduce its recorded file byte for byte.

The files under ``golden/`` were written by ``ckl <argv> --out <file>``.
Regenerate one only for an intended output change, and say why in the commit.
"""

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
    "operator_torus.csv": ["operator", "--manifold", "torus",
                           "--point", "0.3,0.0", "--eps", "0.05,0.01",
                           "--format", "csv"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert cli.main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
