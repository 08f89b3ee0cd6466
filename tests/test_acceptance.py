"""Acceptance suite: the paper's headline claims at their stated tolerances.

Criteria 1, 3, 4, 6, 7, 8 and 10 are rows of ``ckl.verify.CHECKS``, the
table ``ckl verify`` runs at ``FAST``; ``test_check_at_full_size`` runs every
row of that table at ``FULL``:

- 1: ``sphere-operator-closed-form``;
- 3: ``engine-three-sphere``;
- 4: ``chord-expansion-sphere``;
- 6: ``bell-generating-identity``, ``bell-vanishing-below-4k`` and
  ``sphere-moments-vs-monte-carlo``;
- 7: ``cp-lemma-bound``;
- 8: ``equicurvature-scans``;
- 10: ``curvature-propositions``.

Criteria 2, 5 and 9 have no ``verify`` counterpart and are plain tests here.
Each test prints a single ``PASS`` line (visible with ``pytest -s`` or in
captured output) after its assertions succeed.
"""

import math

import numpy as np
import pytest

from ckl.catalog import catalog_manifold
from ckl.fields import AmbientCoordField, ConstField
from ckl.fit import compare_closed_form, fit_polynomial
from ckl.manifold import ChartPoint, ricci_frame, volume_density
from ckl.operator import eps_sweep
from ckl.hypersurface import limit_criterion_check
from ckl.verify import CHECKS, FULL

S2 = catalog_manifold("sphere2")
S3 = catalog_manifold("sphere3")
TORUS = catalog_manifold("torus")
QUADRIC = catalog_manifold("quadric411")

EQUATOR = ChartPoint(0, [math.pi / 2, 1.0])
Z06 = ChartPoint(0, [math.acos(0.6), 1.0])
S3_POINT = ChartPoint(0, [math.pi / 2, math.pi / 2, 1.0])
TORUS_OUTER = ChartPoint(0, [0.3, 0.0])
QUADRIC_ORIGIN = ChartPoint(0, [0.0, 0.0, 0.0])

ONE = ConstField(1.0)
Z_FIELD = AmbientCoordField(3, 3)

LADDER8 = [0.1 * 2.0 ** -k for k in range(8)]
# the quadric's higher coefficients grow like kappa^2 per order; its ladder
# runs to the resolvability floor at a higher quadrature order
QUADRIC_LADDER = [1.1313708498984761e-3 * 2.0 ** (-k / 2.0) for k in range(8)]


@pytest.fixture(scope="module")
def sphere_const_ladder():
    return eps_sweep(S2, ONE, EQUATOR, LADDER8, f_id="const:1")


@pytest.fixture(scope="module")
def sphere_z_ladder():
    return eps_sweep(S2, Z_FIELD, Z06, LADDER8, f_id="ambient:3")


@pytest.fixture(scope="module")
def s3_ladder():
    return eps_sweep(S3, ONE, S3_POINT, LADDER8, f_id="const:1")


@pytest.fixture(scope="module")
def torus_ladder():
    return eps_sweep(TORUS, ONE, TORUS_OUTER, LADDER8, f_id="const:1")


@pytest.fixture(scope="module")
def quadric_ladder():
    return eps_sweep(QUADRIC, ONE, QUADRIC_ORIGIN, QUADRIC_LADDER, order=96,
                     f_id="const:1")


@pytest.mark.parametrize("name", list(CHECKS))
def test_check_at_full_size(name):
    passed, detail = CHECKS[name](FULL)
    assert passed, detail
    print(f"\n[{name}] PASS {detail}")


def test_criterion_2_leading_coefficients(sphere_const_ladder, sphere_z_ladder,
                                          s3_ladder, torus_ladder,
                                          quadric_ladder):
    cases = [
        ("S2 f=1", S2, ONE, EQUATOR, sphere_const_ladder, 3, 0.0),
        ("S2 f=z", S2, Z_FIELD, Z06, sphere_z_ladder, 3, -1.2),
        ("S3 f=1", S3, ONE, S3_POINT, s3_ladder, 3, -0.75),
        ("torus f=1", TORUS, ONE, TORUS_OUTER, torus_ladder, 3, 1.0 / 9.0),
        ("quadric f=1", QUADRIC, ONE, QUADRIC_ORIGIN, quadric_ladder, 4, 0.0),
    ]
    details = []
    for name, M, f, x, ladder, q_fit, a1_expected in cases:
        report = fit_polynomial(ladder, q_fit)
        cmp = compare_closed_form(M, f, x, report)
        assert cmp.a1_reference == pytest.approx(a1_expected, abs=2e-6), name
        assert cmp.a0_passed, (name, cmp.a0_abs_error)
        assert cmp.a1_passed, (name, cmp.a1_error, cmp.a1_criterion)
        details.append(f"{name}: a0 err {cmp.a0_abs_error:.1e}, "
                       f"a1 {cmp.a1_criterion} err {cmp.a1_error:.1e}")
    print("\n[criterion 2] PASS " + "; ".join(details))


def test_criterion_5_volume_density_terms():
    s_grid = np.geomspace(0.05, 0.3, 8)
    cases = [
        ("S2", S2, EQUATOR, np.array([0.6, 0.8])),
        ("S3", S3, ChartPoint(0, [1.4, 1.2, 0.8]), np.array([0.0, 0.6, 0.8])),
        ("torus", TORUS, ChartPoint(0, [1.0, 0.7]), np.array([0.6, 0.8])),
    ]
    details = []
    for name, M, x, v in cases:
        ric = ricci_frame(M, x)
        rho2_v = float(-v @ ric @ v / 3.0)
        dens = np.array([volume_density(M, x, v, float(s)) for s in s_grid])
        resid = dens - (1.0 + rho2_v * s_grid ** 2 / 2.0)
        mask = np.abs(resid) > 1e-11
        assert np.count_nonzero(mask) >= 4, name
        slope = np.polyfit(np.log(s_grid[mask]),
                           np.log(np.abs(resid[mask])), 1)[0]
        assert slope >= 2.9, (name, slope)
        details.append(f"{name}: slope {slope:.2f}")
    # quartic term on S2 matches the s^4/120 coefficient of sin(s)/s within 5%
    x, v = EQUATOR, np.array([0.6, 0.8])
    dens = np.array([volume_density(S2, x, v, float(s)) for s in s_grid])
    resid = dens - (1.0 - s_grid ** 2 / 6.0)
    design = np.stack([s_grid ** 4, s_grid ** 6], axis=1)
    c4, _ = np.linalg.lstsq(design, resid, rcond=None)[0]
    assert abs(c4 - 1.0 / 120.0) <= 0.05 / 120.0
    details.append(f"S2 quartic coeff {c4:.6f} vs {1 / 120:.6f}")
    print("\n[criterion 5] PASS " + "; ".join(details))


def test_criterion_9_limit_criterion(sphere_const_ladder, sphere_z_ladder,
                                     torus_ladder):
    rep1 = limit_criterion_check(S2, ONE, EQUATOR, sphere_const_ladder)
    assert rep1.equicurved and rep1.matches_laplacian
    rep2 = limit_criterion_check(S2, Z_FIELD, Z06, sphere_z_ladder)
    assert rep2.equicurved and rep2.matches_laplacian
    assert rep2.limit == pytest.approx(1.2, rel=0.02)
    rep3 = limit_criterion_check(TORUS, ONE, TORUS_OUTER, torus_ladder)
    assert not rep3.equicurved
    assert not rep3.matches_laplacian
    assert rep3.gap >= 0.05
    assert rep3.gap == pytest.approx(1.0 / 9.0, abs=0.01)
    print(f"\n[criterion 9] PASS S2 gaps ({rep1.gap:.1e}, {rep2.gap:.1e}); "
          f"torus gap {rep3.gap:.4f} >= 0.05")
