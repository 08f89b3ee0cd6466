"""Hypersurface tests: shape operator, curvature means, equicurvature scans,
proposition checks, limit criterion."""

import csv
import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

import ckl.cli as cli
import ckl.hypersurface as hypersurface
from ckl import ValidationError
from ckl.catalog import catalog_manifold
from ckl.fields import ConstField
from ckl.manifold import ChartPoint, curvature_at
from ckl.operator import eps_sweep
from ckl.hypersurface import (
    _classify_arrays,
    check_propositions,
    equicurvature_residual,
    limit_criterion_check,
    mean_curvatures,
    scan_equicurved,
    shape_at,
    synthetic_shape,
)

S2 = catalog_manifold("sphere2")
S3 = catalog_manifold("sphere3")
TORUS = catalog_manifold("torus")
SPHEROID = catalog_manifold("spheroid")
PLANE = catalog_manifold("plane")
QUADRIC = catalog_manifold("quadric411")

EQUATOR = ChartPoint(0, [math.pi / 2, 1.0])
OUTER = ChartPoint(0, [0.3, 0.0])


def random_points(M, count, rng, margin=0.15):
    chart = M.charts[0]
    lo = chart.lo + margin * (chart.hi - chart.lo)
    hi = chart.hi - margin * (chart.hi - chart.lo)
    return rng.uniform(lo, hi, size=(count, M.dim))


class TestShapeOperator:
    def test_sphere_outward(self):
        sd = shape_at(S2, EQUATOR)
        np.testing.assert_allclose(sd.principal_curvatures, [-1.0, -1.0],
                                   atol=1e-12)
        assert np.linalg.norm(sd.normal) == pytest.approx(1.0, abs=1e-12)
        # outward normal points along the position vector on the unit sphere
        np.testing.assert_allclose(sd.normal, S2.embed(0, EQUATOR.coords),
                                   atol=1e-12)

    def test_quadric_origin(self):
        sd = shape_at(QUADRIC, ChartPoint(0, [0.0, 0.0, 0.0]))
        np.testing.assert_allclose(sd.principal_curvatures, [4.0, 1.0, 1.0],
                                   atol=1e-12)

    def test_plane(self):
        sd = shape_at(PLANE, ChartPoint(0, [0.4, -0.2]))
        np.testing.assert_allclose(sd.principal_curvatures, 0.0, atol=1e-13)

    def test_normal_orthogonal_to_frame(self, rng):
        for M in (TORUS, SPHEROID, QUADRIC):
            for coords in random_points(M, 5, rng):
                sd = shape_at(M, ChartPoint(0, coords))
                dots = sd.principal_directions @ sd.normal
                assert np.max(np.abs(dots)) < 1e-8

    def test_directions_orthonormal(self, rng):
        for coords in random_points(TORUS, 5, rng):
            sd = shape_at(TORUS, ChartPoint(0, coords))
            gram = sd.principal_directions @ sd.principal_directions.T
            np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)

    def test_not_hypersurface_rejected(self):
        M = catalog_manifold("sphere3")  # d=3, n=4 is fine; fake a failure
        bad = catalog_manifold("sphere2")
        import ckl.hypersurface as hs
        with pytest.raises(ValidationError):
            # 2-manifold in R^4 via the graph of a map into R^2 is out of
            # scope; emulate by checking the guard directly
            hs._require_hypersurface(type("M", (), {"dim": 2, "ambient_dim": 4}))

    def test_nu_flip(self, rng):
        for M in (TORUS, SPHEROID, QUADRIC):
            for coords in random_points(M, 4, rng):
                p = ChartPoint(0, coords)
                sd = shape_at(M, p)
                sf = shape_at(M, p, orientation=-1)
                np.testing.assert_allclose(
                    sf.principal_curvatures, -sd.principal_curvatures[::-1],
                    atol=1e-10)
                assert equicurvature_residual(sf) == pytest.approx(
                    equicurvature_residual(sd), abs=1e-9)
                assert (sf.principal_curvatures[0] - sf.principal_curvatures[-1]
                        ) == pytest.approx(
                    sd.principal_curvatures[0] - sd.principal_curvatures[-1],
                    abs=1e-10)

    def test_scalar_curvature_cross_module(self, rng):
        # 2 e2 equals the Gauss-identity scalar curvature, 1e-7 relative
        for M in (S2, TORUS, SPHEROID, QUADRIC):
            pts = random_points(M, 1000, rng)
            import ckl.hypersurface as hs
            _, kappas, _, _, _ = hs._shape_arrays(M, pts)
            e1 = np.sum(kappas, axis=-1)
            e2 = 0.5 * (e1 ** 2 - np.sum(kappas ** 2, axis=-1))
            jac = M.jacobian(0, pts)
            hess = M.hessian(0, pts)
            q, _ = np.linalg.qr(jac)
            # scalar curvature from the Gauss identity, batched
            a_inv = np.linalg.inv(np.linalg.qr(jac)[1])
            sgn = np.sign(np.einsum("...ii->...i", np.linalg.qr(jac)[1]))
            t = np.einsum("...nij,...ia,...jb->...nab", hess, a_inv, a_inv)
            tang = np.einsum("...nc,...mc,...mab->...nab", q, q, t)
            sff = t - tang
            hvec = np.einsum("...naa->...n", sff) / M.dim
            r_gauss = (M.dim ** 2 * np.einsum("...n,...n->...", hvec, hvec)
                       - np.einsum("...nab,...nab->...", sff, sff))
            rel = np.abs(2.0 * e2 - r_gauss) / np.maximum(np.abs(r_gauss), 1.0)
            assert np.max(rel) < 1e-7, M.catalog_id


class TestMeanCurvatures:
    def test_quadric_triplet(self):
        sd = synthetic_shape([4.0, 1.0, 1.0])
        assert mean_curvatures(sd, 1) == pytest.approx(2.0)
        assert mean_curvatures(sd, 2) == pytest.approx(3.0)
        assert mean_curvatures(sd, 3) == pytest.approx(4.0)

    def test_constant_curvatures(self):
        for c in (0.5, -1.5):
            sd = synthetic_shape([c] * 4)
            for i in range(1, 5):
                assert mean_curvatures(sd, i) == pytest.approx(c ** i, rel=1e-12)

    def test_torus_outer(self):
        sd = shape_at(TORUS, OUTER, orientation=-1)
        np.testing.assert_allclose(sd.principal_curvatures, [1.0, 1.0 / 3.0],
                                   atol=1e-10)
        assert mean_curvatures(sd, 1) == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            mean_curvatures(synthetic_shape([1.0, 2.0]), 3)


class TestResidual:
    def test_quadric_zero(self):
        assert equicurvature_residual(synthetic_shape([4.0, 1.0, 1.0])) == 0.0

    def test_unit_spheres(self):
        # d(2-d) kappa^2: zero for d=2, -3 for d=3 at kappa = 1
        assert equicurvature_residual(synthetic_shape([1.0, 1.0])) == 0.0
        assert equicurvature_residual(synthetic_shape([1.0, 1.0, 1.0])) == -3.0

    def test_torus_outer(self):
        sd = shape_at(TORUS, OUTER, orientation=-1)
        assert equicurvature_residual(sd) == pytest.approx(4.0 / 9.0, rel=1e-10)

    def test_two_dim_is_spread_squared(self, rng):
        for M in (TORUS, SPHEROID):
            for coords in random_points(M, 8, rng):
                sd = shape_at(M, ChartPoint(0, coords))
                spread = sd.principal_curvatures[0] - sd.principal_curvatures[-1]
                res = equicurvature_residual(sd)
                assert res >= -1e-12
                assert res == pytest.approx(spread ** 2, rel=1e-9, abs=1e-12)


class TestScan:
    def test_sphere_everywhere_equicurved(self):
        scan = scan_equicurved(S2, [50, 25])
        assert np.max(np.abs(scan.residual)) < 1e-10
        assert len(scan.zero_set) == scan.coords.shape[0]
        assert all("equicurved" in f for f in scan.flags)

    def test_torus_empty(self):
        scan = scan_equicurved(TORUS, [50, 25])
        assert len(scan.zero_set) == 0
        assert len(scan.refined_zeros) == 0
        assert np.min(np.abs(scan.residual)) > 0.05

    def test_spheroid_two_poles(self):
        scan = scan_equicurved(SPHEROID, [60, 30])
        assert len(scan.refined_zeros) == 2
        thetas = sorted(float(r.point.coords[0]) for r in scan.refined_zeros)
        assert abs(thetas[0] - 0.0) <= 1e-6
        assert abs(thetas[1] - math.pi) <= 1e-6
        # every raw zero node sits in a polar cap
        for r in scan.zero_set:
            assert min(r.point.coords[0], math.pi - r.point.coords[0]) < 0.2

    def test_quadric_origin_node(self):
        scan = scan_equicurved(QUADRIC, [10, 10, 10], refine=False)
        hits = [r for r in scan.zero_set
                if np.linalg.norm(r.point.coords) < 1e-12]
        assert len(hits) == 1
        np.testing.assert_allclose(hits[0].kappas, [4.0, 1.0, 1.0], atol=1e-8)

    def test_zero_set_subset_of_results(self):
        scan = scan_equicurved(SPHEROID, [20, 10])
        for r in scan.zero_set:
            idx = np.where((scan.coords == r.point.coords).all(axis=1))[0]
            assert idx.size == 1
            assert scan.residual[idx[0]] == r.residual

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            scan_equicurved(TORUS, [1, 10])
        with pytest.raises(ValidationError):
            scan_equicurved(TORUS, [10])


class TestRefinement:
    def test_trace_residual_matches_eigh(self, rng):
        # 2 tr(S^2) - (tr S)^2 against e1^2 - 4 e2 of the eigh curvatures
        for M in (QUADRIC, TORUS, SPHEROID):
            pts = random_points(M, 3000, rng)
            eigh_res = hypersurface._symmetric(
                hypersurface._shape_arrays(M, pts)[1])[2]
            trace_res = hypersurface._trace_residual(M, pts)[0]
            gap = np.abs(trace_res - eigh_res) / (1.0 + np.abs(eigh_res))
            assert np.max(gap) <= 1e-13, M.catalog_id

    def test_quadric_sign_change_brackets(self, monkeypatch):
        # every Illinois zero: bracket at most 2^-45 of its edge, residual
        # at rounding level
        runs = []
        illinois = hypersurface._illinois

        def recorded(M, a, b, fa, fb):
            zeros, brackets = illinois(M, a, b, fa, fb)
            runs.append((np.linalg.norm(b - a, axis=-1), zeros, brackets))
            return zeros, brackets

        monkeypatch.setattr(hypersurface, "_illinois", recorded)
        scan = scan_equicurved(QUADRIC, [20, 20, 20])
        (edge, zeros, brackets), = runs
        assert zeros.shape[0] > 1000
        assert np.all(brackets <= 2.0 ** -45 * edge)
        res, e1 = hypersurface._trace_residual(QUADRIC, zeros)
        assert np.all(np.abs(res) <= 1e-12 * (1.0 + e1 ** 2))
        edge_of = {tuple(z): h for z, h in zip(zeros, edge)}
        sign_change = [z for z in scan.refined_zeros
                       if tuple(z.point.coords) in edge_of]
        assert len(sign_change) > 1000
        for z in sign_change:
            assert z.bracket <= 2.0 ** -45 * edge_of[tuple(z.point.coords)]
            assert abs(z.residual) <= 1e-12 * (1.0 + z.e1 ** 2)

    @pytest.mark.parametrize("grid", [[4, 4, 4], [20, 20, 20]])
    def test_refined_zeros_pass_threshold(self, grid):
        # a dip search that ends away from any zero is not reported
        scan = scan_equicurved(QUADRIC, grid)
        assert scan.refined_zeros
        for z in scan.refined_zeros:
            assert abs(z.residual) <= 1e-6 * (1.0 + z.e1 ** 2)

    @pytest.mark.parametrize("grid", [[4, 4, 4], [20, 20, 20]])
    def test_small_tol_eq_keeps_refined_zeros(self, grid):
        # the quadric's node residuals are exact zeros or far from zero, so a
        # zero threshold starts the same searches and must report the same
        # zeros: crossings and converged dips end at rounding level
        def located(scan):
            return [(tuple(z.point.coords), z.bracket)
                    for z in scan.refined_zeros]
        default = located(scan_equicurved(QUADRIC, grid))
        assert located(scan_equicurved(QUADRIC, grid, tol_eq=0.0)) == default

    def test_spheroid_poles_snap_exactly(self):
        # a threshold far below the default still keeps the snapped poles
        for tol_eq in (None, 1e-13):
            scan = scan_equicurved(SPHEROID, [60, 30], tol_eq=tol_eq)
            thetas = [float(z.point.coords[0]) for z in scan.refined_zeros]
            assert thetas == [0.0, math.pi]
            # a snapped zero's bracket is its evaluation floor: 1e-6 of the
            # axis
            for z in scan.refined_zeros:
                assert z.bracket == pytest.approx(1e-6 * math.pi, rel=1e-12)

    def test_sphere3_degenerate_nodes(self):
        # 220 of the 1,210 nodes sit at the determinant floor: reported and
        # classed degenerate, kept out of the zero set and out of refinement
        argv = ["equicurved-scan", "--manifold", "sphere3", "--grid",
                "10x10x10", "--out", "-"]
        outs = {}
        for fmt in ("csv", "json"):
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert cli.main(argv + ["--format", fmt]) == 0
            outs[fmt] = buf.getvalue()
        rows = list(csv.DictReader(io.StringIO(outs["csv"])))
        degenerate = [r for r in rows if r["class"] == "degenerate"]
        assert len(rows) == 1210 and len(degenerate) == 220
        for r in degenerate:
            kappas = [float(r[f"kappa_{i}"]) for i in (1, 2, 3)]
            np.testing.assert_allclose(kappas, -1.0, atol=1e-11)
        data = json.loads(outs["json"])
        zero_coords = {tuple(z["coords"]) for z in data["zero_set"]}
        assert not any(tuple(float(r[f"s{i}"]) for i in (1, 2, 3))
                       in zero_coords for r in degenerate)
        assert data["refined_zeros"] == []
        # a threshold every node passes still leaves the degenerate ones out
        scan = scan_equicurved(S3, [10, 10, 10], tol_eq=10.0, refine=False)
        assert scan.classification.count("degenerate") == 220
        assert all(scan.flags[i] == () for i, label
                   in enumerate(scan.classification) if label == "degenerate")
        assert len(scan.zero_set) == 1210 - 220
        assert all(z.classification != "degenerate" for z in scan.zero_set)


def classify_row(kappas, residual, spread, tol_eq, tol_umb):
    """Reference: the module docstring's rules applied to one row."""
    flat = max(abs(k) for k in kappas) <= tol_umb
    umbilic = flat or spread <= tol_umb
    equicurved = flat or abs(residual) <= tol_eq
    if len(kappas) == 2 and umbilic:
        equicurved = True
    flags = tuple(name for name, on in (("flat", flat), ("umbilic", umbilic),
                                        ("equicurved", equicurved)) if on)
    return (flags[0] if flags else "generic"), flags


class TestClassifier:
    TOL = 1e-6
    # (kappas, tol_eq, expected label, expected flags)
    ROWS = {
        2: [([0.0, 0.0], TOL, "flat", ("flat", "umbilic", "equicurved")),
            ([1.0, 1.0], TOL, "umbilic", ("umbilic", "equicurved")),
            # umbilic implies equicurved in d = 2, whatever the residual
            ([1.0, 1.0 - 1e-7], 0.0, "umbilic", ("umbilic", "equicurved")),
            # residual 1e-8 within tolerance, spread 1e-4 outside it
            ([2.0, 2.0 - 1e-4], TOL, "equicurved", ("equicurved",)),
            ([1.0, -1.0], TOL, "generic", ()),
            ([math.nan, math.nan], TOL, "generic", ())],
        3: [([0.0, 0.0, 0.0], TOL, "flat", ("flat", "umbilic", "equicurved")),
            # umbilic but not equicurved: the residual is -3
            ([1.0, 1.0, 1.0], TOL, "umbilic", ("umbilic",)),
            ([1.0, 1.0, 1.0 - 1e-7], 0.0, "umbilic", ("umbilic",)),
            ([4.0, 1.0, 1.0], TOL, "equicurved", ("equicurved",)),
            ([3.0, 1.0, 0.0], TOL, "generic", ()),
            ([math.nan, math.nan, math.nan], TOL, "generic", ())],
    }

    @pytest.mark.parametrize("d", [2, 3])
    def test_rows_match_rules(self, d):
        rows = self.ROWS[d]
        kappas = np.array([r[0] for r in rows])
        e1 = np.sum(kappas, axis=-1)
        residual = 2.0 * np.sum(kappas ** 2, axis=-1) - e1 ** 2
        spread = kappas[:, 0] - kappas[:, -1]
        tol_eq = np.array([r[1] for r in rows])
        tol_umb = np.full(e1.shape, self.TOL)
        labels, flags = _classify_arrays(kappas, residual, spread, tol_eq,
                                         tol_umb)
        assert labels == [r[2] for r in rows]
        assert flags == [r[3] for r in rows]
        for i in range(kappas.shape[0]):
            assert (labels[i], flags[i]) == classify_row(
                kappas[i].tolist(), residual[i], spread[i], tol_eq[i],
                tol_umb[i])

    def test_nan_row_generic_and_outside_zero_set(self, monkeypatch):
        shape_arrays = hypersurface._shape_arrays

        def nan_first_row(*args, **kwargs):
            out = shape_arrays(*args, **kwargs)
            out[1][0] = math.nan
            return out

        monkeypatch.setattr(hypersurface, "_shape_arrays", nan_first_row)
        scan = scan_equicurved(PLANE, [2, 2], refine=False)
        assert scan.classification[0] == "generic"
        assert scan.flags[0] == ()
        assert set(scan.classification[1:]) == {"flat"}
        zero_rows = [tuple(r.point.coords) for r in scan.zero_set]
        assert tuple(scan.coords[0]) not in zero_rows
        assert len(zero_rows) == scan.coords.shape[0] - 1


class TestPropositions:
    def test_flat_plane(self):
        sd = shape_at(PLANE, ChartPoint(0, [0.3, 0.3]))
        rep = check_propositions(sd)
        assert rep.passed
        assert rep.checks[0].status == "holds"
        assert rep.checks[1].status == "holds"
        assert rep.checks[2].status == "not_applicable"  # d = 2

    def test_quadric_not_applicable(self):
        sd = shape_at(QUADRIC, ChartPoint(0, [0.0, 0.0, 0.0]))
        rep = check_propositions(sd)
        assert rep.passed
        assert all(c.status == "not_applicable" for c in rep.checks)

    def test_zero_vector_all_hold(self):
        rep = check_propositions(synthetic_shape([0.0, 0.0, 0.0]))
        assert all(c.status == "holds" for c in rep.checks)

    def test_umbilic_nonflat_never_fires_for_d3(self):
        # kappa = (c, c, c), c != 0: residual = -3 c^2 != 0, premise false
        for c in (0.5, 2.0, -1.0):
            rep = check_propositions(synthetic_shape([c, c, c]))
            assert rep.checks[2].status == "not_applicable"

    def test_minimal_not_equicurved(self):
        rep = check_propositions(synthetic_shape([1.0, -1.0]))
        assert rep.checks[0].status == "not_applicable"
        assert rep.passed


class TestLimitCriterion:
    LADDER = [0.02 * 2.0 ** -k for k in range(6)]

    def test_sphere_const(self):
        one = lambda c, a: np.ones(np.asarray(c).shape[:-1])
        lad = eps_sweep(S2, one, EQUATOR, self.LADDER)
        rep = limit_criterion_check(S2, ConstField(1.0), EQUATOR, lad)
        assert rep.equicurved
        assert rep.matches_laplacian
        assert rep.limit == pytest.approx(0.0, abs=1e-4)

    def test_torus_fails_with_gap(self):
        one = lambda c, a: np.ones(np.asarray(c).shape[:-1])
        lad = eps_sweep(TORUS, one, OUTER, self.LADDER)
        rep = limit_criterion_check(TORUS, ConstField(1.0), OUTER, lad)
        assert not rep.equicurved
        assert not rep.matches_laplacian
        assert rep.gap == pytest.approx(1.0 / 9.0, abs=0.01)
        assert rep.gap >= 0.05
