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
from ckl import DegenerateChartError, ValidationError
from ckl.catalog import catalog_manifold, load_manifold_text
from ckl.fields import ConstField
from ckl.manifold import (
    ChartPoint,
    EmbeddedManifold,
    TensorGrid,
    curvature_at,
)
from ckl.operator import EpsLadder, LadderSample, eps_sweep
from ckl.hypersurface import (
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


def qr_normals(jac):
    """Reference: unit normals from two QRs, signed so det([J | nu]) > 0."""
    q, _ = np.linalg.qr(jac)
    n = jac.shape[-2]
    full, _ = np.linalg.qr(np.concatenate(
        [q, np.broadcast_to(np.eye(n), q.shape[:-2] + (n, n))], axis=-1)[..., :n])
    normal = full[..., -1]
    signs = np.sign(np.linalg.det(np.concatenate([jac, normal[..., None]],
                                                 axis=-1)))
    return normal * np.where(signs == 0.0, 1.0, signs)[..., None]


class TestShapeOperator:
    def test_cofactor_normals(self, rng):
        for M in (S2, S3, TORUS, SPHEROID, QUADRIC, PLANE):
            jac = M.jacobian(0, random_points(M, 2000, rng))
            normal, det_g = hypersurface._cofactor_normals(jac)
            np.testing.assert_allclose(normal, qr_normals(jac), rtol=0,
                                       atol=1e-14, err_msg=M.catalog_id)
            np.testing.assert_allclose(np.linalg.norm(normal, axis=-1), 1.0,
                                       rtol=0, atol=4e-16)
            tangency = np.einsum("...ni,...n->...i", jac, normal)
            scale = np.max(np.abs(jac), axis=(-2, -1))
            assert np.all(np.abs(tangency) <= 1e-15 * scale[:, None])
            assert np.all(np.linalg.det(
                np.concatenate([jac, normal[..., None]], axis=-1)) > 0.0)
            g = np.einsum("...ni,...nj->...ij", jac, jac)
            np.testing.assert_allclose(det_g, np.linalg.det(g), rtol=1e-13,
                                       atol=0)

    def test_cofactor_normal_scale_free(self):
        # a power-of-two scaling of J leaves the unit normal bit for bit,
        # also where the squared 3x3 minors underflow (J ~ 2^-300): the
        # minors are expanded from J scaled to a largest entry in [1/2, 1).
        # A zero Jacobian gives a zero normal without a floating-point error
        jac = S3.jacobian(0, np.array([1.0, 1.3, 2.0]))
        normal = hypersurface._cofactor_normals(jac)[0]
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for k in (-300, -100, 100, 150):
                scaled = hypersurface._cofactor_normals(np.ldexp(jac, k))[0]
                np.testing.assert_array_equal(scaled, normal)
            zero, det_g = hypersurface._cofactor_normals(np.zeros((4, 3)))
        assert zero.tolist() == [0.0] * 4 and det_g == 0.0

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
        # the opposite normal negates the curvatures; the residual and the
        # curvature spread do not change
        for M in (TORUS, SPHEROID, QUADRIC):
            for coords in random_points(M, 4, rng):
                sd = shape_at(M, ChartPoint(0, coords))
                sf = synthetic_shape(-sd.principal_curvatures)
                np.testing.assert_array_equal(
                    sf.principal_curvatures, -sd.principal_curvatures[::-1])
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
            kappas = hs._curvatures(M, pts)[0]
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


def symmetric_2x2(a11, e, a22):
    """Symmetric 2x2 matrices ``[[a11, e], [e, a22]]`` from broadcast parts."""
    a = np.empty(np.broadcast(a11, e, a22).shape + (2, 2))
    a[..., 0, 0], a[..., 1, 1] = a11, a22
    a[..., 1, 0] = a[..., 0, 1] = e
    return a


class TestScanEigenvalues:
    @staticmethod
    def assert_bits_match(a):
        want = np.linalg.eigvalsh(a)[..., ::-1]
        got = hypersurface._eigvalsh_descending(a)
        # bit patterns: -0.0 and 0.0 differ
        mismatch = np.flatnonzero(np.any(
            got.view(np.int64) != want.view(np.int64), axis=-1))
        assert not mismatch.size, (a[mismatch[:5]].tolist(),
                                   got[mismatch[:5]].tolist())

    def test_2x2_matches_eigvalsh_bit_for_bit(self, rng):
        # LAPACK's own 2x2 path over arrays: both split tests, dlae2 and the
        # ascending swap, and eigvalsh itself where LAPACK rescales
        n = 20000
        g = rng.standard_normal((3, n))
        lo, hi = hypersurface._EIGH2_RANGE
        cases = [symmetric_2x2(*(g * 10.0 ** p)) for p in range(-160, 161, 20)]
        # diagonal, and off-diagonals from 1e-8 to 1e-30 of the diagonal
        cases.append(symmetric_2x2(g[0], 0.0, g[2]))
        for p in range(8, 31, 2):
            tiny = g[1] * 10.0 ** -p
            cases += [symmetric_2x2(g[0], tiny, g[2]),
                      symmetric_2x2(g[0], tiny * np.abs(g[0]), g[0]),
                      symmetric_2x2(g[0], tiny, 0.0)]
        # off-diagonals at the first split test's threshold and one ulp to
        # either side, where the two tests disagree by rounding
        t = np.sqrt(np.abs(g[0])) * np.sqrt(np.abs(g[2])) * 2.0 ** -53
        for e in (t, np.nextafter(t, 0.0), -np.nextafter(t, np.inf)):
            cases.append(symmetric_2x2(g[0], e, g[2]))
        # equal and opposite diagonals
        cases += [symmetric_2x2(g[0], g[1], g[0]),
                  symmetric_2x2(g[0], g[1], -g[0]),
                  symmetric_2x2(g[0], 0.0, -g[0])]
        # zeros, signed zeros, small integers and dyadic values
        values = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5, -0.125])
        cases.append(symmetric_2x2(*(x.ravel() for x in
                                     np.meshgrid(values, values, values))))
        ints = rng.integers(-4, 5, (3, n)).astype(float)
        cases += [symmetric_2x2(*ints), symmetric_2x2(*(ints / 8.0))]
        # both sides of the range LAPACK leaves unscaled
        edges = np.array([lo, hi])
        for edge in np.concatenate([edges, np.nextafter(edges, 0.0),
                                    np.nextafter(edges, np.inf)]):
            quarter = g * edge / 4.0
            cases += [symmetric_2x2(edge, quarter[1], quarter[2]),
                      symmetric_2x2(quarter[0], -edge, quarter[2])]
        a = np.concatenate(cases)
        with np.errstate(all="raise"):
            self.assert_bits_match(a)
            self.assert_bits_match(a[:7].reshape(7, 1, 2, 2))
            self.assert_bits_match(a[0])

    def test_2x2_gradual_underflow(self):
        # entries far apart in size, down to subnormals, underflow inside
        # LAPACK's formula as they do in LAPACK; the bits still match
        values = np.array([0.0, -0.0, 5e-324, -1e-310, 1e-160, 1e-101, 1e-100,
                           1e-50, -1.0, 3.0, 1e50, -1e100, 1e101, 1e160])
        parts = np.meshgrid(values, values, values)
        self.assert_bits_match(symmetric_2x2(*(x.ravel() for x in parts)))

    def test_larger_matrices_use_eigvalsh(self, rng):
        a = rng.standard_normal((50, 3, 3))
        a = a + np.swapaxes(a, 1, 2)
        self.assert_bits_match(a)


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

    def test_cancelling_partial_sum(self):
        # e1 of the first two curvatures is 0 while their e2 is not, so the
        # third curvature must still reach e3
        sd = synthetic_shape([1.0, -1.0, -2.0])
        assert mean_curvatures(sd, 3) == 2.0
        assert mean_curvatures(sd, 2) == pytest.approx(-1.0 / 3.0)

    def test_torus_outer(self):
        # the cofactor normal points into the tube at the outer equator
        sd = shape_at(TORUS, OUTER)
        np.testing.assert_allclose(sd.principal_curvatures, [-1.0 / 3.0, -1.0],
                                   atol=1e-10)
        assert mean_curvatures(sd, 1) == pytest.approx(-2.0 / 3.0, rel=1e-10)

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
        sd = shape_at(TORUS, OUTER)
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
        with pytest.raises(ValidationError, match="nodes"):
            scan_equicurved(QUADRIC, [10 ** 12, 2, 2])

    @pytest.mark.parametrize("tol_eq", [float("nan"), -1.0, float("inf")])
    def test_bad_tol_eq_rejected(self, tol_eq):
        # NaN and -1 would give an empty zero set and inf would class every
        # node equicurved
        with pytest.raises(ValidationError, match="tol_eq"):
            scan_equicurved(TORUS, [8, 4], tol_eq=tol_eq)

    @pytest.mark.parametrize("description, grid", [
        ("type=graph d=4 poly=0.5*x1^2+0.5*x2^2+x3^2+0.3*x4^2 box=1",
         [4, 4, 4, 4]),
        ("type=graph d=1 poly=0.5*x1^2+0.25*x1^4 box=1", [6]),
    ])
    def test_any_dimension(self, description, grid):
        # the cofactor expansion and the reductions hold for every d that a
        # description file can give; each row's curvatures match a per-node
        # eigh of the Cholesky-reduced shape operator
        M = load_manifold_text(description)
        scan = scan_equicurved(M, grid, refine=False)
        jac, hess = M.jacobian(0, scan.coords), M.hessian(0, scan.coords)
        normal = qr_normals(jac)
        for i in range(scan.coords.shape[0]):
            inv = np.linalg.inv(np.linalg.cholesky(jac[i].T @ jac[i]))
            b = np.einsum("nij,n->ij", hess[i], normal[i])
            kappas = np.linalg.eigh(inv @ b @ inv.T)[0][::-1]
            np.testing.assert_allclose(scan.kappas[i], kappas, rtol=0,
                                       atol=1e-13)
        if M.dim == 4:
            origin, = np.flatnonzero(np.all(scan.coords == 0.0, axis=1))
            # kappa = (1, 1, 2, 0.6): e1^2 - 4 e2 = 4.6^2 - 4 * 7.4
            assert scan.residual[origin] == pytest.approx(-8.44, abs=1e-13)

    def test_blocks_match_slices(self):
        # the grid pass over sub-grids gives, bit for bit, the curvatures and
        # |C|^2 of the same nodes evaluated densely in slices of other
        # lengths; no sub-grid holds more than _BLOCK_NODES nodes, even where
        # the last axis alone holds more (the plane at 2x9000)
        curvatures = hypersurface._curvatures
        for M, grid in ((TORUS, [129, 65]), (QUADRIC, [20, 20, 20]),
                        (PLANE, [2, 9000])):
            axes = hypersurface._grid_axes(M.chart(0), grid)
            coords = np.asarray(TensorGrid.product(axes)).reshape(-1, M.dim)
            assert coords.shape[0] % hypersurface._BLOCK_NODES != 0
            blocks = []

            def record(M, nodes):
                blocks.append(math.prod(nodes.shape[:-1]))
                return curvatures(M, nodes)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(hypersurface, "_curvatures", record)
                kappas, det_g = hypersurface._grid_pass(M, axes)
            assert sum(blocks) == coords.shape[0]
            assert max(blocks) <= hypersurface._BLOCK_NODES
            for length in (37, 999, 8193):
                parts = [curvatures(M, coords[s:s + length])
                         for s in range(0, coords.shape[0], length)]
                np.testing.assert_array_equal(
                    kappas, np.concatenate([k for k, _ in parts]))
                np.testing.assert_array_equal(
                    det_g, np.concatenate([d for _, d in parts]))

    def test_singular_metric_at_a_node(self, zero_column_at):
        # one node whose metric is singular: the scan refuses the grid, with
        # no floating-point error from a square root or a zero pivot
        zero_column_at(scan_equicurved(TORUS, [8, 4], refine=False).coords[13])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            with pytest.raises(DegenerateChartError,
                               match="not positive definite"):
                scan_equicurved(TORUS, [8, 4], refine=False)

    def test_grid_node_cap(self):
        # the benchmark's largest grid, 51^3 nodes, and a torus grid of
        # exactly the cap pass; two nodes more are refused
        axes = hypersurface._grid_axes(QUADRIC.chart(0), [50, 50, 50])
        assert [len(a) for a in axes] == [51, 51, 51]
        cap = hypersurface._MAX_GRID_NODES
        u, _ = hypersurface._grid_axes(TORUS.chart(0), [cap // 2, 2])
        assert len(u) == cap // 2
        with pytest.raises(ValidationError, match="nodes"):
            hypersurface._grid_axes(TORUS.chart(0), [cap // 2 + 1, 2])


@pytest.fixture
def residual_batches(monkeypatch):
    """The number of points in each ``_trace_residual`` call, in order."""
    sizes = []
    trace_residual = hypersurface._trace_residual

    def recorded(M, coords):
        sizes.append(coords.shape[0])
        return trace_residual(M, coords)

    monkeypatch.setattr(hypersurface, "_trace_residual", recorded)
    return sizes


class TestRefinement:
    def test_trace_residual_matches_eigh(self, rng):
        # 2 tr(S^2) - (tr S)^2 against e1^2 - 4 e2 of the eigh curvatures
        for M in (QUADRIC, TORUS, SPHEROID):
            pts = random_points(M, 3000, rng)
            eigh_res = hypersurface._symmetric(
                hypersurface._curvatures(M, pts)[0])[2]
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

    @pytest.mark.parametrize("M, grid", [
        (QUADRIC, [20, 20, 20]), (SPHEROID, [60, 30]), (S2, [8, 4])],
        ids=["quadric411", "spheroid", "sphere2"])
    def test_refined_rows_print_their_residual(self, M, grid):
        # each refined row's residual is e1^2 - 4 e2 of its own numbers, bit
        # for bit, and so of the numbers the JSON prints (which round-trip)
        z = scan_equicurved(M, grid).refined
        assert z.e1.size
        assert np.array_equal(z.residual, z.e1 * z.e1 - 4.0 * z.e2)

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

    def test_curve_inflection_dip(self):
        # d = 1: a dip line is the whole grid; the inflection point of
        # y = x^3, where the curvature vanishes, is a double zero, found
        # within its bracket
        M = load_manifold_text("type=graph d=1 poly=x1^3 box=1")
        z, = scan_equicurved(M, [6]).refined_zeros
        assert abs(z.point.coords[0]) <= z.bracket <= 1e-9
        assert z.classification == "flat"

    @pytest.mark.parametrize("M", [
        S2, S3, TORUS, SPHEROID, PLANE, QUADRIC,
        pytest.param(load_manifold_text("type=graph d=1 poly=x1^3+0.4*x1^2 "
                                        "box=1"), id="curve"),
        load_manifold_text("type=graph d=4 poly=0.5*x1^2+0.5*x2^2+x3^2"
                           "+0.3*x4^2+0.2*x1*x3^3 box=1")],
        ids=lambda M: M.catalog_id or f"graph{M.dim}")
    def test_batch_invariance(self, M, rng):
        # refinement evaluates lines and candidates in batches of any size
        # and shape: a point must get the same bits alone, in a 1-D or 2-D
        # batch and in a strided slice, from the reduced forms, the trace
        # residual and the curvatures; so must the curvatures taken from a
        # batch's reduced forms
        pts = random_points(M, 256, rng)
        twice = np.repeat(pts, 2, axis=0)

        def forms(coords, rows=slice(None)):
            return hypersurface._reduced_forms(M.jacobian(0, coords)[rows],
                                               M.hessian(0, coords)[rows])

        for evaluate in (forms,
                         lambda c: hypersurface._trace_residual(M, c),
                         lambda c: hypersurface._curvatures(M, c)):
            flat = [np.asarray(x) for x in evaluate(pts)]
            grid = evaluate(pts.reshape(16, 16, M.dim))
            strided = (forms(twice, slice(None, None, 2))
                       if evaluate is forms else evaluate(twice[::2]))
            for shaped in (grid, strided):
                for want, got in zip(flat, shaped):
                    np.testing.assert_array_equal(
                        np.reshape(got, want.shape).view(np.int64),
                        want.view(np.int64))
            for i in range(pts.shape[0]):
                for want, got in zip(flat, evaluate(pts[i])):
                    np.testing.assert_array_equal(
                        np.asarray(got).view(np.int64), want[i].view(np.int64))
        a = forms(pts)[3]
        chosen = np.arange(0, pts.shape[0], 7)
        np.testing.assert_array_equal(
            np.linalg.eigvalsh(a[chosen])[..., ::-1].view(np.int64),
            hypersurface._curvatures(M, pts[chosen])[0].view(np.int64))

    @pytest.mark.parametrize("manifold, grid", [
        ("sphere2", "8x4"), ("spheroid", "60x30"), ("quadric411", "20x20x20")])
    def test_refinement_calls(self, manifold, grid, residual_batches,
                              monkeypatch, tmp_path):
        # each Illinois and golden-section step of every edge and line is one
        # batched residual call, so a scan makes a few dozen calls, not one
        # per point; only a dip at a chart edge probes the metric floor
        probes = []
        metric = EmbeddedManifold.metric

        def probed(self, ci, coords):
            probes.append(coords)
            return metric(self, ci, coords)

        monkeypatch.setattr(EmbeddedManifold, "metric", probed)
        assert cli.main(["equicurved-scan", "--manifold", manifold, "--grid",
                         grid, "--format", "json", "--out",
                         str(tmp_path / "scan.json")]) == 0
        assert 0 < len(residual_batches) <= 60
        assert 0 not in residual_batches
        assert (probes == []) == (manifold == "quadric411")

    def test_scans_without_golden_steps(self, residual_batches):
        # the torus has no zero on its grid, so nothing is evaluated; every
        # plane line dips at a first node, where the residual is already at
        # rounding level, so one snap check of the 10 lines ends every search
        assert scan_equicurved(TORUS, [60, 30]).refined_zeros == []
        assert residual_batches == []
        zeros = scan_equicurved(PLANE, [4, 4]).refined_zeros
        assert residual_batches == [10]
        assert zeros and all(z.classification == "flat" for z in zeros)

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


def leader_loop(points, radius):
    """Reference: greedy leader clustering, one distance pass per row."""
    clusters = []
    reps = np.empty_like(points)
    for r in range(points.shape[0]):
        if clusters:
            dists = np.linalg.norm(reps[:len(clusters)] - points[r], axis=1)
            hit = int(np.argmin(dists))
            if dists[hit] <= radius:
                clusters[hit].append(r)
                continue
        reps[len(clusters)] = points[r]
        clusters.append([r])
    return clusters


class TestLeaderClusters:
    def test_quadric_candidates(self, monkeypatch):
        calls = []
        leader_clusters = hypersurface._leader_clusters

        def recorded(points, radius):
            calls.append((points, radius))
            return leader_clusters(points, radius)

        monkeypatch.setattr(hypersurface, "_leader_clusters", recorded)
        scan_equicurved(QUADRIC, [20, 20, 20])
        (points, radius), = calls
        assert points.shape[0] > 1000
        clusters = leader_clusters(points, radius)
        assert clusters == leader_loop(points, radius)
        assert len(clusters) < points.shape[0]

    def test_random_clouds(self, rng):
        clouds = []
        for n in (2, 3, 4):
            clouds.append((rng.uniform(-1.0, 1.0, (400, n)), 0.1))
            # dyadic lattice points: pairs exactly radius apart, and midpoints
            # equidistant from two leaders
            lattice = rng.integers(-4, 5, (300, n)) * 0.125
            clouds.append((lattice, 0.25))
            clouds.append((lattice, 0.125))
        # many points with one projection on the clustering direction:
        # duplicates, and a plane orthogonal to it
        direction = np.sqrt([2.0, 3.0, 4.0])
        basis = np.linalg.svd(direction[None, :])[2][1:]
        plane = rng.uniform(-1.0, 1.0, (300, 2)) @ basis
        clouds.append((plane, 0.2))
        clouds.append((np.repeat(rng.uniform(-1, 1, (20, 3)), 15, axis=0)
                       [rng.permutation(300)], 0.05))
        clouds.append((np.zeros((50, 3)), 0.0))
        for points, radius in clouds:
            assert hypersurface._leader_clusters(points, radius) == \
                leader_loop(points, radius)

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_pairs_in_small_chunks(self, rng, monkeypatch, chunk):
        # forming the window's pairs a few at a time keeps the clusters;
        # chunk 1 takes one sorted position at a time
        lattice = rng.integers(-4, 5, (300, 3)) * 0.125
        clouds = [(rng.uniform(-1.0, 1.0, (400, 3)), 0.1), (lattice, 0.25),
                  (np.zeros((50, 3)), 0.0)]
        expected = [hypersurface._leader_clusters(*cloud) for cloud in clouds]
        monkeypatch.setattr(hypersurface, "_PAIR_CHUNK", chunk)
        for cloud, clusters in zip(clouds, expected):
            assert hypersurface._leader_clusters(*cloud) == clusters
            assert clusters == leader_loop(*cloud)

    def test_tie_goes_to_lowest_index(self):
        points = np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 0.0], [0.75, 0.0]])
        assert hypersurface._leader_clusters(points, 0.25) == [[0, 2], [1, 3]]


def representatives_loop(clusters, res, noise, snapped, coords):
    """Reference: each cluster's ``min`` by a Python sort key, then a stable
    sort of the chosen by their coordinates."""
    chosen = []
    for cluster in clusters:
        best_res = min(abs(res[r]) for r in cluster)

        def sort_key(r):
            return (max(abs(res[r]) - max(best_res, noise[r]), 0.0),
                    0 if snapped[r] else 1, tuple(coords[r]))

        chosen.append(min(cluster, key=sort_key))
    return sorted(chosen, key=lambda r: tuple(coords[r]))


class TestRepresentatives:
    def check(self, clusters, res, noise, snapped, coords):
        args = (np.asarray(res, dtype=float), np.asarray(noise, dtype=float),
                np.asarray(snapped, dtype=bool),
                np.asarray(coords, dtype=float))
        got = hypersurface._representatives(clusters, *args)
        assert got.tolist() == representatives_loop(clusters, *args)
        return got.tolist()

    def test_ties(self):
        noise = [1e-10] * 8
        # 0-2: equal excess (all inside the noise band), so snapped 1 wins;
        # 3-4: snapped and unsnapped at one residual; 5-7: equal leading
        # coordinates, -0.0 against 0.0, and two identical keys
        res = [1e-12, -5e-11, 5e-11, 2e-3, -2e-3, 1e-3, 1e-3, 1e-3]
        snapped = [False, True, False, False, True, False, False, False]
        coords = [[0.5, 0.1], [0.5, 0.2], [0.4, 0.0], [1.0, 1.0], [1.0, 2.0],
                  [0.0, 0.3], [-0.0, 0.3], [0.0, -0.0]]
        clusters = [[0, 1, 2], [3, 4], [5, 6, 7]]
        assert self.check(clusters, res, noise, snapped, coords) == [7, 1, 4]
        # -0.0 and 0.0 tie in every coordinate: the first candidate stays
        coords[7] = [-0.0, 0.3]
        assert self.check(clusters, res, noise, snapped, coords) == [5, 1, 4]
        # two representatives on equal coordinates keep cluster order
        assert self.check([[0], [1]], [0.0, 0.0], [1e-10] * 2, [False] * 2,
                          [[0.0, 1.0], [-0.0, 1.0]]) == [0, 1]

    def test_random_ties(self, rng):
        # few distinct values, so that every key component ties often
        for _ in range(200):
            n = int(rng.integers(1, 30))
            cuts = np.sort(rng.choice(np.arange(1, n), size=min(
                n - 1, int(rng.integers(0, 6))), replace=False))
            clusters = [c.tolist() for c in np.split(rng.permutation(n), cuts)]
            clusters = [sorted(c) for c in clusters]
            res = rng.choice([0.0, -0.0, 1e-12, -1e-12, 2e-10, -3e-10, 1e-3], n)
            noise = rng.choice([1e-10, 2e-10, 1e-12], n)
            snapped = rng.random(n) < 0.3
            coords = rng.choice([0.0, -0.0, 0.5, -0.5, 1.0], (n, 3))
            self.check(clusters, res, noise, snapped, coords)


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
        labels, flags = zip(*(hypersurface._CLASS_TABLE[c] for c in
                              hypersurface._class_codes(
                                  kappas, residual, spread, tol_eq, tol_umb)))
        labels, flags = list(labels), list(flags)
        assert labels == [r[2] for r in rows]
        assert flags == [r[3] for r in rows]
        for i in range(kappas.shape[0]):
            assert (labels[i], flags[i]) == classify_row(
                kappas[i].tolist(), residual[i], spread[i], tol_eq[i],
                tol_umb[i])

    def test_nan_row_generic_and_outside_zero_set(self, monkeypatch):
        grid_pass = hypersurface._grid_pass

        def nan_first_row(*args, **kwargs):
            out = grid_pass(*args, **kwargs)
            out[0][0] = math.nan
            return out

        monkeypatch.setattr(hypersurface, "_grid_pass", nan_first_row)
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

    @pytest.mark.parametrize("eps", [(0.1, 0.05, 0.024, 0.012), (0.1,)])
    def test_requires_geometric(self, eps):
        lad = EpsLadder([LadderSample(e, 1.0, 0.0) for e in eps])
        with pytest.raises(ValidationError):
            limit_criterion_check(S2, ConstField(1.0), EQUATOR, lad)
