"""Geometry-layer tests: metric, curvature, Laplacian, geodesics, density."""

import itertools
import math

import numpy as np
import pytest

from ckl import DegenerateChartError, DomainError, TruncatedPathError, ValidationError
from ckl.catalog import catalog_manifold, load_manifold_text, parse_poly
from ckl.fields import AmbientCoordField, ChartPolyField, ConstField
from ckl.manifold import (
    ChartPoint,
    _central_diff,
    _connection,
    chord_expansion_check,
    curvature_at,
    geodesic_shoot,
    laplace_beltrami,
    metric_at,
    ricci_frame,
    scalar_curvature_intrinsic,
    volume_density,
)

S2 = catalog_manifold("sphere2")
S3 = catalog_manifold("sphere3")
TORUS = catalog_manifold("torus")
SPHEROID = catalog_manifold("spheroid")
PLANE = catalog_manifold("plane")
QUADRIC = catalog_manifold("quadric411")
GRAPH = load_manifold_text(
    "type=graph d=2 poly=0.3:(1,1),0.2:(3,0),-0.4:(0,2) box=1.0")

EQUATOR = ChartPoint(0, [math.pi / 2, 1.0])


def const_one(coords, ambient):
    return np.ones(np.asarray(coords).shape[:-1])


def ambient_z(coords, ambient):
    return ambient[..., 2]


def random_points(M, count, rng, margin=0.15):
    chart = M.charts[0]
    lo = chart.lo + margin * (chart.hi - chart.lo)
    hi = chart.hi - margin * (chart.hi - chart.lo)
    return rng.uniform(lo, hi, size=(count, M.dim))


def fd_jet(M, coords, step=1e-3):
    """Jacobian and Hessian of M's embedding from Richardson central
    differences of the embedding alone, at step ``step (1 + |coord|)``."""
    def diff(fn):
        return lambda c: _central_diff(fn, c, step * (1.0 + np.abs(c)))
    jac = diff(lambda c: M.embed(0, c))
    return jac(coords), diff(jac)(coords)


def embedding_only(chart):
    """``chart``'s derivative closure, refusing every order above 0."""
    derivs = chart._derivs

    def call(coords, orders):
        if any(k >= 1 for k in orders):
            raise AssertionError("volume element evaluated a derivative")
        return derivs(coords, orders)
    return call


# ---------------------------------------------------------------------------
# Metric
# ---------------------------------------------------------------------------

class TestMetric:
    def test_sphere_equator(self):
        g = metric_at(S2, ChartPoint(0, [math.pi / 2, 0.0]))
        np.testing.assert_allclose(g, np.eye(2), atol=1e-14)

    def test_plane_identity(self):
        g = metric_at(PLANE, ChartPoint(0, [0.3, -0.7]))
        np.testing.assert_allclose(g, np.eye(2), atol=1e-14)

    def test_torus_closed_form(self):
        g = metric_at(TORUS, ChartPoint(0, [0.0, 0.0]))
        np.testing.assert_allclose(g, np.diag([9.0, 1.0]), atol=1e-12)

    def test_exact_vs_finite_difference(self):
        # differences of the embedding reproduce the analytic metric
        pts = np.array([[0.3, 1.1], [2.0, 4.0], [5.5, 0.2]])
        jac, _ = fd_jet(TORUS, pts)
        np.testing.assert_allclose(np.einsum("...ni,...nj->...ij", jac, jac),
                                   TORUS.metric(0, pts), rtol=0, atol=1e-9)

    def test_spd_and_frames_random(self, rng):
        for M in (S2, S3, TORUS, SPHEROID, QUADRIC, PLANE):
            pts = random_points(M, 10_000, rng)
            g = M.metric(0, pts)
            np.testing.assert_allclose(g, np.swapaxes(g, -1, -2), atol=1e-10)
            eigs = np.linalg.eigvalsh(g)
            assert np.all(eigs > 1e-10)
            jac = M.jacobian(0, pts)
            q, _ = np.linalg.qr(jac)
            eye = np.einsum("bni,bnj->bij", q, q)
            np.testing.assert_allclose(eye, np.broadcast_to(np.eye(M.dim), eye.shape),
                                       atol=1e-8)

    def test_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            metric_at(QUADRIC, ChartPoint(0, [2.0, 0.0, 0.0]))

    def test_degenerate_pole_rejected(self):
        with pytest.raises(DegenerateChartError):
            metric_at(S2, ChartPoint(0, [1e-9, 0.0]))

    def test_exactly_one_chart(self):
        # a second copy of the chart would double every integral
        from ckl.manifold import EmbeddedManifold
        chart = TORUS.charts[0]
        for charts in ([chart, chart], []):
            with pytest.raises(ValidationError):
                EmbeddedManifold(charts, delta=0.9)
        for ci in (1, -1):
            with pytest.raises(ValidationError):
                TORUS.chart(ci)


# ---------------------------------------------------------------------------
# Volume element
# ---------------------------------------------------------------------------

def det_chain(M, coords):
    """sqrt(det J^T J) from the chart Jacobian, the reference volume element."""
    jac = M.jacobian(0, coords)
    return np.sqrt(np.linalg.det(np.einsum("...ni,...nj->...ij", jac, jac)))


class TestVolumeElement:
    @pytest.mark.parametrize("M", [QUADRIC, PLANE, GRAPH],
                             ids=["quadric411", "plane", "graph"])
    def test_graph_closed_form_matches_determinant(self, M, rng):
        chart = M.charts[0]
        corners = np.array(list(itertools.product(*zip(chart.lo, chart.hi))))
        pts = np.concatenate([random_points(M, 2000, rng, margin=0.0), corners])
        dens = M.sqrt_det_metric(0, pts)
        assert dens.shape == (pts.shape[0],)
        np.testing.assert_allclose(dens, det_chain(M, pts), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("M", [QUADRIC, PLANE, GRAPH],
                             ids=["quadric411", "plane", "graph"])
    def test_outside_box_rejected(self, M):
        chart = M.charts[0]
        outside = chart.hi + 0.5 * (chart.hi - chart.lo)
        with pytest.raises(DomainError):
            M.sqrt_det_metric(0, outside[None, :])

    def test_quadric_volume_matches_determinant_chain(self):
        from ckl.operator import build_full_rule
        rule = build_full_rule(QUADRIC, order=96)
        reference = float(np.sum(rule.weights * det_chain(QUADRIC, rule.nodes)))
        assert QUADRIC.volume() == pytest.approx(reference, rel=1e-12)

    def test_graph_density_never_uses_jacobian(self, monkeypatch, rng):
        # the closed form must stay the only route for graph densities
        from ckl.operator import apply_operator, build_localized_rule
        x = ChartPoint(0, [0.1, 0.0, -0.05])
        cases = []
        for eps in (0.1, 1e-3):    # one full-box rule, one windowed rule
            rule = build_localized_rule(QUADRIC, x, eps, order=16)
            cases.append((eps, rule, apply_operator(QUADRIC, const_one, x, eps, rule)))

        M = catalog_manifold("quadric411")
        monkeypatch.setattr(M.charts[0], "_derivs", embedding_only(M.charts[0]))
        pts = random_points(M, 100, rng)
        np.testing.assert_array_equal(M.sqrt_det_metric(0, pts),
                                      QUADRIC.sqrt_det_metric(0, pts))
        assert M.volume() == QUADRIC.volume()
        for eps, rule, expected in cases:
            assert apply_operator(M, const_one, x, eps, rule) == expected

    TRIG = {"sphere2": S2, "sphere3": S3, "spheroid": SPHEROID, "torus": TORUS,
            **{text: load_manifold_text(text) for text in (
                "type=sphere dim=3 radius=2", "type=spheroid a=0.7 c=2.5",
                "type=torus R=3 r=0.5")}}

    @pytest.mark.parametrize("name", list(TRIG))
    def test_trig_closed_form_matches_determinant(self, name, rng):
        M = self.TRIG[name]
        chart = M.charts[0]
        pts = random_points(M, 2000, rng, margin=0.0)
        dens = M.sqrt_det_metric(0, pts)
        assert dens.shape == (pts.shape[0],)
        np.testing.assert_allclose(dens, det_chain(M, pts), rtol=1e-14, atol=0)
        # box corners include the poles, where the density vanishes: there
        # the determinant chain is accurate only to a few ulps of its scale
        corners = np.array(list(itertools.product(*zip(chart.lo, chart.hi))))
        ulps = 4 * np.finfo(float).eps * np.max(dens)
        np.testing.assert_allclose(M.sqrt_det_metric(0, corners),
                                   det_chain(M, corners), rtol=1e-14, atol=ulps)

    def test_sphere3_outside_box_rejected(self):
        for axis in (0, 1):         # psi and theta; phi is periodic
            for value in (-0.1, math.pi + 0.1):
                coords = np.array([[1.0, 1.0, 1.0]])
                coords[0, axis] = value
                with pytest.raises(DomainError):
                    S3.sqrt_det_metric(0, coords)
        wrapped = S3.sqrt_det_metric(0, np.array([[1.0, 1.0, 1.0 + 4 * math.pi]]))
        np.testing.assert_array_equal(
            wrapped, S3.sqrt_det_metric(0, np.array([[1.0, 1.0, 1.0]])))

    @pytest.mark.parametrize("name", ["sphere2", "sphere3", "spheroid", "torus"])
    def test_trig_density_never_uses_jacobian(self, name, monkeypatch, rng):
        # the closed form must stay the only route for trig densities
        from ckl.operator import apply_operator, build_localized_rule
        reference = self.TRIG[name]
        chart = reference.charts[0]
        x = ChartPoint(0, 0.5 * (chart.lo + chart.hi) + 0.1)
        cases = []
        for eps in (0.1, 1e-3):    # one full-box rule, one windowed rule
            rule = build_localized_rule(reference, x, eps, order=16)
            cases.append((eps, rule, apply_operator(reference, const_one, x, eps,
                                                    rule)))

        M = catalog_manifold(name)
        monkeypatch.setattr(M.charts[0], "_derivs", embedding_only(M.charts[0]))
        pts = random_points(M, 100, rng)
        np.testing.assert_array_equal(M.sqrt_det_metric(0, pts),
                                      reference.sqrt_det_metric(0, pts))
        assert M.volume() == reference.volume()
        for eps, rule, expected in cases:
            assert apply_operator(M, const_one, x, eps, rule) == expected


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------

class TestChristoffel:
    def test_sphere_closed_form(self, rng):
        pts = random_points(S2, 200, rng)
        theta = pts[:, 0]
        expected = np.zeros((pts.shape[0], 2, 2, 2))
        expected[:, 0, 1, 1] = -np.sin(theta) * np.cos(theta)
        expected[:, 1, 0, 1] = expected[:, 1, 1, 0] = np.cos(theta) / np.sin(theta)
        np.testing.assert_allclose(S2.christoffel(0, pts), expected,
                                   rtol=0, atol=1e-12)

    def test_torus_closed_form(self, rng):
        R, r = 2.0, 1.0
        pts = random_points(TORUS, 200, rng, margin=0.0)
        v = pts[:, 1]
        w = R + r * np.cos(v)
        expected = np.zeros((pts.shape[0], 2, 2, 2))
        expected[:, 0, 0, 1] = expected[:, 0, 1, 0] = -r * np.sin(v) / w
        expected[:, 1, 0, 0] = w * np.sin(v) / r
        np.testing.assert_allclose(TORUS.christoffel(0, pts), expected,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("M", [TORUS, S3, S2, SPHEROID, QUADRIC, GRAPH],
                             ids=["torus", "sphere3", "sphere2", "spheroid",
                                  "quadric411", "graph"])
    def test_finite_difference_chart(self, M, rng):
        # the exact derivatives, and the Christoffel symbols built from them,
        # agree with differences of the embedding
        pts = random_points(M, 20, rng)
        jac, hess = fd_jet(M, pts)
        np.testing.assert_allclose(jac, M.jacobian(0, pts), rtol=0, atol=1e-8)
        np.testing.assert_allclose(hess, M.hessian(0, pts), rtol=0, atol=1e-8)
        np.testing.assert_allclose(_connection(jac, hess)[1],
                                   M.christoffel(0, pts), rtol=0, atol=1e-8)


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------

class TestCurvature:
    def test_unit_sphere(self):
        rep = curvature_at(S2, EQUATOR)
        assert rep.mean_curvature_norm_sq == pytest.approx(1.0, abs=1e-12)
        assert rep.scalar_curvature == pytest.approx(2.0, abs=1e-12)

    def test_unit_three_sphere(self):
        rep = curvature_at(S3, ChartPoint(0, [1.3, 1.1, 0.4]))
        assert rep.mean_curvature_norm_sq == pytest.approx(1.0, abs=1e-11)
        assert rep.scalar_curvature == pytest.approx(6.0, abs=1e-10)

    def test_plane_flat(self):
        rep = curvature_at(PLANE, ChartPoint(0, [0.4, 0.1]))
        assert np.allclose(rep.mean_curvature_vector, 0.0, atol=1e-13)
        assert rep.scalar_curvature == pytest.approx(0.0, abs=1e-13)

    def test_quadric_origin(self):
        rep = curvature_at(QUADRIC, ChartPoint(0, [0.0, 0.0, 0.0]))
        assert rep.mean_curvature_norm_sq == pytest.approx(4.0, abs=1e-12)
        assert rep.scalar_curvature == pytest.approx(18.0, abs=1e-12)

    def test_sff_normal_to_frame(self, rng):
        for M in (S2, S3, TORUS, QUADRIC):
            for coords in random_points(M, 10, rng):
                rep = curvature_at(M, ChartPoint(0, coords))
                sff = np.moveaxis(rep.sff, -1, 0)
                dots = np.einsum("nab,cn->abc", sff, rep.frame)
                assert np.max(np.abs(dots)) < 1e-8 * max(1.0, np.max(np.abs(sff)))

    def test_gauss_equation_consistency(self, rng):
        # extrinsic (Gauss identity) and intrinsic (metric-only) scalar
        # curvature agree to 1e-7 relative on the whole catalog
        for M in (S2, S3, TORUS, SPHEROID, QUADRIC, PLANE):
            for coords in random_points(M, 6, rng):
                p = ChartPoint(0, coords)
                extr = curvature_at(M, p).scalar_curvature
                intr = scalar_curvature_intrinsic(M, p)
                assert abs(extr - intr) <= 1e-7 * max(1.0, abs(extr)), M.catalog_id

    def test_torus_outer_equator(self):
        rep = curvature_at(TORUS, ChartPoint(0, [0.3, 0.0]))
        assert rep.scalar_curvature == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert rep.mean_curvature_norm_sq == pytest.approx(4.0 / 9.0, rel=1e-12)

    def test_ricci_frame_spheres(self):
        np.testing.assert_allclose(ricci_frame(S2, EQUATOR), np.eye(2), atol=1e-11)
        np.testing.assert_allclose(ricci_frame(S3, ChartPoint(0, [1.2, 1.5, 0.7])),
                                   2.0 * np.eye(3), atol=1e-10)


# ---------------------------------------------------------------------------
# Laplace-Beltrami
# ---------------------------------------------------------------------------

class TestLaplaceBeltrami:
    def test_constant(self):
        assert laplace_beltrami(S2, ConstField(1.0), EQUATOR)[1] == pytest.approx(0.0,
                                                                         abs=1e-10)

    def test_sphere_linear_harmonic(self):
        # ambient z restricted to S^2 has eigenvalue 2 in this sign convention
        p = ChartPoint(0, [math.acos(0.6), 1.3])
        _, val = laplace_beltrami(S2, AmbientCoordField(3, 3), p)
        assert val == pytest.approx(2.0 * 0.6, abs=1e-6)

    def test_sphere_harmonic_dense_grid_oracle(self):
        # independent oracle: geodesic-ray second differences in normal coords
        p = ChartPoint(0, [math.acos(0.25), 0.9])
        _, val = laplace_beltrami(S2, AmbientCoordField(3, 3), p)
        h = 1e-3
        acc = 0.0
        f0 = ambient_z(None, S2.embed(0, p.coords))
        for direction in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            plus = geodesic_shoot(S2, p, direction, h, steps=50).final.position
            minus = geodesic_shoot(S2, p, -direction, h, steps=50).final.position
            acc += (ambient_z(None, plus) - 2 * f0 + ambient_z(None, minus)) / h ** 2
        assert val == pytest.approx(-acc, abs=5e-5)

    def test_torus_ambient_z(self):
        # non-constant metric: the divergence term carries sin v / (R + r cos v)
        R, r = 2.0, 1.0
        for u, v in ((0.3, 0.7), (1.0, 2.0), (2.5, 4.0), (4.0, 5.5), (5.9, 0.1)):
            expected = (math.sin(v) * (R + 2 * r * math.cos(v))
                        / (r * (R + r * math.cos(v))))
            _, val = laplace_beltrami(TORUS, AmbientCoordField(3, 3),
                                      ChartPoint(0, [u, v]))
            assert val == pytest.approx(expected, abs=5e-7)

    def test_torus_ambient_z_exact(self):
        R, r = 2.0, 1.0
        for u, v in ((0.3, 0.7), (1.0, 2.0), (2.5, 4.0), (4.0, 5.5), (5.9, 0.1)):
            expected = (math.sin(v) * (R + 2 * r * math.cos(v))
                        / (r * (R + r * math.cos(v))))
            _, val = laplace_beltrami(TORUS, AmbientCoordField(3, 3),
                                      ChartPoint(0, [u, v]))
            assert val == pytest.approx(expected, abs=1e-12)

    def test_graph_poly_field(self):
        # P = u^2 + v^2 and f = u^4 at (1/2, 0): grad P = (1, 0), W = 1 +
        # |grad P|^2 = 2, g^{11} = 1 - 1/W = 1/2, and g^{kl} Gamma^j_kl =
        # tr(g^{-1} Hess P) grad^j P / W with tr(g^{-1} Hess P) = 2 (2 - 1/W)
        # = 3; f_11 = 3, grad f = (1/2, 0), so
        # Lap f = -(g^{11} f_11 - 3 (grad P . grad f) / W) = -(3/2 - 3/4)
        M = load_manifold_text("type=graph d=2 poly=1:(2,0),1:(0,2) box=1.0")
        f = ChartPolyField("1:(4,0)", 2)
        assert laplace_beltrami(M, f, ChartPoint(0, [0.5, 0.0]))[1] \
            == pytest.approx(-0.75, abs=1e-12)

    def test_plane_quadratic(self):
        f = ChartPolyField("1:(2,0),1:(0,2)", 2)
        _, val = laplace_beltrami(PLANE, f, ChartPoint(0, [0.2, -0.3]))
        assert val == pytest.approx(-4.0, abs=1e-7)

    def test_nonfinite_field_rejected(self):
        bad = ConstField(float("nan"))
        with pytest.raises(ValidationError):
            laplace_beltrami(S2, bad, EQUATOR)


# ---------------------------------------------------------------------------
# Geodesics
# ---------------------------------------------------------------------------

class TestGeodesics:
    def test_great_circle_chord(self):
        path = geodesic_shoot(S2, EQUATOR, np.array([0.6, 0.8]), 1.5, steps=1500)
        x0 = path.states[0].position
        for s in path.states[::150]:
            chord = float(np.sum((s.position - x0) ** 2))
            assert chord == pytest.approx(4 * math.sin(s.arc_length / 2) ** 2,
                                          abs=1e-10)

    def test_unit_speed_and_tangency(self):
        # RK step 1e-3: drift below 1e-7 per unit arc length
        path = geodesic_shoot(TORUS, ChartPoint(0, [0.4, 1.1]),
                              np.array([0.28, 0.96]), 0.8, steps=800)
        for s in path.states[::80]:
            assert abs(np.linalg.norm(s.velocity) - 1.0) <= 1e-7
            p = s.chart_position
            jac = TORUS.jacobian(0, p.coords)
            q, _ = np.linalg.qr(jac)
            normal_part = s.velocity - q @ (q.T @ s.velocity)
            assert np.linalg.norm(normal_part) <= 1e-7

    def test_plane_straight_line(self):
        path = geodesic_shoot(PLANE, ChartPoint(0, [0.1, -0.2]),
                              np.array([0.8, 0.6]), 1.0, steps=200)
        end = path.final
        np.testing.assert_allclose(end.chart_position.coords,
                                   [0.1 + 0.8, -0.2 + 0.6], atol=1e-12)

    def test_torus_meridian_circle(self):
        # meridians (u = const) are geodesics: closed-form circle of radius r=1
        start = ChartPoint(0, [1.0, 0.5])
        path = geodesic_shoot(TORUS, start, np.array([0.0, 1.0]), 0.8,
                              record_times=np.linspace(0.1, 0.8, 8))
        for s in path.states[1:]:
            u, v = s.chart_position.coords
            assert u == pytest.approx(1.0, abs=1e-8)
            assert v == pytest.approx(0.5 + s.arc_length, abs=1e-8)
            expected = np.array([(2 + math.cos(v)) * math.cos(u),
                                 (2 + math.cos(v)) * math.sin(u),
                                 math.sin(v)])
            np.testing.assert_allclose(s.position, expected, atol=1e-8)

    def test_truncation_flagged(self):
        path = geodesic_shoot(QUADRIC, ChartPoint(0, [0.9, 0.0, 0.0]),
                              np.array([1.0, 0.0, 0.0]), 0.9, steps=300)
        assert path.truncated

    def test_bad_direction_rejected(self):
        with pytest.raises(ValidationError):
            geodesic_shoot(S2, EQUATOR, np.array([1.0, 1.0]), 0.5)

    def test_beyond_delta_rejected(self):
        with pytest.raises(ValidationError):
            geodesic_shoot(S2, EQUATOR, np.array([1.0, 0.0]), S2.delta + 0.1)


# ---------------------------------------------------------------------------
# Chord expansion
# ---------------------------------------------------------------------------

class TestChordExpansion:
    GRID = np.geomspace(0.02, 0.25, 12)

    def test_sphere(self):
        ce = chord_expansion_check(S2, EQUATOR, np.array([0.6, 0.8]), self.GRID)
        assert ce.g2 == pytest.approx(2.0, abs=1e-6)
        assert ce.g4 == pytest.approx(-2.0, abs=1e-4)
        assert ce.residual_exponent >= 4.9

    def test_plane(self):
        ce = chord_expansion_check(PLANE, ChartPoint(0, [0.0, 0.0]),
                                   np.array([1.0, 0.0]), self.GRID)
        assert ce.g2 == pytest.approx(2.0, abs=1e-9)
        assert ce.g4 == pytest.approx(0.0, abs=1e-7)

    def test_torus_meridian(self):
        # normal curvature of the meridian direction at the outer circle is 1
        ce = chord_expansion_check(TORUS, ChartPoint(0, [1.0, 0.0]),
                                   np.array([0.0, 1.0]), self.GRID)
        rep = curvature_at(TORUS, ChartPoint(0, [1.0, 0.0]))
        sff = np.moveaxis(rep.sff, -1, 0)
        bvv = np.einsum("nab,a,b->n", sff, [0.0, 1.0], [0.0, 1.0])
        assert ce.g4 == pytest.approx(-2.0 * float(bvv @ bvv), abs=1e-4)
        assert ce.g4 == pytest.approx(-2.0, abs=1e-4)
        assert ce.residual_exponent >= 4.9

    def test_torus_generic_direction(self):
        v = np.array([0.6, 0.8])
        ce = chord_expansion_check(TORUS, ChartPoint(0, [1.0, 0.7]), v, self.GRID)
        rep = curvature_at(TORUS, ChartPoint(0, [1.0, 0.7]))
        sff = np.moveaxis(rep.sff, -1, 0)
        bvv = np.einsum("nab,a,b->n", sff, v, v)
        assert ce.g2 == pytest.approx(2.0, abs=1e-6)
        assert ce.g4 == pytest.approx(-2.0 * float(bvv @ bvv), abs=1e-4)
        assert ce.residual_exponent >= 4.9

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            chord_expansion_check(S2, EQUATOR, np.array([1.0, 0.0]), [0.1, 0.2])

    def test_truncated_geodesic_rejected(self):
        from ckl import TruncatedPathError
        near_edge = ChartPoint(0, [0.9, 0.0, 0.0])
        with pytest.raises(TruncatedPathError):
            chord_expansion_check(QUADRIC, near_edge, np.array([1.0, 0.0, 0.0]),
                                  np.geomspace(0.05, 0.6, 8))


# ---------------------------------------------------------------------------
# Volume density
# ---------------------------------------------------------------------------

class TestVolumeDensity:
    def test_sphere_closed_form(self):
        rho = volume_density(S2, EQUATOR, np.array([0.6, 0.8]), 0.3)
        assert rho == pytest.approx(math.sin(0.3) / 0.3, abs=1e-9)

    def test_three_sphere_closed_form(self):
        rho = volume_density(S3, ChartPoint(0, [1.4, 1.2, 0.8]),
                             np.array([0.0, 0.6, 0.8]), 0.25)
        assert rho == pytest.approx((math.sin(0.25) / 0.25) ** 2, abs=1e-8)

    def test_plane_is_one(self):
        rho = volume_density(PLANE, ChartPoint(0, [0.0, 0.0]),
                             np.array([0.6, -0.8]), 0.5)
        assert rho == pytest.approx(1.0, abs=1e-10)

    def test_small_s_limit_one(self):
        for M, p, v in ((S2, EQUATOR, np.array([1.0, 0.0])),
                        (TORUS, ChartPoint(0, [0.5, 1.0]), np.array([0.6, 0.8]))):
            rho = volume_density(M, p, v, 0.02)
            assert rho == pytest.approx(1.0, abs=5e-4)

    def test_richardson_oracle_three_steps(self):
        # pencil Jacobian at three step sizes, extrapolated, as an oracle
        vals = [volume_density(S2, EQUATOR, np.array([1.0, 0.0]), 0.3, fd_step=h)
                for h in (4e-3, 2e-3, 1e-3)]
        extrap = (4 * vals[2] - vals[1]) / 3.0
        assert vals[2] == pytest.approx(extrap, abs=1e-8)
        assert extrap == pytest.approx(math.sin(0.3) / 0.3, abs=1e-8)

    def test_pencil_exiting_chart_rejected(self):
        from ckl import TruncatedPathError
        near_edge = ChartPoint(0, [0.9, 0.0, 0.0])
        with pytest.raises(TruncatedPathError):
            volume_density(QUADRIC, near_edge, np.array([1.0, 0.0, 0.0]), 0.5)


# ---------------------------------------------------------------------------
# Catalog parsing
# ---------------------------------------------------------------------------

class TestCatalogParsing:
    def test_sphere_text(self):
        M = load_manifold_text("type=sphere radius=1.0")
        assert M.dim == 2 and M.ambient_dim == 3
        assert M.delta == pytest.approx(math.pi - 0.1)

    def test_torus_text_with_delta(self):
        M = load_manifold_text("type=torus R=2.0 r=1.0 delta=0.7")
        assert M.delta == 0.7

    def test_graph_monomial_list(self):
        M = load_manifold_text("type=graph d=3 poly=0.5:(2,0,0),0.5:(0,2,0),2:(0,0,2)")
        rep = curvature_at(M, ChartPoint(0, [0.0, 0.0, 0.0]))
        assert rep.scalar_curvature == pytest.approx(18.0, abs=1e-12)
        assert M.delta == pytest.approx(1.0)

    def test_graph_human_poly(self):
        M = load_manifold_text("type=graph d=3 poly=0.5*x1^2+0.5*x2^2+2*x3^2")
        rep = curvature_at(M, ChartPoint(0, [0.0, 0.0, 0.0]))
        assert rep.scalar_curvature == pytest.approx(18.0, abs=1e-12)

    def test_poly_parse_errors(self):
        with pytest.raises(ValidationError):
            parse_poly("0.5:(2,0)", 3)
        with pytest.raises(ValidationError):
            parse_poly("garbage*y1", 2)

    def test_unknown_type(self):
        with pytest.raises(ValidationError):
            load_manifold_text("type=mobius")

    def test_unknown_field_named(self):
        with pytest.raises(ValidationError) as err:
            load_manifold_text("type=torus R=2.0 bogus=1")
        assert "bogus" in str(err.value)

    def test_missing_type(self):
        with pytest.raises(ValidationError):
            load_manifold_text("radius=1.0")

    @pytest.mark.parametrize("text, field", [
        ("type=sphere radius=abc", "radius"),
        ("type=sphere dim=2.5", "dim"),
        ("type=spheroid a=nan", "a"),
        ("type=spheroid c=1e999", "c"),
        ("type=torus R=inf r=1", "R"),
        ("type=torus r=-inf", "r"),
        ("type=graph d=x", "d"),
        ("type=graph d=2 box=inf", "box"),
        ("type=torus delta=nan", "delta"),
    ])
    def test_bad_number_named(self, text, field):
        # every numeric field must parse as a finite number
        with pytest.raises(ValidationError) as err:
            load_manifold_text(text)
        assert f"field {field}=" in str(err.value)
