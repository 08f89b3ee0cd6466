"""Geometry-layer tests: metric, curvature, Laplacian, geodesics, density."""

import copy
import hashlib
import itertools
import math

import numpy as np
import pytest

from ckl import DegenerateChartError, DomainError, TruncatedPathError, ValidationError
from ckl.catalog import (
    COS,
    SIN,
    PolyTerms,
    catalog_manifold,
    graph_chart,
    load_manifold_text,
    parse_poly,
    trig_chart,
    trig_diff,
)
from ckl.fields import AmbientCoordField, ChartPolyField, ConstField
from ckl.manifold import (
    ChartPoint,
    TensorGrid,
    _connection,
    chord_expansion_check,
    curvature_at,
    geodesic_shoot,
    laplace_beltrami,
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
CUBIC = load_manifold_text("type=graph d=2 poly=0.5*x1^2+0.5*x2^2+0.3*x1^3")
CHARTS = {"torus": TORUS, "sphere3": S3, "sphere2": S2, "spheroid": SPHEROID,
          "plane": PLANE, "quadric411": QUADRIC, "graph": GRAPH, "cubic": CUBIC}

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


def central_diff(fn, coords, h):
    """Batched ``d fn / d coords`` by central differences with one Richardson
    step, ``(-1/3) D(h) + (4/3) D(h/2)``.  ``h`` holds the per-axis steps with
    the shape of ``coords`` ``(..., d)``; for ``fn`` values of shape
    ``(..., *S)`` the result is ``(..., *S, d)``."""
    cols = []
    for i in range(coords.shape[-1]):
        def diff(scale):
            hh = h[..., i] * scale
            step = np.zeros_like(coords)
            step[..., i] = hh
            delta = fn(coords + step) - fn(coords - step)
            return delta / (2.0 * hh)[(...,) + (None,) * (delta.ndim - hh.ndim)]
        cols.append(-1.0 / 3.0 * diff(1.0) + 4.0 / 3.0 * diff(0.5))
    return np.stack(cols, axis=-1)


def fd_jet(M, coords, orders=(1, 2), step=1e-3):
    """M's derivative tensors of ``orders`` from Richardson central
    differences at step ``step (1 + |coord|)``: orders 1 and 2 difference the
    embedding alone, once and twice, and an order k >= 3 differences the
    chart's exact order k - 1 once."""
    def diff(fn):
        return lambda c: central_diff(fn, c, step * (1.0 + np.abs(c)))
    jac = diff(lambda c: M.embed(0, c))
    by_order = {1: jac, 2: diff(jac)}
    return tuple(by_order[k](coords) if k in by_order
                 else diff(lambda c, k=k: M.charts[0].jet(c, (k - 1,))[1])(coords)
                 for k in orders)


def embedding_only(chart):
    """``chart``'s derivative closure, refusing every order above 0."""
    derivs = chart._derivs

    def call(coords, orders, volume=False):
        if any(k >= 1 for k in orders):
            raise AssertionError("volume element evaluated a derivative")
        return derivs(coords, orders, volume)
    return call


# ---------------------------------------------------------------------------
# Metric
# ---------------------------------------------------------------------------

class TestMetric:
    def test_sphere_equator(self):
        g = S2.metric(0, [math.pi / 2, 0.0])
        np.testing.assert_allclose(g, np.eye(2), atol=1e-14)

    def test_plane_identity(self):
        g = PLANE.metric(0, [0.3, -0.7])
        np.testing.assert_allclose(g, np.eye(2), atol=1e-14)

    def test_torus_closed_form(self):
        g = TORUS.metric(0, [0.0, 0.0])
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
            QUADRIC.metric(0, [2.0, 0.0, 0.0])

    def test_degenerate_pole_rejected(self):
        with pytest.raises(DegenerateChartError):
            S2.metric(0, [1e-9, 0.0])

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

    @pytest.mark.parametrize("coords", [[math.nan, 0.3], [0.3, math.inf],
                                        [-math.inf, 0.0]])
    def test_nonfinite_point_rejected(self, coords):
        # a NaN on the torus's periodic axis has no box to fail, and would
        # reach np.linalg.det in every consumer of the point
        with pytest.raises(ValidationError):
            ChartPoint(0, coords)

    def test_box_without_axes_rejected(self):
        with pytest.raises(ValidationError):
            load_manifold_text("type=graph d=0")


def bits(a):
    """The float64 bit patterns of ``a``: -0.0 and 0.0 differ, as do NaNs."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


class TestWrap:
    """``Chart.wrap`` maps each periodic axis by ``lo + mod(col - lo, w)``,
    bit for bit, on the values where a shortcut could differ from it."""

    PERIODIC = {"sphere2": S2, "sphere3": S3, "spheroid": SPHEROID,
                "torus": TORUS, "file torus": load_manifold_text(
                    "type=torus R=3 r=0.5")}
    BOXES = [(0.0, 2 * math.pi), (-math.pi, math.pi), (0.3, 7.1),
             (-0.0, 2 * math.pi), (1e-300, 1.0)]

    @staticmethod
    def values(lo, hi, rng):
        w = hi - lo
        base = np.array([0.0, -0.0, lo, hi, lo - w, lo + w, lo + 2 * w])
        near = [base]
        for step in (1, 2):
            for direction in (-math.inf, math.inf):
                v = base
                for _ in range(step):
                    v = np.nextafter(v, direction)
                near.append(v)
        spread = rng.uniform(lo - 3 * w, lo + 3 * w, 4000)
        inside = rng.uniform(lo, hi, 4000)
        return np.concatenate(near + [spread, inside])

    @staticmethod
    def reference(chart, coords):
        out = np.array(coords, dtype=float, copy=True)
        for i, per in enumerate(chart.periodic):
            if per:
                lo, w = chart.lo[i], chart.hi[i] - chart.lo[i]
                out[..., i] = lo + np.mod(out[..., i] - lo, w)
        return out

    def check(self, chart, rng):
        for i in np.flatnonzero(chart.periodic):
            col = self.values(chart.lo[i], chart.hi[i], rng)
            coords = np.tile(0.5 * (chart.lo + chart.hi), (col.size, 1))
            coords[:, i] = col
            np.testing.assert_array_equal(bits(chart.wrap(coords)),
                                          bits(self.reference(chart, coords)))
            grid = chart.wrap(TensorGrid([coords[:, j] for j in range(chart.dim)]))
            np.testing.assert_array_equal(bits(grid[..., i]),
                                          bits(self.reference(chart, coords)[:, i]))

    @pytest.mark.parametrize("name", list(PERIODIC))
    def test_catalog_axes(self, name, rng):
        self.check(self.PERIODIC[name].charts[0], rng)

    @pytest.mark.parametrize("box", BOXES, ids=str)
    def test_other_boxes(self, box, rng):
        chart = copy.copy(TORUS.charts[0])
        chart.lo, chart.hi = np.array([box[0]] * 2), np.array([box[1]] * 2)
        self.check(chart, rng)


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
        # the volume figure bounds the chain's order-96 volume
        from ckl.operator import build_full_rule
        rule = build_full_rule(QUADRIC, order=96)
        reference = float(np.sum(rule.weights * det_chain(QUADRIC, rule.nodes)))
        assert QUADRIC.volume() >= reference

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

    @staticmethod
    def spheroid_form(a, c):
        def form(coords):
            sin, cos = np.sin(coords[..., 0]), np.cos(coords[..., 0])
            return a * np.abs(sin) * np.sqrt(a * a * cos * cos + c * c * sin * sin)
        return form

    @staticmethod
    def sphere3_form(radius):
        def form(coords):
            sin_psi = np.sin(coords[..., 0])
            return radius ** 3 * sin_psi * sin_psi * np.abs(np.sin(coords[..., 1]))
        return form

    @staticmethod
    def torus_form(R, r):
        return lambda coords: r * (R + r * np.cos(coords[..., 1]))

    CLOSED_FORMS = {
        "sphere2": spheroid_form(1.0, 1.0), "sphere3": sphere3_form(1.0),
        "spheroid": spheroid_form(1.0, 1.6), "torus": torus_form(2.0, 1.0),
        "type=sphere dim=3 radius=2": sphere3_form(2.0),
        "type=spheroid a=0.7 c=2.5": spheroid_form(0.7, 2.5),
        "type=torus R=3 r=0.5": torus_form(3.0, 0.5)}

    @pytest.mark.parametrize("name", list(TRIG))
    def test_trig_volume_element_bits(self, name, rng):
        # the closed forms as the catalog writes them, bit for bit, at random
        # points (periodic axes beyond the box) and on a tensor grid
        M, form = self.TRIG[name], self.CLOSED_FORMS[name]
        chart = M.charts[0]
        width = np.where(chart.periodic, chart.hi - chart.lo, 0.0)
        pts = rng.uniform(chart.lo - width, chart.hi + width, size=(2000, M.dim))
        np.testing.assert_array_equal(bits(M.sqrt_det_metric(0, pts)),
                                      bits(form(chart.wrap(pts))))
        grid = TensorGrid.product([np.linspace(lo - w, hi + w, 7 + 2 * i)
                                   for i, (lo, hi, w) in enumerate(
                                       zip(chart.lo, chart.hi, width))])
        expected = np.broadcast_to(form(chart.wrap(grid)), grid.shape[:-1])
        np.testing.assert_array_equal(bits(M.sqrt_det_metric(0, grid)),
                                      bits(expected))

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

    @pytest.mark.parametrize("M, axis, value", [
        (S3, 0, -0.1), (S3, 1, math.pi + 1e-12), (S3, 0, math.nan),
        (S3, 2, 3 * math.pi), (S3, 2, math.nan), (S3, 1, math.pi),
        (QUADRIC, 2, 1.5), (QUADRIC, 1, math.nan), (QUADRIC, 0, -1.0),
    ], ids=["psi-low", "theta-high", "psi-nan", "phi-beyond", "phi-nan",
            "theta-edge", "quadric-high", "quadric-nan", "quadric-edge"])
    def test_bounds_checked_per_axis(self, M, axis, value, monkeypatch):
        # a grid's or array's bounds are decided one axis column at a time,
        # as the dense mask decides them; a periodic axis is never refused
        chart = M.charts[0]
        axes = [np.linspace(lo + 0.1, min(hi, lo + 3.0) - 0.1, 4 + i)
                for i, (lo, hi) in enumerate(zip(chart.lo, chart.hi))]
        axes[axis][-2] = value
        grid = TensorGrid.product(axes)
        inside = bool(np.all(chart.contains(np.asarray(grid))))
        assert inside == (chart.periodic[axis] or chart.lo[axis] <= value <= chart.hi[axis])

        def masked(self, coords):
            raise AssertionError("a mask of the batch's shape was built")

        monkeypatch.setattr(type(chart), "contains", masked)
        for coords in (grid, np.asarray(grid)):
            if inside:
                chart.require_inside(coords)
            else:
                with pytest.raises(DomainError):
                    chart.require_inside(coords)

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

def christoffel(M, pts):
    return _connection(*M.charts[0].jet(pts, (1, 2))[1:])[1]


class TestChristoffel:
    def test_sphere_closed_form(self, rng):
        pts = random_points(S2, 200, rng)
        theta = pts[:, 0]
        expected = np.zeros((pts.shape[0], 2, 2, 2))
        expected[:, 0, 1, 1] = -np.sin(theta) * np.cos(theta)
        expected[:, 1, 0, 1] = expected[:, 1, 1, 0] = np.cos(theta) / np.sin(theta)
        np.testing.assert_allclose(christoffel(S2, pts), expected,
                                   rtol=0, atol=1e-12)

    def test_torus_closed_form(self, rng):
        R, r = 2.0, 1.0
        pts = random_points(TORUS, 200, rng, margin=0.0)
        v = pts[:, 1]
        w = R + r * np.cos(v)
        expected = np.zeros((pts.shape[0], 2, 2, 2))
        expected[:, 0, 0, 1] = expected[:, 0, 1, 0] = -r * np.sin(v) / w
        expected[:, 1, 0, 0] = w * np.sin(v) / r
        np.testing.assert_allclose(christoffel(TORUS, pts), expected,
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
                                   christoffel(M, pts), rtol=0, atol=1e-8)


class TestJet:
    @pytest.mark.parametrize("M", CHARTS.values(), ids=CHARTS.keys())
    def test_orders_three_and_four(self, M, rng):
        # each order is the difference of the exact order below it
        pts = random_points(M, 10, rng)
        for k, fd in zip((3, 4), fd_jet(M, pts, (3, 4))):
            exact = M.charts[0].jet(pts, (k,))[1]
            assert exact.shape == (10, M.ambient_dim) + (M.dim,) * k
            np.testing.assert_allclose(fd, exact, rtol=0, atol=1e-10)

    # a graph with cross terms: a mixed partial's coefficient is rounded
    # once, whatever the order of its partials (0.1 * 3 * 5 != 0.1 * 5 * 3)
    MIXED = load_manifold_text(
        "type=graph d=2 poly=0.1:(3,5),0.7:(2,1),1.3:(1,1) box=1.0")

    @pytest.mark.parametrize("M", [*CHARTS.values(), MIXED],
                             ids=[*CHARTS.keys(), "mixed"])
    def test_symmetric_in_derivative_indices(self, M, rng):
        pts = random_points(M, 10, rng)
        for k in (2, 3, 4):
            t = M.charts[0].jet(pts, (k,))[1]
            for perm in itertools.permutations(range(2, 2 + k)):
                np.testing.assert_array_equal(t.transpose(0, 1, *perm), t)

    # every catalog chart and MIXED, written out: trig components with their
    # box, or a graph's polynomial with its halfwidth
    TUBE = (2.0, 0.0, 1.0)
    WRITTEN = {
        "sphere2": ([[(1.0, {0: SIN, 1: COS})], [(1.0, {0: SIN, 1: SIN})],
                     [(1.0, {0: COS})]], [0.0, 0.0], [math.pi, 2 * math.pi],
                    [False, True]),
        "sphere3": ([[(1.0, {0: SIN, 1: SIN, 2: COS})],
                     [(1.0, {0: SIN, 1: SIN, 2: SIN})],
                     [(1.0, {0: SIN, 1: COS})], [(1.0, {0: COS})]],
                    [0.0, 0.0, 0.0], [math.pi, math.pi, 2 * math.pi],
                    [False, False, True]),
        "torus": ([[(1.0, {0: COS, 1: TUBE})], [(1.0, {0: SIN, 1: TUBE})],
                   [(1.0, {1: SIN})]], [0.0, 0.0], [2 * math.pi, 2 * math.pi],
                  [True, True]),
        "spheroid": ([[(1.0, {0: SIN, 1: COS})], [(1.0, {0: SIN, 1: SIN})],
                      [(1.6, {0: COS})]], [0.0, 0.0], [math.pi, 2 * math.pi],
                     [False, True]),
        "plane": (PolyTerms(2, []), 2.0),
        "quadric411": (PolyTerms(3, [(0.5, (2, 0, 0)), (0.5, (0, 2, 0)),
                                     (2.0, (0, 0, 2))]), 1.0),
        "mixed": (PolyTerms(2, [(0.1, (3, 5)), (0.7, (2, 1)), (1.3, (1, 1))]),
                  1.0),
    }

    @pytest.mark.parametrize("name", list(WRITTEN))
    def test_sorted_rows_match_row_major_reference(self, name, rng):
        # the reference differentiates each index tuple in its own order
        M = self.MIXED if name == "mixed" else catalog_manifold(name)
        written = self.WRITTEN[name]
        if len(written) == 2:
            poly, halfwidth = written
            chart = graph_chart(poly, halfwidth)
            components = [PolyTerms(M.dim, [(1.0, tuple(np.eye(M.dim, dtype=int)[i]))])
                          for i in range(M.dim)] + [poly]
            diff = PolyTerms.partial
        else:
            components, lo, hi, periodic = written
            chart = trig_chart(components, lo, hi, periodic, volume_form=None)
            diff = trig_diff
        pts = random_points(M, 5, rng)
        for k in (8, 10):
            tensor = chart.jet(pts, (k,))[1]
            np.testing.assert_array_equal(tensor, M.charts[0].jet(pts, (k,))[1])
            picks = zip(rng.integers(0, M.ambient_dim, 50),
                        rng.integers(0, M.dim, (50, k)))
            for c, idx in picks:
                entry = components[c]
                for i in idx:
                    entry = diff(entry, i)
                if len(written) == 2:
                    expected = entry(pts) if entry.terms else 0.0
                elif entry:
                    # a chart whose embedding is the one differentiated entry
                    expected = trig_chart([entry], *written[1:], None).jet(
                        pts, (0,))[1][:, 0]
                else:
                    expected = 0.0
                np.testing.assert_array_equal(
                    tensor[(slice(None), c, *idx)],
                    np.broadcast_to(expected, (len(pts),)))

    @pytest.mark.parametrize("M", [*CHARTS.values(), MIXED],
                             ids=[*CHARTS.keys(), "mixed"])
    def test_tensors_are_c_contiguous(self, M, rng):
        pts = random_points(M, 5, rng)
        for coords in (pts, pts[0], TensorGrid.product(list(pts[:3].T))):
            for t in M.charts[0].jet(coords, (1, 2, 3, 8))[1:]:
                assert t.flags.c_contiguous

    def test_graph_vanishes_above_its_degree(self, rng):
        M = load_manifold_text(
            "type=graph d=3 poly=0.3*x1^4+x1^2*x2*x3-0.5*x2^3+x3 box=1.0")
        pts = random_points(M, 10, rng, margin=0.0)
        four, five = M.charts[0].jet(pts, (4, 5))[1:]
        np.testing.assert_allclose(four[:, 3, 0, 0, 0, 0], 0.3 * 24, rtol=1e-15)
        assert five.shape == (10, 4) + (3,) * 5 and np.all(five == 0.0)


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
        # curvature agree to 1e-12 relative on the whole catalog
        for M in (S2, S3, TORUS, SPHEROID, QUADRIC, PLANE):
            for coords in random_points(M, 6, rng):
                p = ChartPoint(0, coords)
                extr = curvature_at(M, p).scalar_curvature
                intr = scalar_curvature_intrinsic(M, p)
                assert abs(extr - intr) <= 1e-12 * max(1.0, abs(extr)), M.catalog_id

    @pytest.mark.parametrize("M, coords, rel", [
        (TORUS, [0.3, 0.7], 1e-12), (S3, [1.0, 1.3, 2.0], 1e-12),
        (QUADRIC, [0.3, -0.2, 0.1], 1e-12), (SPHEROID, [1.0, 0.5], 1e-12),
        # interior points next to a non-periodic edge
        (S2, [0.02, 1.0], 1e-12), (QUADRIC, [0.995, 0.0, 0.0], 1e-12),
        # Gamma ~ cot(theta) ~ 250: the Ricci sum cancels terms near 6e4
        (S2, [0.004, 1.0], 1e-10),
    ], ids=["torus", "sphere3", "quadric411", "spheroid", "sphere2-edge",
            "quadric411-edge", "sphere2-near-pole"])
    def test_intrinsic_matches_extrinsic(self, M, coords, rel):
        p = ChartPoint(0, coords)
        extr = curvature_at(M, p).scalar_curvature
        assert scalar_curvature_intrinsic(M, p) == pytest.approx(extr, rel=rel)

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

    @pytest.mark.parametrize("offset", [1e-4, 2e-5, 5e-6])
    def test_inward_start_near_edge_not_truncated(self, offset):
        path = geodesic_shoot(PLANE, ChartPoint(0, [-2.0 + offset, 0.0]),
                              np.array([1.0, 0.0]), 0.5)
        assert not path.truncated
        np.testing.assert_allclose(path.final.chart_position.coords,
                                   [-1.5 + offset, 0.0], atol=1e-12)

    def test_outward_near_edge_truncated(self):
        path = geodesic_shoot(PLANE, ChartPoint(0, [2.0 - 1e-4, 0.0]),
                              np.array([1.0, 0.0]), 0.5)
        assert path.truncated
        assert path.final.chart_position.coords[0] <= 2.0

    def test_rk_stages_stay_in_box(self, monkeypatch):
        # on the saddle z = x^2 - y^2 a geodesic along the edge x = 1 bends
        # outward within one step: it is truncated, and no stage leaves the box
        M = load_manifold_text("type=graph d=2 poly=1:(2,0),-1:(0,2) box=1.0")
        chart, jet, stages = M.charts[0], M.charts[0].jet, []

        def recorded(coords, *args, **kwargs):
            stages.append(np.array(coords))
            return jet(coords, *args, **kwargs)

        monkeypatch.setattr(chart, "jet", recorded)
        for start, heading in (([1.0, 0.0], [0.0, 1.0]), ([0.99, 0.0], [0.0, 1.0]),
                               ([1.0 - 1e-4, 0.0], [1.0, 0.0])):
            path = geodesic_shoot(M, ChartPoint(0, start), np.array(heading), 0.5)
            assert path.truncated
        assert all(np.all(chart.contains(p)) for p in stages)

    def test_bad_direction_rejected(self):
        with pytest.raises(ValidationError):
            geodesic_shoot(S2, EQUATOR, np.array([1.0, 1.0]), 0.5)

    def test_beyond_delta_rejected(self):
        with pytest.raises(ValidationError):
            geodesic_shoot(S2, EQUATOR, np.array([1.0, 0.0]), S2.delta + 0.1)

    @pytest.mark.parametrize("steps, record_times",
                             [(0, None), (-3, None), (-3, [0.1, 0.2])])
    def test_nonpositive_steps_rejected(self, steps, record_times):
        with pytest.raises(ValidationError):
            geodesic_shoot(S2, EQUATOR, np.array([1.0, 0.0]), 0.5, steps=steps,
                           record_times=record_times)

    @pytest.mark.parametrize("call", [
        lambda: geodesic_shoot(S2, EQUATOR, [1.0, 0.0], float("nan")),
        lambda: geodesic_shoot(S2, EQUATOR, [1.0, 0.0], 0.5,
                               record_times=[0.1, float("nan")]),
        lambda: geodesic_shoot(S2, EQUATOR, [1.0, 0.0], 0.5,
                               record_times=[0.1, float("inf")]),
        lambda: geodesic_shoot(S2, EQUATOR, [1.0, 0.0], 0.5, steps=2.5),
        lambda: geodesic_shoot(S2, EQUATOR, [float("nan"), 0.0], 0.5),
        lambda: geodesic_shoot(S2, EQUATOR, [0.6, 0.0, 0.8], 0.5),
        lambda: chord_expansion_check(
            S2, EQUATOR, [1.0, 0.0], [0.02, 0.04, float("nan"), 0.1, 0.15, 0.2]),
        lambda: volume_density(S2, EQUATOR, [float("nan"), 1.0], 0.3),
        lambda: geodesic_shoot(S2, EQUATOR, [0.0, 1.0], 0.5,
                               record_times=[0.1, 5.0]),
    ], ids=["t_max-nan", "record-nan", "record-inf", "steps-fraction",
            "direction-nan", "direction-length", "t_grid-nan", "density-nan",
            "record-beyond-t_max"])
    def test_nonfinite_inputs_rejected(self, call):
        # each is refused as bad input, not as a chart-domain error or a raw
        # numpy or conversion error
        with pytest.raises(ValidationError) as err:
            call()
        assert err.type is ValidationError

    def test_record_time_takes_whole_steps(self, monkeypatch):
        # a record time t = t_max is t_max / (t_max / steps) = steps segments
        # up to rounding; 250 of these 6,000 quotients round just above it
        # (steps=100, t=0.006555 gives 100.00000000000001)
        import ckl.manifold as manifold
        taken = []

        def count_steps(M, ci, state, span, nsteps, jet):
            taken.append(nsteps)
            return state, False, jet

        monkeypatch.setattr(manifold, "_integrate", count_steps)
        extra = []
        for steps in (100, 600, 800):
            for k in range(1, 2001):
                t = k * 0.000437
                geodesic_shoot(PLANE, ChartPoint(0, [0.1, -0.2]),
                               np.array([0.8, 0.6]), t, steps=steps,
                               record_times=[t])
                if taken.pop() != steps:
                    extra.append((steps, t))
        assert extra == []


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

def pencil_density(M, x, v, s, h=1e-3):
    """The normal-coordinate density at ``exp_x(s v)`` from the Gram
    determinant of central differences, with one Richardson step, of
    ``exp_x`` over a pencil of geodesics from :func:`geodesic_shoot`."""
    w0 = s * np.asarray(v, dtype=float)

    def exp(w):
        t = float(np.linalg.norm(w))
        return geodesic_shoot(M, x, w / t, t, steps=100,
                              record_times=[t]).final.position

    cols = []
    for e in np.eye(M.dim):
        def diff(step):
            return (exp(w0 + step * e) - exp(w0 - step * e)) / (2.0 * step)
        cols.append(-1.0 / 3.0 * diff(h) + 4.0 / 3.0 * diff(0.5 * h))
    a = np.stack(cols, axis=1)
    return math.sqrt(np.linalg.det(a.T @ a))


class TestVolumeDensity:
    def test_sphere_closed_form(self):
        rho = volume_density(S2, EQUATOR, np.array([0.6, 0.8]), 0.3)
        assert rho == pytest.approx(math.sin(0.3) / 0.3, abs=1e-12)

    def test_three_sphere_closed_form(self):
        rho = volume_density(S3, ChartPoint(0, [1.4, 1.2, 0.8]),
                             np.array([0.0, 0.6, 0.8]), 0.25)
        assert rho == pytest.approx((math.sin(0.25) / 0.25) ** 2, abs=1e-12)

    def test_plane_is_one(self):
        rho = volume_density(PLANE, ChartPoint(0, [0.0, 0.0]),
                             np.array([0.6, -0.8]), 0.5)
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_small_s_limit_one(self):
        for M, p, v in ((S2, EQUATOR, np.array([1.0, 0.0])),
                        (TORUS, ChartPoint(0, [0.5, 1.0]), np.array([0.6, 0.8]))):
            rho = volume_density(M, p, v, 0.02)
            assert rho == pytest.approx(1.0, abs=5e-4)

    @pytest.mark.parametrize("M, coords, v", [
        (TORUS, [1.0, 0.7], [0.6, 0.8]),
        (QUADRIC, [0.2, -0.1, 0.15], [0.48, 0.6, 0.64]),
    ], ids=["torus", "quadric411"])
    def test_jacobi_fields_match_pencil(self, M, coords, v):
        x, v = ChartPoint(0, coords), np.array(v)
        assert volume_density(M, x, v, 0.4) == pytest.approx(
            pencil_density(M, x, v, 0.4), abs=1e-9)

    def test_pencil_exiting_chart_rejected(self):
        from ckl import TruncatedPathError
        near_edge = ChartPoint(0, [0.9, 0.0, 0.0])
        with pytest.raises(TruncatedPathError):
            volume_density(QUADRIC, near_edge, np.array([1.0, 0.0, 0.0]), 0.5)


class TestPinnedBits:
    """Geodesic, chord and density outputs pinned bit for bit, so that a
    rewrite of the connection or the RK4 walk shows any change of
    arithmetic."""

    GEODESICS = {
        "torus": (TORUS, [0.4, 1.1], [0.28, 0.96], 0.8, {"steps": 40},
                  "cfda11d32c4b8fa63883aef2009ddc525d66d51fe4d4ae3ffbae61128c9b1662"),
        "sphere2-pole": (S2, [0.05, 1.0], [-0.28, 0.96], 0.3, {"steps": 30},
                         "27160dbb28bc41b439e799d739d9d9228d5284d4c6055cf51b9e73391f09f8f6"),
        "quadric411-truncated": (
            QUADRIC, [0.9, 0.0, 0.0], [1.0, 0.0, 0.0], 0.9, {"steps": 300},
            "70fc1cac9ff2b4f4ae8c7b2b78252e3be893be96e2c3e977ca2ff35012265cbf"),
        "sphere3-record": (
            S3, [1.4, 1.2, 0.8], [0.0, 0.6, 0.8], 0.5,
            {"record_times": np.linspace(0.05, 0.5, 10)},
            "41ce06a2669e43df1827cd567c16c0cb599e4931de0a7f4befe03d2dd0dc6abc"),
        "spheroid-record": (
            SPHEROID, [0.3, 6.2], [0.6, -0.8], 0.45,
            {"record_times": [0.1, 0.2, 0.35, 0.45]},
            "79d2f258945c2643f9ae1569a30c583348e6ec521cf8f2f50e0169f16ebcf095"),
        "plane-edge": (PLANE, [-2.0 + 1e-4, 0.0], [1.0, 0.0], 0.5, {"steps": 50},
                       "7fc81d521e9afa492cf58fee8960d9e00523fe436c7ac6ab87de3e4eb11ecda5"),
    }

    @pytest.mark.parametrize("name", list(GEODESICS))
    def test_geodesic_states(self, name):
        M, coords, v, t_max, kwargs, digest = self.GEODESICS[name]
        path = geodesic_shoot(M, ChartPoint(0, coords), np.array(v), t_max,
                              **kwargs)
        h = hashlib.sha256()
        for s in path.states:
            for a in (s.position, s.velocity, s.chart_position.coords,
                      [s.arc_length]):
                h.update(np.asarray(a, dtype=float).tobytes())
        h.update(bytes([path.truncated]))
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("M, coords, bits", [
        (S2, [math.pi / 2, 1.0], ("0x1.00000000724abp+1", "-0x1.00001ed9d72d2p+1",
                                  "0x1.80ead44899241p+2")),
        (TORUS, [1.0, 0.7], ("0x1.000000003f0eap+1", "-0x1.180f0aa708a53p+0",
                             "0x1.42c487ca2f018p+2")),
    ], ids=["sphere2", "torus"])
    def test_chord_expansion(self, M, coords, bits):
        ce = chord_expansion_check(M, ChartPoint(0, coords), np.array([0.6, 0.8]),
                                   np.geomspace(0.02, 0.25, 12))
        assert (ce.g2.hex(), ce.g4.hex(), ce.residual_exponent.hex()) == bits

    @pytest.mark.parametrize("M, coords, v, s, bits", [
        (S2, [math.pi / 2, 1.0], [0.6, 0.8], 0.3, "0x1.f85abf98c8d58p-1"),
        (TORUS, [1.0, 0.7], [0.6, 0.8], 0.4, "0x1.fca6d3ab4921dp-1"),
        (S3, [1.4, 1.2, 0.8], [0.0, 0.6, 0.8], 0.25, "0x1.f56bfcd24180ep-1"),
        (SPHEROID, [0.3, 6.2], [0.6, -0.8], 0.4, "0x1.eac33a2eaf831p-1"),
        (PLANE, [0.0, 0.0], [0.6, -0.8], 0.5, "0x1.fffffffffff46p-1"),
    ], ids=["sphere2", "torus", "sphere3", "spheroid", "plane"])
    def test_volume_density(self, M, coords, v, s, bits):
        assert volume_density(M, ChartPoint(0, coords), np.array(v), s).hex() == bits

    def test_volume_density_quadric(self):
        # the one density whose last bits depend on the order in which the
        # Christoffel symbols' derivatives are summed
        rho = volume_density(QUADRIC, ChartPoint(0, [0.2, -0.1, 0.15]),
                             np.array([0.48, 0.6, 0.64]), 0.4)
        assert abs(rho - 0.956015735493169) <= 1e-15


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
