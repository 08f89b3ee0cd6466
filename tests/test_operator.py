"""Operator-layer tests: kernel, quadrature rules, sweeps, tails, Monte Carlo."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import ckl.cli as cli
import ckl.fields as fields
import ckl.operator as operator
from ckl import NumericsError, ValidationError
from ckl.catalog import (
    CATALOG,
    PolyTerms,
    catalog_manifold,
    load_manifold_text,
    make_graph,
)
from ckl.fields import AmbientCoordField, ChartPolyField, ConstField
from ckl.manifold import ChartPoint, TensorGrid
from ckl.operator import (
    EpsLadder,
    LadderSample,
    apply_operator,
    build_full_rule,
    build_localized_rule,
    default_eps_ladder,
    eps_sweep,
    k_eps,
    monte_carlo_operator,
    tail_estimate,
)

S2 = catalog_manifold("sphere2")
S3 = catalog_manifold("sphere3")
TORUS = catalog_manifold("torus")
SPHEROID = catalog_manifold("spheroid")
PLANE = catalog_manifold("plane")
QUADRIC = catalog_manifold("quadric411")

EQUATOR = ChartPoint(0, [math.pi / 2, 1.0])


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def const_one(coords, ambient):
    return np.ones(np.asarray(coords).shape[:-1])


def const_zero(coords, ambient):
    return np.zeros(np.asarray(coords).shape[:-1])


class TestKernel:
    def test_peak_normalization(self):
        x = np.zeros(3)
        assert k_eps(x, x, 1.0 / (4 * math.pi), 2) == pytest.approx(1.0)

    def test_one_sigma(self):
        x = np.zeros(3)
        y = np.array([2.0 * math.sqrt(0.3), 0.0, 0.0])  # |y-x|^2 = 4 eps
        pref = (4 * math.pi * 0.3) ** -1.0
        assert k_eps(x, y, 0.3, 2) == pytest.approx(pref * math.exp(-1.0))

    def test_spec_value(self):
        val = k_eps(np.zeros(3), np.array([1.0, 0, 0]), 0.1, 2)
        assert val == pytest.approx(0.065315, abs=1e-5)

    def test_eps_validation(self):
        with pytest.raises(ValidationError):
            k_eps(np.zeros(2), np.zeros(2), 0.0, 2)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
    def test_bandwidth_must_be_positive_and_finite(self, eps):
        # NaN and inf used to pass an `eps <= 0` check: Monte Carlo returned
        # (nan, nan) or (0.0, 0.0) and the rule raised a math domain error
        with pytest.raises(ValidationError):
            k_eps(np.zeros(3), np.ones(3), eps, 2)
        with pytest.raises(ValidationError):
            build_localized_rule(S2, EQUATOR, eps)
        with pytest.raises(ValidationError):
            monte_carlo_operator(S2, const_one, EQUATOR, [eps], 1000)
        with pytest.raises(ValidationError):
            EpsLadder([LadderSample(eps, 1.0, 0.0)])

    def test_kernel_formed_in_its_chord(self):
        # the kernel is formed in the chord's own array: the bits of the
        # stacked array's sum, and the dense columns are only read
        rng = np.random.default_rng(5)
        y = TensorGrid([rng.normal(size=(40, 1, 1)), rng.normal(size=(40, 9, 50)),
                        rng.normal(size=(1, 9, 1)), rng.normal(size=(40, 9, 50))])
        before = [c.copy() for c in y.columns]
        x = rng.normal(size=4)
        dense = np.sum((np.asarray(y) - x) ** 2, axis=-1)
        expected = np.exp(dense / (-4.0 * 0.3)) * (4.0 * math.pi * 0.3) ** -1.5
        np.testing.assert_array_equal(bits(k_eps(x, y, 0.3, 3)), bits(expected))
        assert all(np.array_equal(a, b) for a, b in zip(y.columns, before))

    def test_kernel_adds_no_array_to_its_chord(self):
        # each chord term is an axis column, so the chord is the one array of
        # the grid's shape, and the kernel is formed in it
        axis = np.linspace(-1.0, 1.0, 512)
        y = TensorGrid([axis[:, None], axis[None, :]])
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            kern = k_eps(np.zeros(2), y, 0.3, 2)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert kern.shape == (512, 512)
        assert peak <= 1.25 * kern.nbytes, f"peak {peak} B for a {kern.nbytes} B kernel"


class TestRules:
    def test_full_rule_volumes(self):
        # node weights integrate the volume form to catalog-exact volumes
        for M, vol in ((S2, 4 * math.pi), (TORUS, 4 * math.pi ** 2 * 2 * 1),
                       (S3, 2 * math.pi ** 2), (PLANE, 16.0)):
            rule = build_full_rule(M, order=64)
            total = float(np.sum(rule.weights * M.sqrt_det_metric(0, rule.nodes)))
            assert total == pytest.approx(vol, rel=1e-6), M.catalog_id

    def test_spheroid_volume_quad_oracle(self):
        # the volume is the box measure 2 pi^2 times the largest volume
        # element, a c = 1.6 at the equator: an upper figure for the area
        from scipy.integrate import quad
        a, c = 1.0, 1.6
        area = quad(lambda t: 2 * math.pi * a * math.sin(t)
                    * math.sqrt(a ** 2 * math.cos(t) ** 2
                                + c ** 2 * math.sin(t) ** 2), 0, math.pi)[0]
        assert SPHEROID.volume() == pytest.approx(2 * math.pi ** 2 * a * c,
                                                  rel=1e-12)
        assert SPHEROID.volume() >= area

    def test_volume_bounds_every_catalog_volume(self):
        # the spheroid's area by a 1-D rule in theta, quadric411's volume by
        # an order-96 sum; the others are closed forms
        t, w = np.polynomial.legendre.leggauss(64)
        theta = 0.5 * math.pi * (t + 1.0)
        spheroid = float(np.sum(0.5 * math.pi * w * 2 * math.pi * np.sin(theta)
                                * np.sqrt(np.cos(theta) ** 2
                                          + 1.6 ** 2 * np.sin(theta) ** 2)))
        rule = build_full_rule(QUADRIC, order=96)
        quadric = float(np.sum(rule.weights
                               * QUADRIC.sqrt_det_metric(0, rule.nodes)))
        exact = {"sphere2": 4 * math.pi, "sphere3": 2 * math.pi ** 2,
                 "torus": 8 * math.pi ** 2, "spheroid": spheroid,
                 "quadric411": quadric, "plane": 16.0}
        assert set(exact) == set(CATALOG)
        for name, vol in exact.items():
            assert catalog_manifold(name).volume() >= vol, name
        assert catalog_manifold("plane").volume() == 16.0

    def test_quadric_volume_order_consistency(self):
        r64 = build_full_rule(QUADRIC, order=64)
        r128 = build_full_rule(QUADRIC, order=128)
        vols = []
        for rule in (r64, r128):
            vols.append(float(np.sum(
                rule.weights * QUADRIC.sqrt_det_metric(0, rule.nodes))))
        assert vols[0] == pytest.approx(vols[1], rel=1e-6)

    def test_localized_small_eps_is_window(self):
        # the node box is x_i +- T 2 sqrt(eps (g^-1)_ii), T the largest node of
        # the 32-point Hermite rule: a fixed number of kernel widths
        eps = 1e-3
        rule = build_localized_rule(S2, EQUATOR, eps)
        assert not rule.covers_atlas
        assert rule.axis_rules == ("hermite", "hermite")
        ginv = np.diagonal(np.linalg.inv(S2.metric(0, EQUATOR.coords)))
        half = np.polynomial.hermite.hermgauss(32)[0][-1] * 2 * np.sqrt(eps * ginv)
        np.testing.assert_allclose(rule.window[0], EQUATOR.coords - half, rtol=1e-14)
        np.testing.assert_allclose(rule.window[1], EQUATOR.coords + half, rtol=1e-14)

    def test_localized_large_eps_covers(self):
        rule = build_localized_rule(S2, EQUATOR, 0.1)
        assert rule.covers_atlas

    def test_order_below_two_rejected(self):
        # the check holds for windowed rules too, not only the full box
        pt = ChartPoint(0, [0.3, 0.0])
        assert not build_localized_rule(TORUS, pt, 1e-3, order=2).covers_atlas
        for order in (1, 0):
            with pytest.raises(ValidationError):
                build_localized_rule(TORUS, pt, 1e-3, order=order)
            with pytest.raises(ValidationError):
                build_localized_rule(TORUS, pt, 1e-3, hermite_order=order)
            with pytest.raises(ValidationError):
                build_full_rule(TORUS, order=order)

    def test_rule_node_cap(self):
        # 257 x 256 x 256 is one axis row more than 2^24 nodes; the cap
        # refuses it before any node or weight array is built
        with pytest.raises(ValidationError, match="more than the 16777216"):
            build_full_rule(S3, axis_orders=(257, 256, 256))


class TestApplyOperator:
    def test_sphere_closed_form_ladder(self):
        # |K_eps 1 - (1 - e^{-1/eps})| <= 1e-8 across the default ladder and
        # at the [0.01, 0.2] endpoints
        for eps in [0.1 * 2.0 ** -k for k in range(7)] + [0.2, 0.01]:
            value, tail = apply_operator(S2, const_one, EQUATOR, eps)
            exact = 1.0 - math.exp(-1.0 / eps)
            assert abs(value - exact) <= 1e-8, eps
            assert tail <= 1e-8

    def test_zero_function(self):
        value, tail = apply_operator(S2, const_zero, EQUATOR, 0.05)
        assert value == 0.0
        assert tail == 0.0

    def test_rule_atlas_mismatch(self):
        rule = build_full_rule(S3, order=8)
        with pytest.raises(ValidationError):
            apply_operator(S2, const_one, EQUATOR, 0.05, rule)

    def test_small_eps_approaches_f(self):
        for M, p in ((TORUS, ChartPoint(0, [0.3, 0.8])),
                     (QUADRIC, ChartPoint(0, [0.1, 0.0, 0.05]))):
            value, _ = apply_operator(M, const_one, p, 2e-4)
            assert value == pytest.approx(1.0, abs=2e-3)

    def test_order_doubling_stability(self):
        # doubling the rule order moves the value by < 1e-9 at eps >= 0.01
        for M, p in ((S2, EQUATOR), (TORUS, ChartPoint(0, [0.3, 0.0])),
                     (SPHEROID, ChartPoint(0, [1.1, 0.4])),
                     (S3, ChartPoint(0, [1.4, 1.5, 1.0])),
                     (QUADRIC, ChartPoint(0, [0.1, 0.0, -0.05]))):
            for eps in (0.01, 0.04):
                v1, _ = apply_operator(M, const_one, p, eps,
                                       build_localized_rule(M, p, eps, order=64))
                v2, _ = apply_operator(M, const_one, p, eps,
                                       build_localized_rule(M, p, eps, order=128))
                assert abs(v1 - v2) < 1e-9, (M.catalog_id, eps)

    def test_localization_consistency(self):
        # full-atlas and localized evaluations differ by at most the tail
        # bound (up to quadrature roundoff); reference orders chosen so the
        # full rule itself resolves the kernel
        for M, p, eps, ref_order in ((TORUS, ChartPoint(0, [0.3, 0.0]), 0.004, 512),
                                     (S2, EQUATOR, 0.01, 256)):
            loc_rule = build_localized_rule(M, p, eps)
            v_loc, tail = apply_operator(M, const_one, p, eps, loc_rule)
            v_full, _ = apply_operator(M, const_one, p, eps,
                                       build_full_rule(M, order=ref_order))
            assert not loc_rule.covers_atlas
            assert abs(v_loc - v_full) <= max(tail, 1e-12)

    def test_nodes_wrapped_once(self, monkeypatch):
        # one wrap serves the embedding and the density of a node set
        from ckl.manifold import Chart
        rule = build_full_rule(S3, order=16)
        wrap, shapes = Chart.wrap, []

        def counted(self, coords):
            shapes.append(np.shape(coords))
            return wrap(self, coords)

        monkeypatch.setattr(Chart, "wrap", counted)
        apply_operator(S3, const_one, ChartPoint(0, [1.0, 1.2, 0.5]), 0.05, rule)
        assert shapes.count(rule.nodes.shape) == 1


class TestTensorGrid:
    """Evaluating a rule per axis gives the dense nodes' values bit for bit."""

    GRAPH = load_manifold_text(
        "type=graph d=2 poly=0.3:(1,1),0.2:(3,0),-0.4:(0,2) box=1.0")
    CASES = {"sphere2": (S2, [math.pi / 2, 1.0]),
             "sphere3": (S3, [1.0, 1.2, 0.5]),
             # u = 0.02: the node box straddles the period seam at u = 0
             "torus": (TORUS, [0.02, 0.3]),
             "spheroid": (SPHEROID, [1.1, 0.4]),
             "plane": (PLANE, [0.1, -0.2]),
             "quadric411": (QUADRIC, [0.1, 0.0, -0.05]),
             "graph": (GRAPH, [0.3, -0.5])}

    @staticmethod
    def rules(M, point):
        full = build_full_rule(M, order=12)
        windowed = build_localized_rule(M, ChartPoint(0, point), 1e-4, order=12)
        assert full.covers_atlas and not windowed.covers_atlas
        return full, windowed

    def test_grid_shape_and_columns(self):
        rule = build_full_rule(S3, order=4)
        grid = rule.nodes
        assert grid.shape == np.shape(grid) == (4, 4, 4, 3)
        assert rule.weights.shape == (4, 4, 4)
        assert rule.node_count() == 64
        assert grid[..., 0].shape == (4, 1, 1) and grid[..., -1].shape == (1, 1, 4)
        dense = np.asarray(grid)
        assert dense.shape == grid.shape
        for i in range(3):
            np.testing.assert_array_equal(np.broadcast_to(grid[..., i], (4, 4, 4)),
                                          dense[..., i])
        np.testing.assert_array_equal(np.ascontiguousarray(grid, dtype=float), dense)
        with pytest.raises(TypeError):
            grid[0]

    def test_torus_window_straddles_seam(self):
        _, windowed = self.rules(TORUS, self.CASES["torus"][1])
        assert windowed.window[0][0] < 0.0 < windowed.window[1][0]
        assert np.min(windowed.nodes[..., 0]) < 0.0

    @pytest.mark.parametrize("name", list(CASES))
    def test_jet_and_fields_match_dense_nodes(self, name):
        M, point = self.CASES[name]
        chart = M.charts[0]
        fields = (ConstField(1.5), AmbientCoordField(M.ambient_dim, M.ambient_dim),
                  ChartPolyField("0.5*x1*x2-2*x1^2+x2^3", M.dim))
        for rule in self.rules(M, point):
            grid_jet = chart.jet(rule.nodes, (0, 1, 2), volume=True)
            dense_jet = chart.jet(np.asarray(rule.nodes), (0, 1, 2), volume=True)
            np.testing.assert_array_equal(np.asarray(grid_jet[0]), dense_jet[0])
            for grid_t, dense_t in zip(grid_jet[1:], dense_jet[1:]):
                assert grid_t.shape == dense_t.shape
                np.testing.assert_array_equal(grid_t, dense_t)
            for f in fields:
                np.testing.assert_array_equal(
                    np.broadcast_to(f(grid_jet[0], grid_jet[1]), rule.weights.shape),
                    f(dense_jet[0], dense_jet[1]))

    def test_embedding_columns(self):
        # a graph's s_i stay the node axes and only P is dense; the plane's
        # P is 0-d; np.shape still sees the dense embedding's shape
        for M, sizes in ((QUADRIC, [12, 12, 12, 12 ** 3]), (PLANE, [12, 12, 1])):
            rule = build_full_rule(M, order=12)
            _, ambient = M.charts[0].jet(rule.nodes, (0,))
            assert [c.size for c in ambient.columns] == sizes
            assert np.shape(ambient) == rule.weights.shape + (M.ambient_dim,)

    @pytest.mark.parametrize("name", list(CASES))
    def test_kernel_and_operator_match_dense_nodes(self, name):
        M, point = self.CASES[name]
        chart = M.charts[0]
        x = ChartPoint(0, point)
        x0 = M.embed(0, x.coords)
        # const: and a constant-only poly: are 0-d; ambient:1 of a graph is a
        # node axis
        fields = (ConstField(1.5), ChartPolyField("2.5", M.dim),
                  AmbientCoordField(1, M.ambient_dim),
                  AmbientCoordField(M.ambient_dim, M.ambient_dim),
                  ChartPolyField("0.5*x1*x2-2*x1^2+x2^3", M.dim))
        for rule, eps in zip(self.rules(M, point), (0.05, 1e-4)):
            _, ambient = chart.jet(rule.nodes, (0,))
            dense_nodes, dense_ambient, dens = chart.jet(np.asarray(rule.nodes),
                                                         (0,), volume=True)
            assert isinstance(ambient, TensorGrid)
            np.testing.assert_array_equal(np.asarray(ambient), dense_ambient)
            kern = k_eps(x0, ambient, eps, M.dim)
            np.testing.assert_array_equal(
                np.broadcast_to(kern, rule.weights.shape),
                k_eps(x0, dense_ambient, eps, M.dim))
            # numpy's own last-axis sum: the chord order is bit-identical
            reference = ((4.0 * math.pi * eps) ** (-M.dim / 2.0)
                         * np.exp(-np.sum((dense_ambient - x0) ** 2, axis=-1)
                                  / (4.0 * eps)))
            np.testing.assert_array_equal(kern, reference)
            for f in fields:
                fvals = np.broadcast_to(f(dense_nodes, dense_ambient),
                                        rule.weights.shape)
                total = float(np.sum(rule.weights * dens * fvals * reference))
                assert apply_operator(M, f, x, eps, rule)[0] == total, f.field_id

    def test_quadrature_never_densifies(self, monkeypatch):
        # neither the nodes nor the embedding are stacked on the way to a value
        def refuse(self, dtype=None, copy=None):
            raise AssertionError("a TensorGrid was stacked to a dense array")

        cases = [(catalog_manifold("quadric411"), [0.1, 0.0, -0.05]),
                 (catalog_manifold("sphere3"), [1.0, 1.2, 0.5])]
        monkeypatch.setattr(TensorGrid, "__array__", refuse)
        for M, point in cases:
            assert M.volume() > 0
            for f in (ConstField(1.0), AmbientCoordField(M.ambient_dim,
                                                         M.ambient_dim)):
                ladder = eps_sweep(M, f, ChartPoint(0, point), [0.1, 1e-3],
                                   order=16)
                assert np.all(np.isfinite(ladder.values))

    @pytest.mark.parametrize("name", list(CASES))
    def test_volume_matches_dense_sum(self, name):
        # the volume figure bounds the dense sum of a full box; the plane's
        # figure is its exact volume, and the sum carries rounding
        M = self.CASES[name][0]
        rule = build_full_rule(M, order=64)
        dense = np.asarray(rule.nodes).reshape(-1, M.dim)
        total = float(np.sum(rule.weights.reshape(-1) * M.sqrt_det_metric(0, dense)))
        assert M.volume() >= total * (1.0 - 1e-12)

    def test_weights_are_the_axis_product(self):
        # the weights multiply axis by axis from axis 0, as a flat product would
        from ckl.operator import _axis_rule
        axes = [_axis_rule(0.0, math.pi, False, 5), _axis_rule(0.0, math.pi, False, 6),
                _axis_rule(0.0, 2 * math.pi, True, 7)]
        flat = np.ones(5 * 6 * 7)
        for w in np.meshgrid(*[a[1] for a in axes], indexing="ij"):
            flat = flat * w.reshape(-1)
        rule = build_full_rule(S3, axis_orders=(5, 6, 7))
        np.testing.assert_array_equal(rule.weights.reshape(-1), flat)

    def test_gauss_legendre_cache_is_read_only(self):
        from ckl.operator import TABULATED, _gauss_hermite, _gauss_legendre, _tabulated
        base, w = _gauss_legendre(16)
        assert _gauss_legendre(16)[0] is base
        np.testing.assert_array_equal(base, np.polynomial.legendre.leggauss(16)[0])
        rules = [_gauss_legendre(16), _gauss_legendre(200), _gauss_hermite(20),
                 _gauss_hermite(32), *(_tabulated(*key) for key in TABULATED)]
        for a in (a for rule in rules for a in rule):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_tabulated_rules_are_numpys_bit_for_bit(self):
        # the table holds the Hermite ladder and Gauss-Legendre of every
        # order a d = 3 full box may take, each rule's nonnegative half
        from ckl.operator import (
            GAUSS_TABLE,
            HERMITE_ORDERS,
            TABULATED,
            _gauss_hermite,
            _gauss_legendre,
            _tabulated,
            max_axis_order,
        )
        gauss = {"hermite": np.polynomial.hermite.hermgauss,
                 "legendre": np.polynomial.legendre.leggauss}
        orders = [("hermite", n) for n in HERMITE_ORDERS] + [
            ("legendre", n) for n in range(2, max_axis_order(3) + 1)]
        assert list(TABULATED) == orders
        halves = []
        for kind, n in orders:
            t, w = gauss[kind](n)
            got = _tabulated(kind, n)
            for a, b in zip((t, w), got, strict=True):
                np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
            halves += [t[n // 2:], w[n // 2:]]
            if kind == "hermite":
                assert _gauss_hermite(n)[0] is got[0]
                expected = w * np.exp(t * t)
                np.testing.assert_array_equal(
                    _gauss_hermite(n)[1].view(np.int64), expected.view(np.int64))
            else:
                assert _gauss_legendre(n) is got
        assert GAUSS_TABLE.read_bytes() == np.concatenate(halves).astype("<f8").tobytes()


class TestBenchmarkTracer:
    """The benchmark's tracer counts a rule's nodes from its TensorGrid."""

    @pytest.fixture(scope="class")
    def tracer(self):
        import importlib.util
        import sys
        from pathlib import Path
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        try:
            spec.loader.exec_module(module)
            yield module
        finally:
            del sys.modules[spec.name]

    def test_targets_resolve(self, tracer):
        tracer.check_targets()

    def test_rows_and_node_set(self, tracer):
        import hashlib
        rule = build_localized_rule(S3, ChartPoint(0, [1.0, 1.2, 0.5]), 1e-3,
                                    order=8, hermite_order=8)
        assert tracer._rows(rule.nodes) == rule.node_count() == 512
        # k_eps counts the rows of the embedding columns through np.shape
        _, ambient = S3.charts[0].jet(rule.nodes, (0,))
        assert tracer._rows(ambient) == 512
        counts = tracer._node_set({"ci": 0, "coords": rule.nodes}, None)
        assert counts["rows"] == 512
        (key,) = counts["node_sets"]
        grids = np.meshgrid(*(rule.nodes[..., i].ravel() for i in range(3)),
                            indexing="ij")
        dense = np.stack([g.reshape(-1) for g in grids], axis=-1)
        assert key[2] == hashlib.blake2b(dense.tobytes(), digest_size=16).digest()


class TestTail:
    def test_tail_estimate_fields(self):
        eps = 1e-3
        pt = ChartPoint(0, [0.3, 0.0])
        rule = build_localized_rule(TORUS, pt, eps)
        est = tail_estimate(TORUS, pt, eps, rule, const_one)
        assert est.m_delta > 0
        assert est.f_sup == pytest.approx(1.0)
        # the box measure 4 pi^2 times the largest volume element, 3; the
        # torus's volume is 8 pi^2
        assert est.volume == TORUS.volume() == pytest.approx(12 * math.pi ** 2,
                                                             rel=1e-12)
        assert est.bound >= 0

    def test_nonfinite_field_rejected(self):
        # a NaN sup of f must not read as f_sup = 0 and a tail bound of 0
        def nan_far(coords, ambient):
            return np.where(coords[..., 0] > 1.0, np.nan, 1.0)

        pt = ChartPoint(0, [0.0, 0.0])
        rule = build_localized_rule(PLANE, pt, 1e-3)
        assert not rule.covers_atlas
        with pytest.raises(NumericsError):
            tail_estimate(PLANE, pt, 1e-3, rule, nan_far)
        with pytest.raises(NumericsError):
            apply_operator(PLANE, nan_far, pt, 1e-3, rule)

    def test_nonfinite_value_rejected(self):
        def nan_everywhere(coords, ambient):
            return np.full(np.asarray(coords).shape[:-1], np.nan)

        with pytest.raises(NumericsError):
            apply_operator(S2, nan_everywhere, EQUATOR, 0.05)

    def test_nonfinite_comparison_box_rejected(self):
        # NaN only at the phi nodes 2 pi k / 43 (k != 0) of the full box's
        # ceil(2 n / 3)-node comparison box: the full box's own value is
        # finite, but its quadrature error is not
        def nan_on_comparison_phi(coords, ambient):
            k = coords[..., 2] * 43 / (2 * math.pi)
            bad = (np.abs(k - np.round(k)) < 1e-9) & (np.round(k) != 0)
            return np.where(bad, np.nan, 1.0)

        with pytest.raises(NumericsError):
            eps_sweep(S3, nan_on_comparison_phi,
                      ChartPoint(0, [1.5, 1.5, 3.0]), [0.1])


class TestSweep:
    def test_sphere_sweep_matches_closed_form(self):
        ladder = eps_sweep(S2, const_one, EQUATOR, default_eps_ladder(0.1, 7))
        for s in ladder.samples:
            assert s.value == pytest.approx(1 - math.exp(-1 / s.eps), abs=1e-8)

    def test_plane_localized_normalization(self):
        ladder = eps_sweep(PLANE, const_one, ChartPoint(0, [0.0, 0.0]),
                           [0.02, 0.01, 0.005])
        for s in ladder.samples:
            assert s.value == pytest.approx(1.0, abs=1e-8)

    def test_torus_trend_toward_expansion(self):
        pt = ChartPoint(0, [0.3, 0.0])
        ladder = eps_sweep(TORUS, const_one, pt, [0.01 * 2.0 ** -k
                                                  for k in range(5)])
        devs = np.abs(ladder.values - (1.0 + ladder.eps / 9.0))
        assert np.all(0.9 <= ladder.values) and np.all(ladder.values <= 1.1)
        assert np.all(np.diff(devs) < 0)

    def test_default_ladder_stops_at_floor(self):
        # values are made only until the first one below the 1e-4 floor
        assert default_eps_ladder(0.1, 10 ** 12) == default_eps_ladder(0.1, 11)
        assert default_eps_ladder(0.1, 11)[-1] == 0.1 * 2.0 ** -9
        for eps0 in (math.nan, math.inf, 0.0, -0.1):
            with pytest.raises(ValidationError, match="eps0"):
                default_eps_ladder(eps0, 10 ** 12)

    def test_manifold_cache_is_declared(self):
        # the volume and the coarse grid are kept in M.cache, and a sweep
        # sets no other attribute on the manifold
        M = load_manifold_text("type=sphere radius=2")
        attrs = set(vars(M))
        assert M.cache == {}
        eps_sweep(M, const_one, EQUATOR, [0.05, 1e-3])
        assert set(vars(M)) == attrs
        assert set(M.cache) == {"volume", "coarse_grid"}
        # the box measure 2 pi^2 times the largest volume element, 4, bounds
        # the area 16 pi
        assert M.volume() == pytest.approx(8.0 * math.pi ** 2, rel=1e-12)

    def test_kernel_scale_sweep_builds_no_full_box(self, monkeypatch):
        # the tail bound's volume comes from the coarse grid, not from a rule
        def refuse(*args, **kwargs):
            raise AssertionError("a full box was built")

        monkeypatch.setattr(operator, "build_full_rule", refuse)
        ladder = eps_sweep(catalog_manifold("sphere3"), const_one,
                           ChartPoint(0, [1.0, 1.2, 0.5]), [1e-3])
        assert ladder.samples[0].tail_bound > 0.0

    @pytest.mark.parametrize("M, coords, index", [
        (S3, [math.pi / 2, math.pi / 2, math.pi], 1),   # dense x_0
        (QUADRIC, [0.1, 0.0, -0.05], 4),                # dense P(s)
        (QUADRIC, [0.1, 0.0, -0.05], 1),                # the node axis s_1
        # d = 1: the node axis s is box-sized, and must stay the rule's
        (make_graph(PolyTerms(1, [(1.0, (2,))])), [0.1], 1),
        (make_graph(PolyTerms(1, [(1.0, (2,))])), [0.1], 2),
    ], ids=["sphere3-x0", "quadric-P", "quadric-s1", "graph1-s", "graph1-P"])
    def test_full_box_sample_keeps_the_rule_sums_bits(self, M, coords, index):
        # a sweep builds its full box in arrays of its own, and a field that
        # returns an embedding column is read before the chord overwrites it;
        # a rule a caller passes in is only read, call after call
        x, f, eps = ChartPoint(0, coords), AmbientCoordField(index, M.ambient_dim), 0.1
        orders = operator._full_box_orders(
            M, eps, operator._metric_diagonals(M, x)[0], operator.DEFAULT_ORDER)
        rule = build_full_rule(M, axis_orders=orders)
        nodes = [a.copy() for a in rule.nodes.columns]
        weights = rule.weights.copy()
        (sample,) = eps_sweep(M, f, x, [eps]).samples
        for _ in range(2):
            assert apply_operator(M, f, x, eps, rule) == (sample.value, 0.0)
        assert all(np.array_equal(a, b) for a, b in zip(rule.nodes.columns, nodes))
        assert np.array_equal(rule.weights, weights)

    @pytest.mark.parametrize("name, coords, field", [
        ("sphere3", [math.pi / 2, math.pi / 2, math.pi], "const1"),
        ("quadric411", [0.1, 0.0, -0.05], "ambient:4"),
    ])
    def test_full_box_memory_peak(self, name, coords, field, monkeypatch):
        # numpy reports its buffers to tracemalloc.  A full box of N nodes
        # keeps two arrays of N float64s, its (w rho) f product and its
        # chord, and takes a third while it is built; each bandwidth adds its
        # kernel, one box at a time.  So the peak is at most the largest
        # fine box's pair and kernel and its comparison box's pair.  The
        # slack, 1.5 MB, covers arrays of one or two axes and the windowed
        # rules tried while the first box pair is kept (sphere3's peak, at
        # eps = 0.05: six arrays of a 64 x 64 x 24-node rule beside the 64^3
        # pair).
        M = catalog_manifold(name)
        f = fields.parse_function(field, M)
        x = ChartPoint(0, coords)
        M.volume()      # the coarse grid and the volume are kept in M.cache
        boxes = []

        def recording(M, order=operator.DEFAULT_ORDER, axis_orders=None):
            boxes.append(math.prod(axis_orders))
            return build_full_rule(M, order, axis_orders)

        monkeypatch.setattr(operator, "build_full_rule", recording)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            eps_sweep(M, f, x, default_eps_ladder())
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        # boxes are built fine then coarse, and the node counts never fall
        fine, coarse = boxes[-2:]
        assert fine > coarse
        bound = 8 * (3 * fine + 2 * coarse) + 1.5e6
        assert peak <= bound, f"peak {peak / 1e6:.2f} MB > {bound / 1e6:.2f} MB"

    def test_ladder_validation(self):
        with pytest.raises(ValidationError):
            EpsLadder([LadderSample(0.1, 1.0, 0.0), LadderSample(0.2, 1.0, 0.0)])
        with pytest.raises(ValidationError):
            EpsLadder([LadderSample(0.1, 1.0, -1.0)])
        with pytest.raises(ValidationError):
            EpsLadder([LadderSample(0.1, 1.0, 0.0, quad_error=math.nan)])
        # a NaN tail bound would vanish from the fit's noise floor (max drops
        # it), and a non-finite value gives NaN coefficients with no error
        for value, tail in ((math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan)):
            with pytest.raises(ValidationError):
                EpsLadder([LadderSample(0.1, value, tail)])


class TestKernelScaleRules:
    """Gauss-Hermite rules in the kernel's scale, with the order ladder."""

    @staticmethod
    def s3_const(eps):
        # K_eps 1 on the unit 3-sphere, at any point
        from scipy.special import ive
        a = 1.0 / (2.0 * eps)
        return (4.0 * math.pi ** 2 * (4.0 * math.pi * eps) ** -1.5
                * float(ive(1, a)) / a)

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-6, 1e-8])
    def test_sphere_closed_forms(self, eps, monkeypatch):
        built = []

        def recorded(*args, **kwargs):
            rule = build_localized_rule(*args, **kwargs)
            built.append(rule.node_count())
            return rule

        monkeypatch.setattr(operator, "build_localized_rule", recorded)
        for M, point, exact in ((S2, [1.1, 2.0], 1.0 - math.exp(-1.0 / eps)),
                                (S3, [1.0, 1.3, 2.0], self.s3_const(eps))):
            built.clear()
            (s,) = eps_sweep(M, const_one, ChartPoint(0, point), [eps]).samples
            # at eps = 1e-8 the kernel is 1e-4 wide and the chord a difference
            # of embedding coordinates near 1: their rounding leaves 1.0e-13
            # on S^3, and orders 16 to 64 scatter +-1.5e-13 about the closed
            # form
            assert abs(s.value - exact) <= (1e-13 if eps >= 1e-6 else 2e-13)
            assert abs(s.value - exact) <= s.tail_bound + s.quad_error
            assert max(built) <= 32 ** M.dim

    @pytest.mark.parametrize("manifold, point, exact", [
        ("sphere2", "1.1,2.0", 1.0),
        # K_eps 1 = 1 - 3 eps / 4 + O(eps^2) on the unit 3-sphere
        ("sphere3", "1.0,1.3,2.0", 1.0 - 0.75e-12)])
    def test_tiny_bandwidth_reports_its_error(self, manifold, point, exact,
                                              tmp_path, monkeypatch):
        # no order meets the 1e-13 target at eps = 1e-12, and a full box
        # would need millions of nodes per axis to meet a kernel 2e-6 wide:
        # the ladder's own rule is kept, with an error that covers the value
        used = []

        def recorded(M, f, x, eps, rule=None):
            used.append(rule)
            return apply_operator(M, f, x, eps, rule)

        monkeypatch.setattr(operator, "apply_operator", recorded)
        out = tmp_path / "tiny.json"
        assert cli.main(["operator", "--manifold", manifold, "--point", point,
                         "--eps", "1e-12", "--out", str(out)]) == 0
        (s,) = json.loads(out.read_text())["samples"]
        (rule,) = used
        assert not rule.covers_atlas and set(rule.axis_rules) == {"hermite"}
        assert 0.0 < s["quad_error"] <= 1e-9
        assert abs(s["value"] - exact) <= s["tail_bound"] + s["quad_error"]

    # at 0.9925 the 16-node box fits and the 24-node box crosses the edge
    @pytest.mark.parametrize("point, eps", [([0.95, 0.0, 0.0], 1e-4),
                                            ([0.9925, 0.0, 0.0], 1e-6)])
    def test_clipped_axis_beside_hermite_axes(self, point, eps, monkeypatch):
        x = ChartPoint(0, point)
        used = []

        def recorded(M, f, x, eps, rule=None):
            used.append(rule)
            return apply_operator(M, f, x, eps, rule)

        monkeypatch.setattr(operator, "apply_operator", recorded)
        (s,) = eps_sweep(QUADRIC, const_one, x, [eps]).samples
        rule = used[-1]
        assert rule.axis_rules == ("clipped", "hermite", "hermite")
        # 256 Gauss-Legendre nodes on the same clipped window
        reference = build_localized_rule(QUADRIC, x, eps, order=256,
                                         hermite_order=rule.nodes.shape[1])
        np.testing.assert_array_equal(reference.window[0], rule.window[0])
        assert reference.nodes.shape[:-1] == (256,) + rule.nodes.shape[1:-1]
        ref, _ = apply_operator(QUADRIC, const_one, x, eps, reference)
        assert abs(s.value - ref) <= s.tail_bound + s.quad_error + 1e-14

    def test_order_two_probe(self, tmp_path):
        # two Gauss-Legendre nodes on a wide window used to print 9.86e-51 here
        out = tmp_path / "probe.json"
        assert cli.main(["operator", "--manifold", "torus", "--order", "2",
                         "--eps", "0.001", "--point", "0.3,0.0",
                         "--out", str(out)]) == 0
        (s,) = json.loads(out.read_text())["samples"]
        # 1024 trapezoid nodes on u resolve the kernel at eps = 1e-3; 512
        # miss by 4e-13
        reference = build_full_rule(TORUS, axis_orders=(1024, 512))
        ref, _ = apply_operator(TORUS, const_one, ChartPoint(0, [0.3, 0.0]),
                                0.001, reference)
        assert abs(s["value"] - ref) <= s["tail_bound"] + s["quad_error"]

    def test_order_two_full_box_error_covers_the_closed_form(self, tmp_path):
        # the 2 x 2 full box was compared with itself and reported quad_error
        # 0 while missing 1 - e^(-1/eps) by 3.2e-4 and 6.4e-4; it is now
        # compared with the 3 x 3 box
        out = tmp_path / "order2.json"
        assert cli.main(["operator", "--manifold", "sphere2", "--order", "2",
                         "--eps", "100,50", "--out", str(out)]) == 0
        for s in json.loads(out.read_text())["samples"]:
            error = abs(s["value"] - (1.0 - math.exp(-1.0 / s["eps"])))
            assert s["tail_bound"] == 0.0
            assert 3e-4 < error <= s["quad_error"]

    def test_quad_error_in_json_and_csv(self, tmp_path):
        argv = ["operator", "--manifold", "sphere2", "--eps", "0.05,0.001"]
        assert cli.main(argv + ["--out", str(tmp_path / "o.json")]) == 0
        assert cli.main(argv + ["--format", "csv",
                                "--out", str(tmp_path / "o.csv")]) == 0
        samples = json.loads((tmp_path / "o.json").read_text())["samples"]
        lines = (tmp_path / "o.csv").read_text().splitlines()
        assert lines[0] == "eps,value,tail_bound,quad_error"
        for s, line in zip(samples, lines[1:], strict=True):
            assert set(s) == {"eps", "value", "tail_bound", "quad_error"}
            assert 0.0 <= s["quad_error"] == float(line.split(",")[3])


class TestMonteCarlo:
    def test_sphere_within_four_sigma(self):
        est, se = monte_carlo_operator(S2, const_one, EQUATOR, [0.05],
                                       100_000, seed=42)[0]
        exact = 1.0 - math.exp(-20.0)
        assert abs(est - exact) <= 4.0 * se

    def test_zero_function(self):
        est, se = monte_carlo_operator(S2, const_zero, EQUATOR, [0.05],
                                       2000, seed=7)[0]
        assert est == 0.0 and se == 0.0

    def test_reproducible(self):
        a = monte_carlo_operator(TORUS, const_one, ChartPoint(0, [0.3, 0.0]),
                                 [0.05], 5000, seed=11)[0]
        b = monte_carlo_operator(TORUS, const_one, ChartPoint(0, [0.3, 0.0]),
                                 [0.05], 5000, seed=11)[0]
        assert a == b

    def test_scaling_law(self):
        # std_error scales like 1/sqrt(n): doubling n gives a factor 1/sqrt(2),
        # quadrupling halves it (within 20% averaged over seeds)
        ratios2, ratios4 = [], []
        for seed in range(10):
            _, se1 = monte_carlo_operator(S2, const_one, EQUATOR, [0.05],
                                          10_000, seed=seed)[0]
            _, se2 = monte_carlo_operator(S2, const_one, EQUATOR, [0.05],
                                          20_000, seed=seed)[0]
            _, se4 = monte_carlo_operator(S2, const_one, EQUATOR, [0.05],
                                          40_000, seed=seed)[0]
            ratios2.append(se2 / se1)
            ratios4.append(se4 / se1)
        mean2 = float(np.mean(ratios2))
        mean4 = float(np.mean(ratios4))
        assert abs(mean2 - 1.0 / math.sqrt(2.0)) <= 0.2 / math.sqrt(2.0)
        assert abs(mean4 - 0.5) <= 0.2 * 0.5

    def test_sample_floor(self):
        with pytest.raises(ValidationError):
            monte_carlo_operator(S2, const_one, EQUATOR, [0.05], 100, seed=1)

    @pytest.mark.parametrize("kwargs", [{"n_samples": 2000.0}, {"seed": -1},
                                        {"seed": 1.5}],
                             ids=["n_samples=2000.0", "seed=-1", "seed=1.5"])
    def test_inputs_refused_before_numpy(self, kwargs):
        # each used to reach numpy and raise its TypeError or ValueError
        with pytest.raises(ValidationError):
            monte_carlo_operator(S2, const_one, EQUATOR, [0.05],
                                 **{"n_samples": 2000, **kwargs})

    LADDER_CASES = {
        **{name: (catalog_manifold(name), None) for name in sorted(CATALOG)},
        "spike": (make_graph(PolyTerms(1, [(1e4, (120,))]), halfwidth=1.0),
                  [0.0])}

    @pytest.mark.parametrize("name", list(LADDER_CASES))
    def test_ladder_rows_equal_one_bandwidth_calls(self, name):
        # the draws do not depend on eps: a ladder call's rows are the
        # one-bandwidth calls' values, bit for bit
        M, point = self.LADDER_CASES[name]
        chart = M.chart(0)
        x = ChartPoint(0, 0.5 * (chart.lo + chart.hi) if point is None
                       else point)
        f = AmbientCoordField(1, M.ambient_dim)
        ladder = default_eps_ladder()

        def bits(rows):
            return [tuple(v.hex() for v in row) for row in rows]

        rows = bits(monte_carlo_operator(M, f, x, ladder, 1000, seed=5))
        assert rows == [bits(monte_carlo_operator(M, f, x, [e], 1000, seed=5))[0]
                        for e in ladder]
        # nor does a row depend on the bandwidths that share its call
        assert (bits(monte_carlo_operator(M, f, x, [0.05], 1000, seed=5))
                == bits(monte_carlo_operator(M, f, x, [0.1, 0.05, 0.01], 1000,
                                             seed=5))[1:2])

    def test_small_bandwidth(self):
        # at eps = 1e-6 the kernel is 2.8e-3 wide: uniform chart nodes never
        # reach it, while the Gaussian share lands in it
        est, se = monte_carlo_operator(S2, const_one, EQUATOR, [1e-6],
                                       20_000, seed=42)[0]
        assert se < 0.01
        assert abs(est - 1.0) <= 4.0 * se

    def test_spiked_volume_element(self):
        # the volume element of the graph of 1e4 s^120 reaches 1.2e6 at the
        # box edge, far from the kernel: the estimate stays finite and near
        # quadrature
        spike = make_graph(PolyTerms(1, [(1e4, (120,))]), halfwidth=1.0)
        x = ChartPoint(0, [0.0])
        est, se = monte_carlo_operator(spike, const_one, x, [0.01], 2000,
                                       seed=1)[0]
        reference = eps_sweep(spike, const_one, x, [0.01]).values[0]
        assert math.isfinite(est)
        assert abs(est - reference) <= 4.0 * se

    CASES = {"torus": (TORUS, [0.3, 0.7]),
             "quadric411": (QUADRIC, [0.1, 0.0, -0.05]),
             "spheroid": (SPHEROID, [1.0, 0.5]),
             "sphere3": (S3, [1.0, 1.3, 2.0]),
             # the window centred across both seams; a pole, where the
             # volume element departs from the Gaussian within its width
             "torus_seam": (TORUS, [6.2, 0.05]),
             "sphere2_pole": (S2, [0.05, 1.0])}

    @pytest.mark.parametrize("name", list(CASES))
    def test_agrees_with_quadrature(self, name):
        # the mixture's estimate against the sweep's value (its quadrature
        # error is about 1e-15)
        M, point = self.CASES[name]
        x = ChartPoint(0, point)
        for f in (const_one, AmbientCoordField(M.ambient_dim, M.ambient_dim)):
            reference = eps_sweep(M, f, x, [0.05]).values[0]
            for seed in range(10):
                est, se = monte_carlo_operator(M, f, x, [0.05], 20_000,
                                               seed=seed)[0]
                assert abs(est - reference) <= 5.0 * se, seed
