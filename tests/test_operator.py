"""Operator-layer tests: kernel, quadrature rules, sweeps, tails, Monte Carlo."""

import math

import numpy as np
import pytest

from ckl import NumericsError, ValidationError
from ckl.catalog import catalog_manifold
from ckl.manifold import ChartPoint
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


class TestRules:
    def test_full_rule_volumes(self):
        # node weights integrate the volume form to catalog-exact volumes
        for M, vol in ((S2, 4 * math.pi), (TORUS, 4 * math.pi ** 2 * 2 * 1),
                       (S3, 2 * math.pi ** 2), (PLANE, 16.0)):
            rule = build_full_rule(M, order=64)
            total = float(np.sum(rule.weights * M.sqrt_det_metric(0, rule.nodes)))
            assert total == pytest.approx(vol, rel=1e-6), M.catalog_id

    def test_spheroid_volume_quad_oracle(self):
        from scipy.integrate import quad
        a, c = 1.0, 1.6
        area = quad(lambda t: 2 * math.pi * a * math.sin(t)
                    * math.sqrt(a ** 2 * math.cos(t) ** 2
                                + c ** 2 * math.sin(t) ** 2), 0, math.pi)[0]
        assert SPHEROID.volume() == pytest.approx(area, rel=1e-8)

    def test_quadric_volume_order_consistency(self):
        r64 = build_full_rule(QUADRIC, order=64)
        r128 = build_full_rule(QUADRIC, order=128)
        vols = []
        for rule in (r64, r128):
            vols.append(float(np.sum(
                rule.weights * QUADRIC.sqrt_det_metric(0, rule.nodes))))
        assert vols[0] == pytest.approx(vols[1], rel=1e-6)

    def test_localized_small_eps_is_window(self):
        rule = build_localized_rule(S2, EQUATOR, 1e-3)
        assert not rule.covers_atlas
        assert rule.localized_radius < S2.delta

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
                build_full_rule(TORUS, order=order)


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


class TestTail:
    def test_tail_decays_faster_than_powers(self):
        # tail_bound / eps^k -> 0 along the ladder for k <= 4
        eps_list = [0.004 * 2.0 ** -k for k in range(5)]
        pt = ChartPoint(0, [0.3, 0.0])
        ladder = eps_sweep(TORUS, const_one, pt, eps_list)
        bounds = ladder.tail_bounds
        assert np.all(bounds[:-1] >= 0)
        for k in range(5):
            ratios = bounds / ladder.eps ** k
            assert np.all(np.diff(ratios) <= 1e-12), k

    def test_tail_estimate_fields(self):
        eps = 1e-3
        pt = ChartPoint(0, [0.3, 0.0])
        rule = build_localized_rule(TORUS, pt, eps)
        est = tail_estimate(TORUS, pt, eps, rule, const_one)
        assert est.m_delta > 0
        assert est.f_sup == pytest.approx(1.0)
        assert est.volume == pytest.approx(4 * math.pi ** 2 * 2, rel=1e-6)
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

    def test_ladder_validation(self):
        with pytest.raises(ValidationError):
            EpsLadder([LadderSample(0.1, 1.0, 0.0), LadderSample(0.2, 1.0, 0.0)])
        with pytest.raises(ValidationError):
            EpsLadder([LadderSample(0.1, 1.0, -1.0)])


class TestMonteCarlo:
    def test_sphere_within_four_sigma(self):
        est, se = monte_carlo_operator(S2, const_one, EQUATOR, 0.05, 100_000,
                                       seed=42)
        exact = 1.0 - math.exp(-20.0)
        assert abs(est - exact) <= 4.0 * se

    def test_zero_function(self):
        est, se = monte_carlo_operator(S2, const_zero, EQUATOR, 0.05, 2000,
                                       seed=7)
        assert est == 0.0 and se == 0.0

    def test_reproducible(self):
        a = monte_carlo_operator(TORUS, const_one, ChartPoint(0, [0.3, 0.0]),
                                 0.05, 5000, seed=11)
        b = monte_carlo_operator(TORUS, const_one, ChartPoint(0, [0.3, 0.0]),
                                 0.05, 5000, seed=11)
        assert a == b

    def test_scaling_law(self):
        # std_error scales like 1/sqrt(n): doubling n gives a factor 1/sqrt(2),
        # quadrupling halves it (within 20% averaged over seeds)
        ratios2, ratios4 = [], []
        for seed in range(10):
            _, se1 = monte_carlo_operator(S2, const_one, EQUATOR, 0.05,
                                          10_000, seed=seed)
            _, se2 = monte_carlo_operator(S2, const_one, EQUATOR, 0.05,
                                          20_000, seed=seed)
            _, se4 = monte_carlo_operator(S2, const_one, EQUATOR, 0.05,
                                          40_000, seed=seed)
            ratios2.append(se2 / se1)
            ratios4.append(se4 / se1)
        mean2 = float(np.mean(ratios2))
        mean4 = float(np.mean(ratios4))
        assert abs(mean2 - 1.0 / math.sqrt(2.0)) <= 0.2 / math.sqrt(2.0)
        assert abs(mean4 - 0.5) <= 0.2 * 0.5

    def test_sample_floor(self):
        with pytest.raises(ValidationError):
            monte_carlo_operator(S2, const_one, EQUATOR, 0.05, 100, seed=1)

    def test_rejection_efficiency_guard(self):
        # a graph whose volume element spikes at the box edge pushes the
        # acceptance rate below 1%
        from ckl.catalog import PolyTerms, make_graph
        spike = make_graph(PolyTerms(1, [(1e4, (120,))]), halfwidth=1.0)
        with pytest.raises(NumericsError) as err:
            monte_carlo_operator(spike, const_one, ChartPoint(0, [0.0]),
                                 0.01, 2000, seed=1)
        assert "refine" in str(err.value)
