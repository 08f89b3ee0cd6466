"""Coefficient-extraction tests: polynomial fits, Richardson recurrence,
closed-form comparisons."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ckl import NumericsError, ValidationError
from ckl.catalog import catalog_manifold
from ckl.fields import AmbientCoordField, ConstField
from ckl.manifold import ChartPoint
from ckl.operator import EpsLadder, LadderSample, eps_sweep
from ckl.fit import compare_closed_form, fit_polynomial, richardson_sequence

S2 = catalog_manifold("sphere2")
EQUATOR = ChartPoint(0, [math.pi / 2, 1.0])


def const_one(coords, ambient):
    return np.ones(np.asarray(coords).shape[:-1])


def ambient_z(coords, ambient):
    return ambient[..., 2]


def ladder_from(eps, values):
    samples = [LadderSample(e, v, 0.0) for e, v in zip(eps, values)]
    return EpsLadder(samples, EQUATOR)


EPS8 = [0.1 * 2.0 ** -k for k in range(8)]


class TestFitPolynomial:
    def test_exact_quadratic(self):
        lad = ladder_from(EPS8, [2 + 3 * e - 5 * e * e for e in EPS8])
        rep = fit_polynomial(lad, 2)
        np.testing.assert_allclose(rep.coefficients, [2.0, 3.0, -5.0],
                                   rtol=0, atol=1e-12)
        assert rep.max_residual <= 1e-13

    @given(st.lists(st.floats(-10, 10), min_size=3, max_size=3))
    def test_exact_polynomials_random(self, coeffs):
        y = [coeffs[0] + coeffs[1] * e + coeffs[2] * e * e for e in EPS8]
        rep = fit_polynomial(ladder_from(EPS8, y), 2)
        scale = max(1.0, max(abs(c) for c in coeffs))
        np.testing.assert_allclose(rep.coefficients, coeffs, rtol=0,
                                   atol=1e-12 * scale)

    def test_needs_enough_samples(self):
        lad = ladder_from(EPS8[:3], [1.0, 1.0, 1.0])
        with pytest.raises(ValidationError):
            fit_polynomial(lad, 2)

    def test_ill_conditioned_rejected(self):
        eps = list(np.linspace(0.1, 0.0999999, 12))
        lad = ladder_from(eps, [1.0] * 12)
        with pytest.raises(NumericsError) as err:
            fit_polynomial(lad, 6)
        assert "fewer" in str(err.value)

    def test_sphere_constant_ladder(self):
        lad = eps_sweep(S2, const_one, EQUATOR, EPS8)
        rep = fit_polynomial(lad, 2)
        assert abs(rep.coefficients[0] - 1.0) <= 1e-7
        assert abs(rep.coefficients[1]) <= 1e-4
        assert abs(rep.coefficients[2]) <= 1e-2


class TestRichardson:
    def test_constant(self):
        lad = ladder_from(EPS8, [3.25] * 8)
        rep = richardson_sequence(lad, 1)
        assert rep.coefficients[0] == pytest.approx(3.25, abs=1e-14)
        assert rep.coefficients[1] == pytest.approx(0.0, abs=1e-12)

    def test_linear(self):
        lad = ladder_from(EPS8, list(EPS8))
        rep = richardson_sequence(lad, 1)
        assert rep.coefficients[0] == pytest.approx(0.0, abs=1e-14)
        assert rep.coefficients[1] == pytest.approx(1.0, abs=1e-12)

    def test_requires_geometric(self):
        eps = [0.1, 0.05, 0.024, 0.012]
        with pytest.raises(ValidationError):
            richardson_sequence(ladder_from(eps, [1.0] * 4), 1)

    def test_sphere_z_function(self):
        # a1 = -2 z at the evaluation point
        p = ChartPoint(0, [math.acos(0.6), 1.0])
        lad = eps_sweep(S2, ambient_z, p, EPS8)
        rep = richardson_sequence(lad, 2)
        assert rep.coefficients[0] == pytest.approx(0.6, abs=1e-6)
        assert rep.coefficients[1] == pytest.approx(-1.2, rel=0.02)

    def test_agrees_with_polynomial_fit(self):
        p = ChartPoint(0, [math.acos(0.25), 0.4])
        lad = eps_sweep(S2, ambient_z, p, EPS8)
        rich = richardson_sequence(lad, 2)
        poly = fit_polynomial(lad, 2)
        for i in range(2):
            tol = max(rich.covariance_diag[i] + poly.covariance_diag[i], 1e-8)
            assert abs(rich.coefficients[i] - poly.coefficients[i]) <= 5 * tol


class TestSecondOrderCrossValidation:
    def test_fitted_a2_matches_engine_on_s3(self):
        # two fully independent routes to a_2 on the unit 3-sphere: exact
        # combinatorial assembly (-15/32) versus a pure-quadrature fit
        from ckl.catalog import catalog_manifold
        from ckl.coeffs import expansion_from_taylor, sphere_taylor_data
        engine = expansion_from_taylor(
            sphere_taylor_data(3, 1.0, max_degree=10), 2).values[2]
        assert engine == pytest.approx(-15.0 / 32.0, abs=1e-12)
        s3 = catalog_manifold("sphere3")
        lad = eps_sweep(s3, const_one,
                        ChartPoint(0, [math.pi / 2, math.pi / 2, 1.0]), EPS8)
        fitted = fit_polynomial(lad, 5).coefficients[2]
        assert fitted == pytest.approx(-15.0 / 32.0, rel=5e-3)

    def test_richardson_agrees_on_torus(self):
        from ckl.catalog import catalog_manifold
        torus = catalog_manifold("torus")
        lad = eps_sweep(torus, const_one, ChartPoint(0, [0.3, 0.0]), EPS8)
        rich = richardson_sequence(lad, 2)
        poly = fit_polynomial(lad, 2)
        for i in range(2):
            tol = 5 * (rich.covariance_diag[i] + poly.covariance_diag[i]) + 1e-8
            assert abs(rich.coefficients[i] - poly.coefficients[i]) <= tol


class TestComparison:
    def test_sphere_const(self):
        lad = eps_sweep(S2, const_one, EQUATOR, EPS8)
        cmp = compare_closed_form(S2, ConstField(1.0), EQUATOR, fit_polynomial(lad, 2))
        assert cmp.a1_criterion == "absolute"
        assert cmp.passed

    def test_sphere_z(self):
        p = ChartPoint(0, [math.acos(0.6), 1.0])
        lad = eps_sweep(S2, ambient_z, p, EPS8)
        cmp = compare_closed_form(S2, AmbientCoordField(3, 3), p, fit_polynomial(lad, 3))
        assert cmp.a1_criterion == "relative"
        assert cmp.a1_reference == pytest.approx(-1.2, abs=1e-6)
        assert cmp.passed

    def test_ladder_refinement_monotone(self):
        # halving the smallest eps does not move a0 by more than the previous
        # |a0 - f(x)| gap (convergence sanity; small absolute floor applied)
        lad7 = eps_sweep(S2, const_one, EQUATOR, EPS8[:7])
        lad8 = eps_sweep(S2, const_one, EQUATOR, EPS8)
        a0_7 = fit_polynomial(lad7, 2).coefficients[0]
        a0_8 = fit_polynomial(lad8, 2).coefficients[0]
        gap = abs(a0_7 - 1.0)
        assert abs(a0_8 - a0_7) <= max(gap, 1e-8)
