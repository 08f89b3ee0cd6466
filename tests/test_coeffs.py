"""Coefficient-engine tests: convolution terms, Bell terms, sphere-averaged
weights, assembly, closed forms, Taylor-data validation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ckl import ValidationError
from ckl.catalog import catalog_manifold
from ckl.fields import AmbientCoordField, ConstField
from ckl.coeffs import (
    TaylorData,
    a1_closed_form,
    alpha_terms,
    assemble_a,
    beta_terms,
    eta1_closed_form,
    eta_w,
    expansion_from_taylor,
    flat_taylor_data,
    sphere_taylor_data,
)
from ckl.manifold import ChartPoint
from ckl.moments import (
    HomogeneousPoly,
    pochhammer,
    poly_mul,
    poly_sphere_average,
    radial_power,
)

HP = HomogeneousPoly
S2 = catalog_manifold("sphere2")
S3 = catalog_manifold("sphere3")
TORUS = catalog_manifold("torus")


class TestAlphaTerms:
    def test_constant_times_flat(self):
        td = flat_taylor_data(2, [HP.constant(2, 3.5)], max_degree=4)
        alphas = alpha_terms(td)
        assert alphas[0].terms == {(0, 0): 3.5}
        for a in alphas[1:]:
            assert a.is_zero()

    def test_alpha0_is_f0(self):
        td = sphere_taylor_data(3, 1.0, max_degree=6, f_value=2.25)
        assert alpha_terms(td)[0].terms == {(0, 0, 0): 2.25}

    def test_sphere_alpha2_is_rho2(self):
        td = sphere_taylor_data(2, 1.0, max_degree=6)
        alphas = alpha_terms(td)
        assert alphas[2] == td.rho_terms[2]


class TestSphereTaylorData:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("radius", [1.0, 0.7, 2.5])
    def test_density_matches_a_fraction_reference(self, dim, radius):
        # (sin u / u)^(d - 1) multiplied out in Fractions, each coefficient
        # rounded once by float(Fraction): the integer series must give the
        # same floats
        top = 14
        sinc = [Fraction((-1) ** (j // 2), math.factorial(j + 1)) if j % 2 == 0
                else Fraction(0) for j in range(top + 1)]
        series = [Fraction(1)] + [Fraction(0)] * top
        for _ in range(dim - 1):
            series = [sum((series[i] * sinc[k - i] for i in range(k + 1)),
                          Fraction(0)) for k in range(top + 1)]
        td = sphere_taylor_data(dim, radius, max_degree=top)
        for k, c in enumerate(series):
            expected = (HP.zero(dim, k) if c == 0 or k % 2 else radial_power(
                dim, k, float(c) * math.factorial(k) * radius ** (-k)))
            assert td.rho_terms[k] == expected, k


class TestBetaTerms:
    def test_b41_is_q4(self):
        td = sphere_taylor_data(3, 1.0, max_degree=8)
        bs = beta_terms(td, 2)
        assert bs[(4, 1)] == td.q_term(4)

    def test_b51_and_vanishing(self):
        td = sphere_taylor_data(2, 1.0, max_degree=8)
        bs = beta_terms(td, 2)
        assert bs[(5, 1)] == td.q_term(5)          # zero poly on the sphere
        assert bs[(5, 1)].is_zero()
        for (m, k), poly in bs.items():
            if m < 4 * k:
                assert poly.is_zero(), (m, k)

    def test_b82_collision_coefficient(self):
        # only x4 nonzero: B_{8,2} = 8!/(2! (4!)^2) x4^2 = 35 q4^2
        td = sphere_taylor_data(3, 1.0, max_degree=8)
        bs = beta_terms(td, 2)
        q4 = td.q_term(4)
        assert bs[(8, 2)] == 35.0 * poly_mul(q4, q4)

    def test_missing_degree_reported(self):
        td = sphere_taylor_data(3, 1.0, max_degree=5)
        with pytest.raises(ValidationError) as err:
            beta_terms(td, 2)
        assert "degree" in str(err.value)

    @pytest.mark.parametrize("Q, max_degree", [(2, 6), (3, 8)])
    def test_chord_terms_through_2q_plus_2_suffice(self, Q, max_degree):
        # a part of a Bell partition of m into k parts of degree >= 4 has
        # degree at most m - 4(k - 1) <= 2Q + 2
        short = expansion_from_taylor(sphere_taylor_data(3, 1.0, max_degree), Q)
        full = expansion_from_taylor(sphere_taylor_data(3, 1.0, 4 * Q), Q)
        np.testing.assert_allclose(short.values, full.values, rtol=0, atol=1e-12)
        expected = (1.0, -0.75, -0.46875, -0.8203125)[:Q + 1]
        np.testing.assert_allclose(short.values, expected, rtol=0, atol=1e-12)

    def test_too_short_names_the_bell_term(self):
        td = sphere_taylor_data(3, 1.0, max_degree=7)
        with pytest.raises(ValidationError, match=r"b_\{\d+,\d+\} needs"):
            beta_terms(td, 3)


class TestEtaW:
    def test_eta0_is_f_value(self):
        td = sphere_taylor_data(2, 1.0, max_degree=6, f_value=1.75)
        ew = eta_w(td, 1)
        assert ew.eta[0] == pytest.approx(1.75, rel=1e-14)

    def test_flat_eta1_from_f2(self):
        # f2 = sum v_i^2 averages to 1; its function has paper-Laplacian -d/ ...
        d = 3
        f2 = radial_power(d, 2)
        td = flat_taylor_data(d, [HP.zero(d, 0), HP.zero(d, 1), f2], max_degree=6)
        ew = eta_w(td, 1)
        assert ew.eta[1] == pytest.approx(1.0, rel=1e-13)

    def test_w241_hypersurface_profile(self):
        # q4 = -2 (sum kappa_i v_i^2)^2 with kappa = (4,1,1):
        # w_{2,4,1} = -2 * f * <(sum kappa v^2)^2> = -2 * 4.8
        d = 3
        kappa_form = HP.from_quadratic_form(np.diag([4.0, 1.0, 1.0]))
        q4 = poly_mul(kappa_form, kappa_form).scale(-2.0)
        f_terms = [HP.constant(d, 1.0)] + [HP.zero(d, k) for k in range(1, 5)]
        rho = [HP.constant(d, 1.0)] + [HP.zero(d, k) for k in range(1, 5)]
        td = TaylorData(dim=d, f_terms=tuple(f_terms), rho_terms=tuple(rho),
                        q_terms=(q4, HP.zero(d, 5), HP.zero(d, 6)))
        ew = eta_w(td, 1)
        assert ew.w[(2, 4, 1)] == pytest.approx(-9.6, rel=1e-12)

    def test_odd_alpha_never_contributes(self):
        # an odd f-term changes no eta (sphere averages of odd degrees vanish)
        d = 2
        base = flat_taylor_data(d, [HP.constant(d, 1.0)], max_degree=6)
        odd = flat_taylor_data(
            d, [HP.constant(d, 1.0), 3.0 * HP.variable(d, 0)], max_degree=6)
        for Q in (1, 2):
            assert eta_w(base, Q).eta == eta_w(odd, Q).eta


class TestAssemble:
    def test_a0_is_eta0(self):
        # a0 equals the constant term exactly (no floating-point drift)
        td = sphere_taylor_data(2, 1.0, max_degree=8, f_value=0.3)
        ec = expansion_from_taylor(td, 0)
        assert ec.values[0] == 0.3

    def test_a1_formula_shape(self):
        # a1 = d eta_1 - d(d+2)/24 w_{2,4,1}
        td = sphere_taylor_data(3, 1.0, max_degree=8)
        ew = eta_w(td, 1)
        d = 3
        expected = d * ew.eta[1] - d * (d + 2) / 24.0 * ew.w[(2, 4, 1)]
        ec = assemble_a(ew, d, 1)
        assert ec.values[1] == pytest.approx(expected, rel=1e-14)

    def test_two_sphere_flat_expansion(self):
        # K_eps 1 on the unit 2-sphere is 1 - e^{-1/eps}: all a_q vanish
        # beyond a_0
        td = sphere_taylor_data(2, 1.0, max_degree=8)
        ec = expansion_from_taylor(td, 2)
        assert ec.values[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(ec.values[1]) <= 1e-12
        assert abs(ec.values[2]) <= 1e-12

    def test_flat_fast_path(self):
        # q = 0: every w vanishes and a_q = 4^q (d/2)_q/(2q)! eta_q
        d = 2
        f_terms = [HP.constant(d, 1.0), HP.zero(d, 1), radial_power(d, 2, 0.7),
                   HP.zero(d, 3), radial_power(d, 4, -0.2)]
        td = flat_taylor_data(d, f_terms, max_degree=6)
        ew = eta_w(td, 2)
        assert all(v == 0.0 for v in ew.w.values())
        ec = assemble_a(ew, d, 2)
        for q in range(3):
            expected = (4.0 ** q * pochhammer(d / 2, q)
                        / math.factorial(2 * q) * ew.eta[q])
            assert ec.values[q] == pytest.approx(expected, rel=1e-13)

    def test_engine_linear_in_f(self, rng):
        d = 2
        td_sphere = sphere_taylor_data(d, 1.0, max_degree=8)

        def with_f(f_terms):
            return TaylorData(dim=d, f_terms=tuple(f_terms),
                              rho_terms=td_sphere.rho_terms,
                              q_terms=td_sphere.q_terms)

        def rand_f():
            terms = []
            for k in range(9):
                coeffs = {}
                for _ in range(3):
                    alpha = tuple(rng.integers(0, k + 1, size=d))
                    if sum(alpha) == k:
                        coeffs[alpha] = float(rng.uniform(-2, 2))
                terms.append(HP(d, k, coeffs))
            return terms

        fa, fb = rand_f(), rand_f()
        lam, mu = 0.7, -1.3
        mix = [lam * a + mu * b if not (a.is_zero() and b.is_zero())
               else HP.zero(d, k)
               for k, (a, b) in enumerate(zip(fa, fb))]
        ec_mix = expansion_from_taylor(with_f(mix), 2)
        ec_a = expansion_from_taylor(with_f(fa), 2)
        ec_b = expansion_from_taylor(with_f(fb), 2)
        for q in range(3):
            assert ec_mix.values[q] == pytest.approx(
                lam * ec_a.values[q] + mu * ec_b.values[q], abs=1e-10)

    def test_reorganized_sum_matches_unreorganized(self):
        # collect the eps powers of the raw double sum over p and compare with
        # the assembled coefficients for Q <= 2
        td = sphere_taylor_data(3, 1.0, max_degree=8)
        d, Q = 3, 2
        alphas = alpha_terms(td, 2 * (2 * Q))

        from ckl.moments import bell_partial
        coeff_by_power: dict[int, float] = {}
        for p in range(0, 2 * Q + 1):
            if 2 * p < len(alphas):
                eta_p = poly_sphere_average(alphas[2 * p])
                coeff_by_power[p] = coeff_by_power.get(p, 0.0) + (
                    4.0 ** p * pochhammer(d / 2, p) / math.factorial(2 * p)
                    * eta_p)
            for m in range(1, 2 * p + 1):
                if 2 * p - m >= len(alphas):
                    continue
                for k in range(1, m + 1):
                    if m < 4 * k or m - 4 * (k - 1) > td.q_max_degree():
                        continue
                    xs = [td.q_term(i) if i >= 4 else HP.zero(td.dim, i)
                          for i in range(1, m - k + 2)]
                    b = bell_partial(m, k, xs)
                    w = (0.0 if b.is_zero() else
                         poly_sphere_average(poly_mul(alphas[2 * p - m], b)))
                    q_pow = p - k
                    coeff_by_power[q_pow] = coeff_by_power.get(q_pow, 0.0) + (
                        (-1.0) ** k * 4.0 ** q_pow * pochhammer(d / 2, p)
                        / math.factorial(2 * p) * math.comb(2 * p, m) * w)
        ec = expansion_from_taylor(td, Q)
        for q in range(Q + 1):
            assert coeff_by_power[q] == pytest.approx(ec.values[q], abs=1e-11)


class TestClosedForms:
    EQUATOR = ChartPoint(0, [math.pi / 2, 1.0])

    def test_sphere_const(self):
        assert a1_closed_form(S2, ConstField(1.0), self.EQUATOR) == pytest.approx(
            0.0, abs=1e-9)

    def test_sphere_z(self):
        p = ChartPoint(0, [math.acos(0.6), 0.5])
        assert a1_closed_form(S2, AmbientCoordField(3, 3), p) == pytest.approx(-1.2, abs=1e-6)

    def test_sphere_z_exact(self):
        # a1 = -Lap z + (z/4)(4 - 4) = -2 z on the unit sphere
        for theta in (0.7, 1.2, 2.5):
            p = ChartPoint(0, [theta, 0.4])
            assert a1_closed_form(S2, AmbientCoordField(3, 3), p) \
                == pytest.approx(-2.0 * math.cos(theta), abs=1e-12)

    def test_torus_z_exact(self):
        # -Lap z + (z/4)((k1 + k2)^2 - 4 k1 k2) with z = r sin v, k1 = 1/r,
        # k2 = cos v / (R + r cos v), Lap z = sin v (R + 2 r cos v) /
        # (r (R + r cos v)); R = 2, r = 1, v = 0.7
        p = ChartPoint(0, [0.3, 0.7])
        assert a1_closed_form(TORUS, AmbientCoordField(3, 3), p) \
            == pytest.approx(-0.7381548549802642, abs=1e-12)

    def test_three_sphere_const(self):
        p = ChartPoint(0, [1.2, 1.4, 0.6])
        assert a1_closed_form(S3, ConstField(1.0), p) == pytest.approx(-0.75, abs=1e-8)

    def test_engine_matches_closed_form_q1(self):
        for M, td in ((S2, sphere_taylor_data(2, 1.0, max_degree=8)),
                      (S3, sphere_taylor_data(3, 1.0, max_degree=8))):
            p = ChartPoint(0, [math.pi / 2, 1.0] if M.dim == 2
                           else [math.pi / 2, math.pi / 2, 1.0])
            engine = expansion_from_taylor(td, 1).values[1]
            closed = a1_closed_form(M, ConstField(1.0), p)
            assert abs(engine - closed) <= 1e-9

    def test_eta1_sphere_const(self):
        assert eta1_closed_form(S2, ConstField(1.0), self.EQUATOR) == pytest.approx(
            -1.0 / 3.0, abs=1e-9)

    def test_eta1_flat(self):
        plane = catalog_manifold("plane")
        assert eta1_closed_form(plane, ConstField(1.0), ChartPoint(0, [0.1, 0.2])) \
            == pytest.approx(0.0, abs=1e-10)

    def test_eta1_sphere_z(self):
        p = ChartPoint(0, [math.acos(0.6), 0.5])
        # (1/2)(-2z - (2/3) z) = -(4/3) z
        assert eta1_closed_form(S2, AmbientCoordField(3, 3), p) == pytest.approx(
            -4.0 / 3.0 * 0.6, abs=1e-6)


class TestTaylorData:
    def test_validation_rho0(self):
        with pytest.raises(ValidationError):
            TaylorData(dim=2, f_terms=(HP.constant(2, 1.0),),
                       rho_terms=(HP.constant(2, 2.0),), q_terms=())
