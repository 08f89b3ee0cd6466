"""Tests for the combinatorics layer: polynomials, Bell polynomials, sphere
moments, rising factorials, truncated radial moments, density terms."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ckl import (
    CpEstimate,
    HomogeneousPoly,
    NumericsError,
    ValidationError,
    bell_generating_check,
    bell_partial,
    c_p,
    density_curvature_terms,
    pochhammer,
    poly_mul,
    poly_sphere_average,
    radial_power,
    sphere_moment,
)
from ckl.moments import _gammainc

HP = HomogeneousPoly


# ---------------------------------------------------------------------------
# HomogeneousPoly basics
# ---------------------------------------------------------------------------

class TestPoly:
    def test_mul_variables(self):
        p = poly_mul(HP.variable(2, 0), HP.variable(2, 1))
        assert p.terms == {(1, 1): 1.0}
        assert p.degree == 2

    def test_mul_by_zero(self):
        z = HP.zero(2, 0)
        p = poly_mul(radial_power(2, 2), z)
        assert p.is_zero()
        assert p.degree == 2

    def test_difference_of_squares(self):
        a = HP.variable(2, 0) + HP.variable(2, 1)
        b = HP.variable(2, 0) - HP.variable(2, 1)
        p = poly_mul(a, b)
        assert p.terms == {(2, 0): 1.0, (0, 2): -1.0}

    def test_mixed_degree_add_rejected(self):
        with pytest.raises(ValidationError):
            HP.variable(2, 0) + radial_power(2, 2)

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            poly_mul(HP.variable(2, 0), HP.variable(3, 0))

    def test_evaluate_batch(self):
        p = radial_power(3, 2)
        pts = np.array([[1.0, 0.0, 0.0], [1.0, 2.0, 2.0]])
        np.testing.assert_allclose(p(pts), [1.0, 9.0])

    @given(st.lists(st.floats(-2, 2), min_size=2, max_size=2),
           st.lists(st.floats(-2, 2), min_size=2, max_size=2))
    def test_mul_matches_pointwise(self, u, v):
        a = u[0] * HP.variable(2, 0) + u[1] * HP.variable(2, 1)
        b = v[0] * HP.variable(2, 0) + v[1] * HP.variable(2, 1)
        pts = np.array([[0.3, -0.7], [1.1, 0.2], [-0.5, -0.4]])
        np.testing.assert_allclose(poly_mul(a, b)(pts), a(pts) * b(pts),
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# Bell polynomials, with an independent set-partition oracle
# ---------------------------------------------------------------------------

def _partitions_into_blocks(elements):
    """All set partitions of ``elements`` (a list), as lists of blocks."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for part in _partitions_into_blocks(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def bell_oracle(m, k, xs):
    """B_{m,k} via brute-force enumeration of set partitions of {1..m}."""
    total = 0.0
    for part in _partitions_into_blocks(list(range(m))):
        if len(part) != k:
            continue
        term = 1.0
        for block in part:
            term *= xs[len(block) - 1]
        total += term
    return total


class TestBell:
    def test_b_m1_is_xm(self):
        xs = [HP.variable(4, i) for i in range(4)]
        assert bell_partial(4, 1, xs) == xs[3]

    def test_b_mm_is_x1_pow(self):
        x1 = HP.variable(1, 0)
        p = bell_partial(3, 3, [x1])
        assert p.terms == {(3,): 1.0}

    def test_b42_partition_count(self):
        xs = [HP.variable(3, i) for i in range(3)]
        p = bell_partial(4, 2, xs)
        assert p.terms == {(0, 2, 0): 3.0, (1, 0, 1): 4.0}

    def test_invalid_indices(self):
        with pytest.raises(ValidationError):
            bell_partial(3, 4, [1.0] * 4)
        with pytest.raises(ValidationError):
            bell_partial(0, 0, [])

    @pytest.mark.parametrize("m", range(1, 8))
    def test_against_partition_oracle(self, m, rng):
        xs = rng.uniform(-2, 2, size=m)
        for k in range(1, m + 1):
            got = bell_partial(m, k, list(xs[: m - k + 1]))
            want = bell_oracle(m, k, xs)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_generating_identity_grid(self, rng):
        # identity holds to 1e-11 for m <= 8 at random scalar inputs
        for trial in range(20):
            xs = rng.uniform(-1.5, 1.5, size=8)
            u = rng.uniform(-2, 2)
            t = rng.uniform(-0.1, 0.1)
            lhs, rhs = bell_generating_check(xs, u, t, order=8)
            assert abs(lhs - rhs) <= 1e-11

    def test_generating_exp_reduction(self):
        xs = [1.0, 0.0, 0.0, 0.0]
        lhs, rhs = bell_generating_check(xs, 1.0, 0.05, order=4)
        truncated_exp = sum(0.05 ** j / math.factorial(j) for j in range(5))
        assert lhs == pytest.approx(truncated_exp, rel=1e-14)
        assert rhs == pytest.approx(truncated_exp, rel=1e-14)

    def test_generating_all_zero(self):
        lhs, rhs = bell_generating_check([0.0] * 6, 3.0, 0.05, order=6)
        assert lhs == 1.0 and rhs == 1.0

    def test_generating_spec_point(self):
        lhs, rhs = bell_generating_check([1.0] * 8, 2.0, 0.05, order=8)
        assert abs(lhs - rhs) <= 1e-12

    def test_vanishing_below_4k(self):
        # with the first three slots identically zero, B_{m,k} vanishes
        # whenever m < 4k
        dim = 2
        def qpoly(i):
            if i < 4:
                return HP.zero(dim, i)
            return radial_power(dim, i if i % 2 == 0 else i - 1, 0.7)  # placeholder
        for m in range(1, 12):
            xs = []
            for i in range(1, m + 1):
                if i < 4:
                    xs.append(HP.zero(dim, i))
                elif i % 2 == 0:
                    xs.append(radial_power(dim, i, 0.5 + 0.1 * i))
                else:
                    xs.append(poly_mul(HP.variable(dim, 0),
                                       radial_power(dim, i - 1, 1.3)))
            for k in range(1, m + 1):
                b = bell_partial(m, k, xs[: m - k + 1])
                if m < 4 * k:
                    assert isinstance(b, HP) and b.is_zero()
                elif k <= m // 4 and k == 1:
                    assert not b.is_zero()


# ---------------------------------------------------------------------------
# Sphere moments
# ---------------------------------------------------------------------------

def _even_multi_indices(d, max_total):
    """All multi-indices of length d with even entries and total <= max_total."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == d:
            out.append(tuple(prefix))
            return
        for a in range(0, remaining + 1, 2):
            rec(prefix + [a], remaining - a)

    rec([], max_total)
    return out


class TestSphereMoments:
    def test_known_values(self):
        for d in range(1, 7):
            alpha = (2,) + (0,) * (d - 1)
            assert sphere_moment(alpha, d) == pytest.approx(1.0 / d, rel=1e-13)
            alpha4 = (4,) + (0,) * (d - 1)
            assert sphere_moment(alpha4, d) == pytest.approx(3.0 / (d * (d + 2)),
                                                             rel=1e-13)
        for d in range(2, 7):
            alpha22 = (2, 2) + (0,) * (d - 2)
            assert sphere_moment(alpha22, d) == pytest.approx(1.0 / (d * (d + 2)),
                                                              rel=1e-13)

    def test_odd_exponent_zero(self):
        assert sphere_moment((1, 2, 0), 3) == 0.0
        assert sphere_moment((3,), 1) == 0.0

    def test_zero_index_is_one(self):
        for d in range(1, 6):
            assert sphere_moment((0,) * d, d) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_monte_carlo_agreement(self, d):
        # closed form within 4 standard errors of a 1e6-sample estimate
        rng = np.random.default_rng(42 + d)
        n = 1_000_000
        v = rng.standard_normal((n, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        for alpha in _even_multi_indices(d, 8):
            mono = np.ones(n)
            for i, a in enumerate(alpha):
                if a:
                    mono *= v[:, i] ** a
            est = mono.mean()
            se = mono.std(ddof=1) / math.sqrt(n)
            exact = sphere_moment(alpha, d)
            assert abs(est - exact) <= max(4.0 * se, 1e-12), (alpha, d)

    def test_poly_average_radial(self):
        for d in (2, 3, 4):
            assert poly_sphere_average(radial_power(d, 2)) == pytest.approx(1.0)

    def test_poly_average_odd_exact_zero(self):
        p = poly_mul(HP.variable(3, 0), radial_power(3, 2, 5.0))
        assert poly_sphere_average(p) == 0.0

    def test_poly_average_kappa_form(self):
        # ((4 v1^2 + v2^2 + v3^2))^2 averaged over S^2 = 72/15
        kappa = np.diag([4.0, 1.0, 1.0])
        q = HP.from_quadratic_form(kappa)
        assert poly_sphere_average(poly_mul(q, q)) == pytest.approx(4.8, rel=1e-12)


class TestPochhammer:
    def test_base_cases(self):
        assert pochhammer(1.5, 0) == 1.0
        assert pochhammer(1.0, 5) == math.factorial(5)
        assert pochhammer(1.5, 2) == pytest.approx(3.75)

    @given(st.floats(0.25, 10), st.integers(0, 12))
    def test_recurrence(self, q, n):
        assert pochhammer(q, n + 1) == pytest.approx(pochhammer(q, n) * (q + n),
                                                     rel=1e-12)


# ---------------------------------------------------------------------------
# Truncated radial moments
# ---------------------------------------------------------------------------

class TestCp:
    def test_value_below_main(self):
        for eps in (0.01, 0.1, 1.0, 10.0):
            est = c_p(0, eps, 0.5, 2)
            assert est.value < est.main_term

    def test_spec_bound_instance(self):
        est = c_p(0, 0.01, 0.5, 2)
        omega2 = 2.0 * math.pi
        assert abs(omega2 * est.value - 1.0) <= 2.0 * math.exp(-0.25 / 0.08)

    def test_quadrature_oracle(self):
        from scipy.integrate import quad
        for p, d, eps, delta in [(0, 2, 0.05, 0.5), (1, 2, 0.02, 0.5),
                                 (2, 3, 0.01, 0.3), (4, 4, 0.003, 1.0)]:
            est = c_p(p, eps, delta, d)
            a = p + d / 2.0
            x = delta ** 2 / (4 * eps)
            integral, err = quad(lambda t: math.exp(-t) * t ** (a - 1), 0.0, x,
                                 epsabs=1e-14, epsrel=1e-13)
            oracle = (4 * eps) ** p / (2 * math.pi ** (d / 2.0)) * integral
            assert est.value == pytest.approx(oracle, rel=1e-12)

    def test_bound_grid(self):
        # the closed-form bound holds across the full parameter grid
        for p in range(5):
            for d in range(1, 5):
                for delta in (0.3, 0.5, 1.0):
                    for eps in np.geomspace(1e-3, 1e-1, 7):
                        est = c_p(p, float(eps), delta, d)
                        assert abs(est.value - est.main_term) <= est.bound

    def test_matches_scipy_gammainc(self):
        # the closed-form incomplete gamma against scipy over both of its
        # branches (series below x = a + 1, finite sums above); with
        # eps = 1/4 the argument is x = delta^2
        from scipy.special import gammainc
        xs = np.concatenate([np.geomspace(1e-6, 1e4, 301), np.arange(1.0, 17.0)])
        for p in range(12):
            for d in range(1, 9):
                a = p + d / 2.0
                assert _gammainc(a, 0.0) == 0.0
                for delta in np.sqrt(xs):
                    est = c_p(p, 0.25, float(delta), d)
                    oracle = est.main_term * gammainc(a, delta * delta)
                    assert est.value == pytest.approx(oracle, rel=1e-13, abs=0)

    def test_overflow_rejected(self):
        with pytest.raises(NumericsError):
            c_p(200, 10.0, 1.0, 4)

    def test_validation(self):
        with pytest.raises(ValidationError):
            c_p(-1, 0.1, 0.5, 2)
        with pytest.raises(ValidationError):
            c_p(0, -0.1, 0.5, 2)


# ---------------------------------------------------------------------------
# Density terms
# ---------------------------------------------------------------------------

def sphere_riemann(d):
    eye = np.eye(d)
    return (np.einsum("ij,ab->iajb", eye, eye)
            - np.einsum("ib,aj->iajb", eye, eye))


class TestDensityCurvatureTerms:
    def test_flat(self):
        rhos = density_curvature_terms(np.zeros((3, 3)))
        assert rhos[0].terms == {(0, 0, 0): 1.0}
        for r in rhos[1:]:
            assert r.is_zero()

    def test_unit_two_sphere(self):
        rhos = density_curvature_terms(np.eye(2), riemann=sphere_riemann(2))
        v = np.array([0.6, 0.8])
        # density 1 + rho2/2 + rho4/24 must match sin(s)/s to s^4
        assert rhos[2](v) / 2.0 == pytest.approx(-1.0 / 6.0, rel=1e-12)
        assert rhos[3].is_zero()
        assert rhos[4](v) / 24.0 == pytest.approx(1.0 / 120.0, rel=1e-12)

    def test_unit_three_sphere(self):
        rhos = density_curvature_terms(2.0 * np.eye(3), riemann=sphere_riemann(3))
        v = np.array([1.0, 0.0, 0.0])
        # (sin s / s)^2 = 1 - s^2/3 + 2 s^4/45 - ...
        assert rhos[2](v) / 2.0 == pytest.approx(-1.0 / 3.0, rel=1e-12)
        assert rhos[4](v) / 24.0 == pytest.approx(2.0 / 45.0, rel=1e-12)

    def test_symmetry_validation(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            density_curvature_terms(bad)
