"""Bandwidth-expansion coefficients from Taylor data and from curvature.

The engine consumes exact Taylor terms of three scalar inputs in normal
coordinates at the base point: the function itself, the volume density, and
the quartic-and-up remainder of the squared chord length.  Products of those
terms averaged over the unit sphere produce the scalar weights ``eta_p`` and
``w_{p,m,k}``, which assemble into the expansion coefficients

    a_q = 4^q (d/2)_q / (2q)! * eta_q
          + sum_{k=1}^{q} sum_{m=4k}^{2q+2k}
            (-1)^k 4^q (d/2)_{q+k} / (m! (2q+2k-m)!) * w_{q+k,m,k}.

High-order Taylor data is never extracted numerically from a black-box
embedding (8th-order finite differencing is hopeless in double precision);
exact constructors for round spheres and flat space are provided instead,
and callers may supply their own terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError
from .fields import ScalarField
from .manifold import ChartPoint, EmbeddedManifold, curvature_at, laplace_beltrami
from .moments import (
    HomogeneousPoly,
    bell_partial,
    pochhammer,
    poly_mul,
    poly_sphere_average,
    radial_power,
)

_FACT = [math.factorial(i) for i in range(40)]


# ---------------------------------------------------------------------------
# Taylor data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorData:
    """Homogeneous Taylor terms of f, the volume density, and the chord
    remainder, all in normal coordinates at one point.

    ``f_terms[k]`` and ``rho_terms[k]`` carry degree k; ``q_terms[j]`` carries
    degree ``4 + j`` (the chord remainder has no terms below degree four).
    """
    dim: int
    f_terms: tuple[HomogeneousPoly, ...]
    rho_terms: tuple[HomogeneousPoly, ...]
    q_terms: tuple[HomogeneousPoly, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")
        for seq, start, name in ((self.f_terms, 0, "f_terms"),
                                 (self.rho_terms, 0, "rho_terms"),
                                 (self.q_terms, 4, "q_terms")):
            for idx, poly in enumerate(seq):
                if poly.dim != self.dim:
                    raise ValidationError(f"{name}[{idx}] has wrong dimension")
                if not poly.is_zero() and poly.degree != start + idx:
                    raise ValidationError(
                        f"{name}[{idx}] must have degree {start + idx}, "
                        f"got {poly.degree}")
        if not self.rho_terms:
            raise ValidationError("rho_terms must at least contain the constant 1")
        rho0 = self.rho_terms[0]
        if rho0.terms != {(0,) * self.dim: 1.0}:
            raise ValidationError("rho_0 must be the constant 1")

    @property
    def max_degree(self) -> int:
        return min(len(self.f_terms), len(self.rho_terms)) - 1

    def f_term(self, k: int) -> HomogeneousPoly:
        if k < len(self.f_terms):
            return self.f_terms[k]
        return HomogeneousPoly.zero(self.dim, k)

    def rho_term(self, k: int) -> HomogeneousPoly:
        if k < len(self.rho_terms):
            return self.rho_terms[k]
        return HomogeneousPoly.zero(self.dim, k)

    def q_term(self, degree: int) -> HomogeneousPoly:
        if degree < 4:
            return HomogeneousPoly.zero(self.dim, degree)
        idx = degree - 4
        if idx < len(self.q_terms):
            return self.q_terms[idx]
        raise ValidationError(
            f"TaylorData is missing the chord-remainder term of degree {degree}")

    def q_max_degree(self) -> int:
        return 3 + len(self.q_terms)


def flat_taylor_data(dim: int, f_terms: Sequence[HomogeneousPoly],
                     max_degree: int | None = None) -> TaylorData:
    """Taylor data for flat space: density 1, no chord remainder."""
    f_terms = tuple(f_terms)
    top = max_degree if max_degree is not None else max(len(f_terms) - 1, 0)
    rho = (HomogeneousPoly.constant(dim, 1.0),) + tuple(
        HomogeneousPoly.zero(dim, k) for k in range(1, top + 1))
    f_full = f_terms + tuple(HomogeneousPoly.zero(dim, k)
                             for k in range(len(f_terms), top + 1))
    q = tuple(HomogeneousPoly.zero(dim, k) for k in range(4, top + 3))
    return TaylorData(dim=dim, f_terms=f_full, rho_terms=rho, q_terms=q)


def _sinc_power_series(power: int, top: int) -> list[float]:
    """Taylor coefficients of (sin u / u)^power through degree ``top``, each
    rounded once: the series is multiplied out in integers over the common
    denominator ``((top + 1)!)^power``, and an integer quotient rounds
    correctly, as ``float(Fraction)`` does."""
    denom = _FACT[top + 1]
    sinc = [0] * (top + 1)
    for j in range(0, top + 1, 2):
        sinc[j] = (-1) ** (j // 2) * (denom // _FACT[j + 1])
    out = [0] * (top + 1)
    out[0] = 1
    for _ in range(power):
        new = [0] * (top + 1)
        for i, a in enumerate(out):
            if a == 0:
                continue
            for j in range(0, top + 1 - i, 2):
                new[i + j] += a * sinc[j]
        out = new
    scale = denom ** power
    return [n / scale for n in out]


def sphere_taylor_data(dim: int, radius: float = 1.0, max_degree: int = 8,
                       f_value: float = 1.0) -> TaylorData:
    """Exact radial Taylor data for the round sphere of the given radius.

    Chord remainder: ``4 r^2 sin^2(s/2r) - s^2``; density:
    ``(sin(s/r)/(s/r))^(d-1)``.  The function is the constant ``f_value``.
    """
    if radius <= 0:
        raise ValidationError("radius must be positive")
    if max_degree < 4:
        raise ValidationError("max_degree must be at least 4")
    d = dim
    f_terms = [HomogeneousPoly.constant(d, f_value)]
    f_terms += [HomogeneousPoly.zero(d, k) for k in range(1, max_degree + 1)]

    rho_coeffs = _sinc_power_series(d - 1, max_degree)
    rho_terms = []
    for k in range(max_degree + 1):
        c = rho_coeffs[k]
        if c == 0 or k % 2:
            rho_terms.append(HomogeneousPoly.zero(d, k))
        else:
            value = c * _FACT[k] * radius ** (-k)
            rho_terms.append(radial_power(d, k, value))

    q_terms = []
    for degree in range(4, max_degree + 1):
        if degree % 2:
            q_terms.append(HomogeneousPoly.zero(d, degree))
        else:
            k = degree // 2
            # 2 r^2 (1 - cos(s/r)) - s^2: degree-2k coefficient
            coeff = -2.0 * (-1.0) ** k * radius ** (2 - degree)
            q_terms.append(radial_power(d, degree, coeff))
    return TaylorData(dim=d, f_terms=tuple(f_terms), rho_terms=tuple(rho_terms),
                      q_terms=tuple(q_terms))


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

def alpha_terms(td: TaylorData, top: int | None = None) -> list[HomogeneousPoly]:
    """Binomial convolution of function and density terms, degrees 0..top."""
    top = td.max_degree if top is None else top
    if top > td.max_degree:
        raise ValidationError(
            f"alpha terms need f/rho through degree {top}, "
            f"have {td.max_degree}")
    out = []
    for ell in range(top + 1):
        acc = HomogeneousPoly.zero(td.dim, ell)
        for j in range(ell + 1):
            fj, rj = td.f_term(j), td.rho_term(ell - j)
            if fj.is_zero() or rj.is_zero():
                continue
            acc = acc + math.comb(ell, j) * poly_mul(fj, rj)
        out.append(acc)
    return out


def beta_terms(td: TaylorData, Q: int) -> dict[tuple[int, int], HomogeneousPoly]:
    """Bell-polynomial terms b_{m,k} of the chord-remainder exponential.

    Keys are (m, k) with 1 <= k <= m // 4 and m <= 2Q + 2k; entries with
    m < 4k vanish identically and are omitted.  Each of the k parts of a Bell
    partition of m has degree at least 4, so no part exceeds m - 4(k - 1);
    the slots above that are passed as zeros.  Raises naming the first
    missing chord-remainder degree when the Taylor data is too short.
    """
    if Q < 1:
        return {}
    out: dict[tuple[int, int], HomogeneousPoly] = {}
    for q in range(1, Q + 1):
        for k in range(1, q + 1):
            for m in range(4 * k, 2 * q + 2 * k + 1):
                if (m, k) in out:
                    continue
                max_needed = m - 4 * (k - 1)
                if max_needed > td.q_max_degree():
                    raise ValidationError(
                        f"b_{{{m},{k}}} needs the chord-remainder term of "
                        f"degree {max_needed}; Taylor data stops at "
                        f"{td.q_max_degree()}")
                xs = [td.q_term(i) if 4 <= i <= max_needed
                      else HomogeneousPoly.zero(td.dim, i)
                      for i in range(1, m - k + 2)]
                out[(m, k)] = bell_partial(m, k, xs)
    return out


@dataclass(frozen=True)
class EtaW:
    """Sphere-averaged scalar weights of the expansion."""
    dim: int
    Q: int
    eta: tuple[float, ...]                       # eta_0 .. eta_Q
    w: dict[tuple[int, int, int], float]         # (p, m, k) -> w_{p,m,k}


def eta_w(td: TaylorData, Q: int) -> EtaW:
    """Sphere averages eta_p = <alpha_2p> and w_{p,m,k} = <alpha_{2p-m} b_{m,k}>."""
    if Q < 0:
        raise ValidationError("Q must be >= 0")
    if td.max_degree < 2 * Q:
        raise ValidationError(
            f"eta_{Q} needs f/rho Taylor terms through degree {2 * Q}, "
            f"have {td.max_degree}")
    alphas = alpha_terms(td, 2 * Q)
    eta = tuple(poly_sphere_average(alphas[2 * p]) for p in range(Q + 1))
    bs = beta_terms(td, Q)
    w: dict[tuple[int, int, int], float] = {}
    for q in range(1, Q + 1):
        for k in range(1, q + 1):
            p = q + k
            for m in range(4 * k, 2 * q + 2 * k + 1):
                key = (p, m, k)
                if key in w:
                    continue
                b = bs[(m, k)]
                alpha = alphas[2 * p - m]
                if b.is_zero() or alpha.is_zero():
                    w[key] = 0.0
                else:
                    w[key] = poly_sphere_average(poly_mul(alpha, b))
    return EtaW(dim=td.dim, Q=Q, eta=eta, w=w)


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Expansion coefficients a_0..a_Q."""
    values: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.values):
            raise ValidationError("expansion coefficients must be finite")


def assemble_a(etaw: EtaW, d: int, Q: int) -> ExpansionCoefficients:
    """Assemble a_0..a_Q from the sphere-averaged weights."""
    if Q > etaw.Q:
        raise ValidationError(f"EtaW was built for Q={etaw.Q}, requested {Q}")
    if d != etaw.dim:
        raise ValidationError("dimension mismatch between EtaW and request")
    values = []
    for q in range(Q + 1):
        total = 4.0 ** q * pochhammer(d / 2.0, q) / _FACT[2 * q] * etaw.eta[q]
        for k in range(1, q + 1):
            for m in range(4 * k, 2 * q + 2 * k + 1):
                try:
                    wval = etaw.w[(q + k, m, k)]
                except KeyError:
                    raise ValidationError(
                        f"missing w entry (p={q + k}, m={m}, k={k})") from None
                total += ((-1.0) ** k * 4.0 ** q * pochhammer(d / 2.0, q + k)
                          / (_FACT[m] * _FACT[2 * q + 2 * k - m]) * wval)
        values.append(total)
    return ExpansionCoefficients(values=tuple(values))


def expansion_from_taylor(td: TaylorData, Q: int) -> ExpansionCoefficients:
    """Convenience wrapper: eta/w extraction plus assembly in one call."""
    return assemble_a(eta_w(td, Q), td.dim, Q)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def a1_closed_form(M: EmbeddedManifold, f: ScalarField, x: ChartPoint) -> float:
    """First-order coefficient -Lap(f) + (f/4)(d^2 |H|^2 - 2 R).

    The Laplacian is exact (:func:`laplace_beltrami`), and ``f(x)`` comes
    from the same evaluation of the field's chart derivatives.
    """
    rep = curvature_at(M, x)
    fx, lap = laplace_beltrami(M, f, x)
    d = M.dim
    return -lap + 0.25 * fx * (d * d * rep.mean_curvature_norm_sq
                               - 2.0 * rep.scalar_curvature)


def eta1_closed_form(M: EmbeddedManifold, f: ScalarField, x: ChartPoint) -> float:
    """First sphere-averaged weight (1/d)(-Lap(f) - R f / 3)."""
    rep = curvature_at(M, x)
    fx, lap = laplace_beltrami(M, f, x)
    return (-lap - rep.scalar_curvature * fx / 3.0) / M.dim
