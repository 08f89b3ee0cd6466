"""Exact combinatorics behind the bandwidth expansion.

Homogeneous multi-index polynomials, partial exponential Bell polynomials,
monomial averages over the unit sphere, rising factorials, truncated radial
Gaussian moments with their exponential error bound, and assembly of the
curvature-tensor terms of the normal-coordinate volume density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import NumericsError, ValidationError

# A multi-index is a tuple of non-negative integer exponents, one per variable.
MultiIndex = tuple[int, ...]


def _check_multi_index(alpha: Sequence[int], dim: int) -> MultiIndex:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != dim:
        raise ValidationError(f"multi-index length {len(alpha)} != dim {dim}")
    if any(a < 0 for a in alpha):
        raise ValidationError(f"negative exponent in multi-index {alpha}")
    return alpha


class HomogeneousPoly:
    """A homogeneous polynomial stored as a multi-index -> coefficient map.

    Every stored multi-index has total degree equal to ``degree``; exact-zero
    coefficients are dropped.  A poly with no terms is the zero polynomial
    (its nominal degree is kept for bookkeeping).
    """

    __slots__ = ("dim", "degree", "terms")

    def __init__(self, dim: int, degree: int,
                 terms: Mapping[MultiIndex, float] | None = None):
        if dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim}")
        if degree < 0:
            raise ValidationError(f"degree must be >= 0, got {degree}")
        clean: dict[MultiIndex, float] = {}
        if terms:
            for alpha, c in terms.items():
                alpha = _check_multi_index(alpha, dim)
                if sum(alpha) != degree:
                    raise ValidationError(
                        f"multi-index {alpha} has degree {sum(alpha)}, expected {degree}")
                c = float(c)
                if c != 0.0:
                    clean[alpha] = clean.get(alpha, 0.0) + c
        self.dim = int(dim)
        self.degree = int(degree)
        self.terms = {a: c for a, c in clean.items() if c != 0.0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, degree: int = 0) -> "HomogeneousPoly":
        return cls(dim, degree, {})

    @classmethod
    def constant(cls, dim: int, value: float) -> "HomogeneousPoly":
        return cls(dim, 0, {(0,) * dim: float(value)})

    @classmethod
    def variable(cls, dim: int, i: int) -> "HomogeneousPoly":
        """The coordinate monomial v_i (0-based index)."""
        if not 0 <= i < dim:
            raise ValidationError(f"variable index {i} out of range for dim {dim}")
        alpha = tuple(1 if j == i else 0 for j in range(dim))
        return cls(dim, 1, {alpha: 1.0})

    @classmethod
    def from_quadratic_form(cls, mat: np.ndarray, scale: float = 1.0) -> "HomogeneousPoly":
        """``scale * sum_ij mat[i,j] v_i v_j`` as a degree-2 polynomial."""
        mat = np.asarray(mat, dtype=float)
        d = mat.shape[0]
        terms: dict[MultiIndex, float] = {}
        for i in range(d):
            for j in range(d):
                alpha = [0] * d
                alpha[i] += 1
                alpha[j] += 1
                key = tuple(alpha)
                terms[key] = terms.get(key, 0.0) + scale * mat[i, j]
        return cls(d, 2, terms)

    # -- predicates / arithmetic -------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms and (
            self.is_zero() or self.degree == other.degree)

    def __hash__(self):
        return hash((self.dim, self.degree, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"HomogeneousPoly(dim={self.dim}, degree={self.degree}, 0)"
        body = " + ".join(f"{c:g}*v^{a}" for a, c in sorted(self.terms.items()))
        return f"HomogeneousPoly(dim={self.dim}, degree={self.degree}, {body})"

    def __add__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        if self.dim != other.dim:
            raise ValidationError("dim mismatch in polynomial addition")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValidationError(
                f"cannot add homogeneous polys of degrees {self.degree} and {other.degree}")
        terms = dict(self.terms)
        for a, c in other.terms.items():
            terms[a] = terms.get(a, 0.0) + c
        return HomogeneousPoly(self.dim, self.degree, terms)

    def __neg__(self) -> "HomogeneousPoly":
        return HomogeneousPoly(self.dim, self.degree,
                               {a: -c for a, c in self.terms.items()})

    def __sub__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        return self + (-other)

    def __mul__(self, other: Union["HomogeneousPoly", float, int]):
        if isinstance(other, HomogeneousPoly):
            return poly_mul(self, other)
        return self.scale(float(other))

    __rmul__ = __mul__

    def scale(self, c: float) -> "HomogeneousPoly":
        if c == 0.0:
            return HomogeneousPoly.zero(self.dim, self.degree)
        return HomogeneousPoly(self.dim, self.degree,
                               {a: c * v for a, v in self.terms.items()})

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at one point (shape ``(dim,)``) or a batch ``(..., dim)``."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.dim:
            raise ValidationError(
                f"points have last axis {pts.shape[-1]}, expected {self.dim}")
        out = np.zeros(pts.shape[:-1], dtype=float)
        for alpha, c in self.terms.items():
            mono = np.ones(pts.shape[:-1], dtype=float)
            for i, a in enumerate(alpha):
                if a:
                    mono = mono * pts[..., i] ** a
            out = out + c * mono
        return out

    __call__ = evaluate


def poly_mul(a: HomogeneousPoly, b: HomogeneousPoly) -> HomogeneousPoly:
    """Product of two homogeneous polynomials (degrees add, coefficients convolve)."""
    if a.dim != b.dim:
        raise ValidationError(f"dim mismatch: {a.dim} vs {b.dim}")
    degree = a.degree + b.degree
    if a.is_zero() or b.is_zero():
        return HomogeneousPoly.zero(a.dim, degree)
    terms: dict[MultiIndex, float] = {}
    for aa, ca in a.terms.items():
        for ab, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(aa, ab))
            terms[key] = terms.get(key, 0.0) + ca * cb
    return HomogeneousPoly(a.dim, degree, terms)


def poly_pow(p: HomogeneousPoly, k: int) -> HomogeneousPoly:
    if k < 0:
        raise ValidationError("negative power")
    out = HomogeneousPoly.constant(p.dim, 1.0)
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def radial_power(dim: int, degree: int, coeff: float = 1.0) -> HomogeneousPoly:
    """``coeff * (v_1^2 + ... + v_dim^2)^(degree/2)``; ``degree`` must be even."""
    if degree % 2:
        raise ValidationError(f"radial power needs an even degree, got {degree}")
    r2 = HomogeneousPoly(dim, 2, {tuple(2 if j == i else 0 for j in range(dim)): 1.0
                                  for i in range(dim)})
    return poly_pow(r2, degree // 2).scale(coeff)


# ---------------------------------------------------------------------------
# Partial exponential Bell polynomials
# ---------------------------------------------------------------------------

_FACTORIALS = [math.factorial(i) for i in range(21)]


def _bell_index_sequences(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """Sequences (j_1..j_{m-k+1}) with sum j_i = k and sum i*j_i = m."""
    imax = m - k + 1

    def rec(i: int, rem_k: int, rem_m: int, acc: list[int]):
        if i > imax:
            if rem_k == 0 and rem_m == 0:
                yield tuple(acc)
            return
        hi = min(rem_k, rem_m // i)
        for j in range(hi, -1, -1):
            nk, nm = rem_k - j, rem_m - i * j
            # remaining slots use parts of size >= i+1
            if nk * (i + 1) > nm and nk > 0:
                continue
            acc.append(j)
            yield from rec(i + 1, nk, nm, acc)
            acc.pop()

    yield from rec(1, k, m, [])


def bell_partial(m: int, k: int, xs: Sequence[Union[float, HomogeneousPoly]]):
    """Partial exponential Bell polynomial B_{m,k}(x_1, ..., x_{m-k+1}).

    ``xs`` may hold scalars or :class:`HomogeneousPoly` values; the result has
    the matching type.  The multinomial weights are computed in exact integer
    arithmetic (all needed factorials are below 21!).
    """
    if not (m >= 1 and 1 <= k <= m):
        raise ValidationError(f"invalid Bell indices (m={m}, k={k})")
    need = m - k + 1
    if len(xs) < need:
        raise ValidationError(f"B_{{{m},{k}}} needs {need} arguments, got {len(xs)}")
    if m > 20:
        raise NumericsError(f"Bell order m={m} exceeds the exact factorial table")

    poly_dim = None
    for x in xs[:need]:
        if isinstance(x, HomogeneousPoly):
            poly_dim = x.dim
            break

    total = None
    for js in _bell_index_sequences(m, k):
        denom = 1
        for i, j in enumerate(js, start=1):
            denom *= _FACTORIALS[j] * _FACTORIALS[i] ** j
        coeff = _FACTORIALS[m] // denom
        term: Union[float, HomogeneousPoly, None] = None
        skip = False
        for i, j in enumerate(js, start=1):
            if j == 0:
                continue
            x = xs[i - 1]
            if isinstance(x, HomogeneousPoly) and x.is_zero():
                skip = True
                break
            if not isinstance(x, HomogeneousPoly) and x == 0.0:
                skip = True
                break
            for _ in range(j):
                term = x if term is None else term * x
        if skip:
            continue
        piece = float(coeff) if term is None else coeff * term
        total = piece if total is None else total + piece
    if total is None:
        if poly_dim is not None:
            return HomogeneousPoly.zero(poly_dim, m)
        return 0.0
    return total


def _truncated_series_mul(a: list[float], b: list[float], order: int) -> list[float]:
    out = [0.0] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0.0 or i > order:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ai * bj
    return out


def bell_generating_check(xs: Sequence[float], u: float, t: float,
                          order: int) -> tuple[float, float]:
    """Evaluate both sides of the Bell generating identity, truncated at t^order.

    Left side: exp(u * sum_j x_j t^j / j!) expanded as a truncated power series
    and evaluated at ``t``.  Right side: 1 + sum_m t^m/m! * sum_k u^k B_{m,k}.
    Both truncations keep exactly the same orders, so the two numbers agree to
    rounding error whenever the implementation of ``bell_partial`` is correct.
    """
    if abs(t) > 0.1:
        raise ValidationError("generating check requires |t| <= 0.1")
    order = int(order)
    p = [0.0] * (order + 1)
    for j in range(1, min(order, len(xs)) + 1):
        p[j] = u * xs[j - 1] / _FACTORIALS[j]
    series = [0.0] * (order + 1)
    series[0] = 1.0
    term = [0.0] * (order + 1)
    term[0] = 1.0
    for r in range(1, order + 1):
        term = _truncated_series_mul(term, p, order)
        term = [c / r for c in term]
        series = [s + c for s, c in zip(series, term)]
    lhs = 0.0
    for c in reversed(series):
        lhs = lhs * t + c

    rhs = 1.0
    for m in range(1, order + 1):
        inner = 0.0
        for k in range(1, m + 1):
            inner += u ** k * bell_partial(m, k, xs[: m - k + 1])
        rhs += t ** m / _FACTORIALS[m] * inner
    return lhs, rhs


# ---------------------------------------------------------------------------
# Sphere moments and rising factorials
# ---------------------------------------------------------------------------

def sphere_moment(alpha: Sequence[int], d: int) -> float:
    """Average of the monomial v^alpha over the unit sphere S^{d-1}.

    Zero when any exponent is odd.  For even exponents the gamma-function
    expression ``Gamma(d/2) prod Gamma((alpha_i+1)/2) / (pi^{d/2}
    Gamma((|alpha|+d)/2))`` reduces to the rational value

        prod_i (alpha_i - 1)!!  /  prod_{j < |alpha|/2} (d + 2 j),

    which is evaluated in exact integer arithmetic (one float rounding at the
    end); the empty multi-index averages to exactly 1.
    """
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    alpha = _check_multi_index(alpha, d)
    if any(a % 2 for a in alpha):
        return 0.0
    total = sum(alpha)
    num = 1
    for a in alpha:
        for k in range(a - 1, 0, -2):
            num *= k
    den = 1
    for j in range(total // 2):
        den *= d + 2 * j
    return num / den


def poly_sphere_average(p: HomogeneousPoly) -> float:
    """Average of a homogeneous polynomial over the unit sphere.

    Exactly zero for odd degrees (no floating-point summation is performed).
    """
    if p.degree % 2:
        return 0.0
    return math.fsum(c * sphere_moment(a, p.dim) for a, c in p.terms.items())


def pochhammer(q: float, n: int) -> float:
    """Rising factorial (q)_n = q (q+1) ... (q+n-1), with (q)_0 = 1."""
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    out = 1.0
    for j in range(n):
        out *= q + j
    return out


# ---------------------------------------------------------------------------
# Truncated radial Gaussian moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CpEstimate:
    """Truncated radial Gaussian moment with its closed-form limit and bound.

    ``value``     : (4 pi eps)^{-d/2} * int_0^delta exp(-s^2/4eps) s^{2p+d-1} ds
    ``main_term`` : (4 eps)^p Gamma(p + d/2) / (2 pi^{d/2})
    ``bound``     : 2^{p+d/2} exp(-delta^2 / 8 eps) * main_term
    """
    p: int
    d: int
    eps: float
    delta: float
    value: float
    main_term: float
    bound: float

    def __post_init__(self):
        if not abs(self.value - self.main_term) <= self.bound:
            raise NumericsError(
                f"c_p estimate violates its own bound: "
                f"|{self.value} - {self.main_term}| > {self.bound}")


def _gammainc(a: float, x: float) -> float:
    """Regularized lower incomplete gamma ``P(a, x)`` for a in {1/2, 1, 3/2, ...}.

    For ``x < a + 1`` the power series ``x^a e^(-x) / Gamma(a + 1) *
    sum_n x^n / ((a + 1) ... (a + n))``; otherwise ``1 - Q`` with the finite
    sums ``Q(m, x) = e^(-x) sum_{k<m} x^k / k!`` and ``Q(m + 1/2, x) =
    erfc(sqrt x) + e^(-x) sum_{k<m} x^(k+1/2) / Gamma(k + 3/2)``.  Every term
    is positive and every exponential is taken in log form.
    """
    if x <= 0.0:
        return 0.0
    log_x = math.log(x)
    if x < a + 1.0:
        term = total = 1.0
        n = 1
        while term > 1e-17 * total:
            term *= x / (a + n)
            total += term
            n += 1
        return math.exp(a * log_x - x - math.lgamma(a + 1.0)) * total
    j = a % 1.0                     # 0 for integer a, 1/2 for half-integer a
    q = math.erfc(math.sqrt(x)) if j else 0.0
    while j < a:
        q += math.exp(j * log_x - x - math.lgamma(j + 1.0))
        j += 1.0
    return 1.0 - q


def c_p(p: int, eps: float, delta: float, d: int) -> CpEstimate:
    """Radial moment of the Gaussian kernel truncated at radius ``delta``.

    After the substitution t = s^2/(4 eps) this is the main term times the
    regularized lower incomplete gamma function ``P(p + d/2, delta^2/(4 eps))``,
    evaluated in closed form by :func:`_gammainc`.
    """
    if p < 0:
        raise ValidationError(f"p must be >= 0, got {p}")
    if eps <= 0 or delta <= 0:
        raise ValidationError("eps and delta must be positive")
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    a = p + d / 2.0
    x = delta * delta / (4.0 * eps)
    log_main = p * math.log(4.0 * eps) + math.lgamma(a) \
        - math.log(2.0) - (d / 2.0) * math.log(math.pi)
    if log_main > 700.0:
        raise NumericsError(f"c_p overflows for p={p}, d={d}, eps={eps}")
    main = math.exp(log_main)
    value = main * _gammainc(a, x)
    bound = 2.0 ** (p + d / 2.0) * math.exp(-x / 2.0) * main
    return CpEstimate(p=p, d=d, eps=eps, delta=delta,
                      value=value, main_term=main, bound=bound)


# ---------------------------------------------------------------------------
# Volume-density curvature terms
# ---------------------------------------------------------------------------

def _sym_check(arr: np.ndarray, axes: tuple[int, int], name: str, sign: float = 1.0):
    swapped = np.swapaxes(arr, *axes)
    scale = max(1.0, float(np.max(np.abs(arr))))
    if np.max(np.abs(arr - sign * swapped)) > 1e-10 * scale:
        kind = "symmetric" if sign > 0 else "antisymmetric"
        raise ValidationError(f"{name} is not {kind} in axes {axes}")


def density_curvature_terms(ricci: np.ndarray,
                       ricci_grad: np.ndarray | None = None,
                       riemann: np.ndarray | None = None,
                       ricci_hess: np.ndarray | None = None,
                       ) -> tuple[HomogeneousPoly, ...]:
    """Degree-0..4 terms of the normal-coordinate volume density.

    Input conventions (all in an orthonormal frame at the expansion center,
    with the curvature sign fixed so that the unit 2-sphere has Ricci = identity
    and ``riemann[i,a,j,b] = delta_ij delta_ab - delta_ib delta_aj``):

    ``ricci[i,j]``        Ricci tensor
    ``ricci_grad[i,j,k]`` covariant derivative (first index) of the Ricci tensor
    ``riemann[i,a,j,b]``  curvature tensor components
    ``ricci_hess[i,j,k,l]`` second covariant derivative (first two indices)

    Returns the tuple (rho_0, ..., rho_4) where the density is
    ``sum_k rho_k(s) / k!``:

    rho_0 = 1,  rho_1 = 0,
    rho_2 = -(1/3) sum R_ij s_i s_j,
    rho_3 = -(1/2) sum grad_i R_jk s_i s_j s_k,
    rho_4 = sum (-(3/5) hess_ij R_kl + (1/3) R_ij R_kl
                 - (2/15) sum_ab Riem_iajb Riem_kalb) s_i s_j s_k s_l.
    """
    ricci = np.asarray(ricci, dtype=float)
    d = ricci.shape[0]
    if ricci.shape != (d, d):
        raise ValidationError(f"ricci must be square, got {ricci.shape}")
    _sym_check(ricci, (0, 1), "ricci")
    if ricci_grad is None:
        ricci_grad = np.zeros((d, d, d))
    if riemann is None:
        riemann = np.zeros((d, d, d, d))
    if ricci_hess is None:
        ricci_hess = np.zeros((d, d, d, d))
    ricci_grad = np.asarray(ricci_grad, dtype=float)
    riemann = np.asarray(riemann, dtype=float)
    ricci_hess = np.asarray(ricci_hess, dtype=float)
    for arr, shape, name in ((ricci_grad, (d, d, d), "ricci_grad"),
                             (riemann, (d, d, d, d), "riemann"),
                             (ricci_hess, (d, d, d, d), "ricci_hess")):
        if arr.shape != shape:
            raise ValidationError(f"{name} must have shape {shape}, got {arr.shape}")
    _sym_check(ricci_grad, (1, 2), "ricci_grad")
    if np.any(riemann):
        _sym_check(riemann, (0, 1), "riemann", sign=-1.0)
        _sym_check(riemann.transpose(2, 3, 0, 1) - riemann, (0, 1), "riemann pair")

    rho0 = HomogeneousPoly.constant(d, 1.0)
    rho1 = HomogeneousPoly.zero(d, 1)
    rho2 = HomogeneousPoly.from_quadratic_form(ricci, scale=-1.0 / 3.0)

    terms3: dict[MultiIndex, float] = {}
    it = np.ndindex(d, d, d)
    for i, j, k in it:
        c = -0.5 * ricci_grad[i, j, k]
        if c == 0.0:
            continue
        alpha = [0] * d
        alpha[i] += 1
        alpha[j] += 1
        alpha[k] += 1
        key = tuple(alpha)
        terms3[key] = terms3.get(key, 0.0) + c
    rho3 = HomogeneousPoly(d, 3, terms3)

    riem_contr = np.einsum("iajb,kalb->ijkl", riemann, riemann)
    tensor4 = (-0.6 * ricci_hess
               + np.einsum("ij,kl->ijkl", ricci, ricci) / 3.0
               - (2.0 / 15.0) * riem_contr)
    terms4: dict[MultiIndex, float] = {}
    for i, j, k, l in np.ndindex(d, d, d, d):
        c = tensor4[i, j, k, l]
        if c == 0.0:
            continue
        alpha = [0] * d
        for idx in (i, j, k, l):
            alpha[idx] += 1
        key = tuple(alpha)
        terms4[key] = terms4.get(key, 0.0) + c
    rho4 = HomogeneousPoly(d, 4, terms4)
    return rho0, rho1, rho2, rho3, rho4
