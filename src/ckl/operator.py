"""Gaussian-kernel integral operator by tensor quadrature and Monte Carlo.

The operator integrates ``k_eps(x, y) f(y)`` against the Riemannian volume
form over the chart box.  For small bandwidths the quadrature window is
restricted to a chart-coordinate box around the geodesic ball of radius
``min(delta, 8 sqrt(eps * max(1, log(1/eps))))``; the mass excluded by the
window is controlled by an explicit far-field bound reported alongside the
value.  Non-periodic axes use tensor Gauss-Legendre nodes, full periodic axes
use the trapezoid rule (spectrally accurate for smooth periodic integrands).
A rule holds its nodes as a :class:`TensorGrid` of per-axis arrays, so the
geometry is evaluated per axis and broadcast, never on dense ``(N, d)`` nodes.
The embedding of the nodes stays a :class:`TensorGrid` too: each ambient
component is a broadcast column only as large as the axes it depends on (a
graph chart's ``s_i`` are the node axes and only ``P(s)`` is dense), and the
kernel sums the chord ``|y - x|^2`` one component at a time, left to right.
For an ambient dimension below 8 that is the order in which numpy reduces a
last axis, so the values are those of ``np.sum((y - x) ** 2, axis=-1)`` on
the stacked array, bit for bit.

Non-compact chart-defined manifolds (polynomial graphs) are integrated over
the compact closure of their chart boxes; volume and sup-norm figures used in
tail bounds refer to that closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, reduce
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .errors import NumericsError, ValidationError
from .manifold import ChartPoint, EmbeddedManifold, TensorGrid, as_coords

DEFAULT_ORDER = 64
_COARSE_RES = 33


def _require_bandwidth(eps: float) -> None:
    """Refuse a bandwidth unless ``0 < eps < inf`` (NaN fails too)."""
    if not 0.0 < eps < math.inf:
        raise ValidationError(f"eps must be positive and finite, got {eps:g}")


def _chord_sq(x: np.ndarray, y) -> np.ndarray:
    """``|y - x|^2`` of an array or :class:`TensorGrid` ``y``, summed one
    ambient component at a time, left to right (see :func:`k_eps`)."""
    dist_sq = (y[..., 0] - x[..., 0]) ** 2
    for i in range(1, y.shape[-1]):
        dist_sq = dist_sq + (y[..., i] - x[..., i]) ** 2
    return dist_sq


def k_eps(x: np.ndarray, y, eps: float, d: int) -> np.ndarray:
    """Gaussian kernel (4 pi eps)^(-d/2) exp(-|y-x|^2 / (4 eps)).

    Normalization uses the intrinsic dimension ``d``, not the ambient one.
    Broadcasts over leading axes of ``y``, an array ``(..., n)`` or the
    embedding of a rule's nodes as a :class:`TensorGrid` of component
    columns.  Arrays and columns take one path: the chord is summed one
    component at a time, left to right, so no ``(..., n)`` difference array
    is formed; for n < 8 that is numpy's own order for a last-axis sum, and
    the values are bit-identical to summing the stacked array.  ``eps``
    must satisfy ``0 < eps < inf``.
    """
    _require_bandwidth(eps)
    dist_sq = _chord_sq(np.asarray(x, dtype=float), as_coords(y))
    return (4.0 * math.pi * eps) ** (-d / 2.0) * np.exp(-dist_sq / (4.0 * eps))


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """One tensor-product rule in the manifold's only chart, over the whole
    chart box (``covers_atlas``) or over ``window``.  ``nodes`` is a
    :class:`TensorGrid` of shape ``(n_0, ..., n_{d-1}, d)``, held as its
    per-axis node arrays, and ``weights`` the outer product of the per-axis
    weights, of shape ``(n_0, ..., n_{d-1})``.  A window kept where the
    injectivity cap binds excludes kernel mass of at most 1e-6 by the
    far-field bound."""
    nodes: TensorGrid
    weights: np.ndarray
    localized_radius: float | None
    covers_atlas: bool
    window: tuple[np.ndarray, np.ndarray] | None = None

    def node_count(self) -> int:
        return math.prod(self.nodes.shape[:-1])


@cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    rule = np.polynomial.legendre.leggauss(order)
    for a in rule:
        a.flags.writeable = False
    return rule


def _axis_rule(lo: float, hi: float, periodic_full: bool, order: int):
    if order < 2:
        raise ValidationError("quadrature order must be at least 2")
    if periodic_full:
        nodes = lo + (hi - lo) * np.arange(order) / order
        weights = np.full(order, (hi - lo) / order)
        return nodes, weights
    base, w = _gauss_legendre(order)
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * base
    weights = 0.5 * (hi - lo) * w
    return nodes, weights


def _tensor_rule(axes: list[tuple[np.ndarray, np.ndarray]]
                 ) -> tuple[TensorGrid, np.ndarray]:
    """The node grid and the weights' outer product, multiplied axis by axis
    from axis 0."""
    nodes, weights = (TensorGrid.product(a) for a in zip(*axes))
    return nodes, reduce(mul, (weights[..., i] for i in range(len(axes))), 1.0)


def build_full_rule(M: EmbeddedManifold, order: int = DEFAULT_ORDER,
                    axis_orders: Sequence[int] | None = None) -> QuadratureRule:
    """Quadrature covering the whole chart box."""
    chart = M.chart(0)
    axes = []
    for i in range(chart.dim):
        n_i = axis_orders[i] if axis_orders is not None else order
        axes.append(_axis_rule(chart.lo[i], chart.hi[i], chart.periodic[i], n_i))
    return QuadratureRule(*_tensor_rule(axes), localized_radius=None,
                          covers_atlas=True)


_EXCLUDED_MASS_LIMIT = 1e-6
_MAX_AXIS_ORDER = {1: 1024, 2: 512, 3: 192}
# Monte Carlo sample counts; each batch draws 2n x d candidate coordinates
MC_SAMPLES = range(1000, 1_000_001)


def max_axis_order(dim: int) -> int:
    """Largest per-axis node count a rule may use in dimension ``dim``."""
    return _MAX_AXIS_ORDER.get(dim, 128)


def build_localized_rule(M: EmbeddedManifold, x: ChartPoint, eps: float,
                         order: int = DEFAULT_ORDER) -> QuadratureRule:
    """Quadrature over a chart-coordinate box holding the geodesic ball at x.

    The ball radius is ``min(delta, 8 sqrt(eps max(1, log 1/eps)))``, mapped
    to per-axis halfwidths through the inverse metric at ``x`` with a 30%
    margin.  When the window covers the whole box the full-box rule is
    returned.  When the injectivity cap binds *and* the window would exclude
    non-negligible kernel mass (far-field bound above 1e-6), the rule falls
    back to the full box with the per-axis node count raised until the node
    spacing resolves the kernel width; this only happens at large bandwidths,
    where the escalation stays cheap.
    """
    _require_bandwidth(eps)
    raw_radius = 8.0 * math.sqrt(eps * max(1.0, math.log(1.0 / eps)))
    radius = min(M.delta, raw_radius)
    chart = M.chart(x.chart)
    chart.require_inside(x.coords)
    g_x = M.metric(x.chart, x.coords)
    ginv = np.linalg.inv(g_x)
    half = 1.3 * radius * np.sqrt(np.diagonal(ginv))
    axes = []
    window = []
    full = True
    for i in range(chart.dim):
        lo_i, hi_i = chart.lo[i], chart.hi[i]
        width = hi_i - lo_i
        c = float(x.coords[i])
        if chart.periodic[i]:
            if 2.0 * half[i] >= width:
                axes.append(_axis_rule(lo_i, hi_i, True, order))
                window.append((lo_i, hi_i))
                continue
            # sub-period window; nodes wrap through the chart
            axes.append(_axis_rule(c - half[i], c + half[i], False, order))
            window.append((c - half[i], c + half[i]))
            full = False
        else:
            a, b = max(lo_i, c - half[i]), min(hi_i, c + half[i])
            axes.append(_axis_rule(a, b, False, order))
            window.append((a, b))
            if a > lo_i or b < hi_i:
                full = False
    if full:
        return replace(build_full_rule(M, order), localized_radius=radius)
    lo = np.array([w[0] for w in window])
    hi = np.array([w[1] for w in window])
    windowed = QuadratureRule(*_tensor_rule(axes), localized_radius=radius,
                              covers_atlas=False, window=(lo, hi))
    if raw_radius < M.delta:
        return windowed
    # the injectivity cap binds: keep the window only if the mass it excludes
    # is provably negligible
    x0 = M.embed(x.chart, x.coords)
    m = _excluded_min_distance(M, x0, windowed)
    if math.isfinite(m):
        bound = ((4.0 * math.pi * eps) ** (-M.dim / 2.0)
                 * math.exp(-m * m / (4.0 * eps)) * M.volume())
        if bound <= _EXCLUDED_MASS_LIMIT:
            return windowed
    sigma = math.sqrt(2.0 * eps)
    cap = max_axis_order(M.dim)
    axis_orders = []
    for i in range(chart.dim):
        extent = (chart.hi[i] - chart.lo[i]) * math.sqrt(max(g_x[i, i], 1e-30))
        axis_orders.append(min(max(order, int(math.ceil(2.8 * extent / sigma))),
                               cap))
    return replace(build_full_rule(M, order, axis_orders=axis_orders),
                   localized_radius=radius)


# ---------------------------------------------------------------------------
# Tail control
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailEstimate:
    """Far-field bound for the mass outside the quadrature window.

    ``m_delta`` approximates the infimum of |y - x| over the part of the
    chart box outside the window (estimated on a coarse grid, like the sup norm
    of f; both are diagnostics, not certified bounds).
    """
    m_delta: float
    volume: float
    f_sup: float
    bound: float

    def __post_init__(self):
        if not self.m_delta > 0:
            raise NumericsError("tail separation must be positive")


def _coarse_grid(M: EmbeddedManifold):
    cache = getattr(M, "_coarse_grid_cache", None)
    if cache is not None:
        return cache
    chart = M.chart(0)
    axes = []
    for i in range(chart.dim):
        lo_i, hi_i = chart.lo[i], chart.hi[i]
        if chart.periodic[i]:
            axes.append(lo_i + (hi_i - lo_i) * np.arange(_COARSE_RES)
                        / _COARSE_RES)
        else:
            inset = 1e-3 * (hi_i - lo_i)
            axes.append(np.linspace(lo_i + inset, hi_i - inset, _COARSE_RES))
    grid = TensorGrid.product(axes)
    M._coarse_grid_cache = (grid, M.embed(0, grid))
    return M._coarse_grid_cache


def _excluded_min_distance(M: EmbeddedManifold, x0: np.ndarray,
                           rule: QuadratureRule) -> float:
    """Coarse-grid minimum of |y - x| over chart points outside the window."""
    if rule.covers_atlas:
        return math.inf
    coords, embeds = _coarse_grid(M)
    lo, hi = rule.window
    chart = M.chart(0)
    outside = False
    for i in range(chart.dim):
        col = coords[..., i]
        if chart.periodic[i]:
            width = chart.hi[i] - chart.lo[i]
            outside = outside | (np.mod(col - lo[i], width) > (hi[i] - lo[i]))
        else:
            outside = outside | (col < lo[i]) | (col > hi[i])
    if not np.any(outside):     # each axis's test spans the whole grid
        return math.inf
    # sqrt is monotone, so this is the minimum of the norms
    dist_sq = np.broadcast_to(_chord_sq(x0, embeds), outside.shape)
    return float(np.sqrt(np.min(dist_sq[outside])))


def tail_estimate(M: EmbeddedManifold, x: ChartPoint, eps: float,
                  rule: QuadratureRule, f: Callable) -> TailEstimate:
    """Bound (4 pi eps)^(-d/2) e^(-m^2/4eps) Vol(M) sup|f| for excluded mass.

    A sup norm that is not finite raises :class:`NumericsError`.
    """
    coords, embeds = _coarse_grid(M)
    vals = np.abs(np.asarray(f(coords, embeds), dtype=float))
    f_sup = float(np.max(vals))
    if not math.isfinite(f_sup):
        raise NumericsError("sup |f| over the chart box is not finite")
    x0 = M.embed(x.chart, x.coords)
    m_best = _excluded_min_distance(M, x0, rule)
    vol = M.volume()
    if not math.isfinite(m_best):
        return TailEstimate(m_delta=math.inf, volume=vol, f_sup=f_sup, bound=0.0)
    bound = ((4.0 * math.pi * eps) ** (-M.dim / 2.0)
             * math.exp(-m_best ** 2 / (4.0 * eps)) * vol * f_sup)
    return TailEstimate(m_delta=m_best, volume=vol, f_sup=f_sup, bound=bound)


# ---------------------------------------------------------------------------
# Operator evaluation
# ---------------------------------------------------------------------------

def _quadrature_sum(M: EmbeddedManifold, f: Callable, x0: np.ndarray,
                    eps: float, rule: QuadratureRule) -> float:
    """The rule's kernel sum; its node arrays die on return, before the tail
    bound builds the order-96 volume rule."""
    # fields see wrapped coordinates (windows may straddle a period seam)
    nodes, ambient, dens = M.chart(0).jet(rule.nodes, (0,), volume=True)
    fvals = np.asarray(f(nodes, ambient), dtype=float)
    kern = k_eps(x0, ambient, eps, M.dim)
    return float(np.sum(rule.weights * dens * fvals * kern))


def apply_operator(M: EmbeddedManifold, f: Callable, x: ChartPoint, eps: float,
                   rule: QuadratureRule | None = None) -> tuple[float, float]:
    """Quadrature value of the kernel integral at ``x`` plus its tail bound.

    ``f`` is a scalar field callable ``f(coords, ambient) -> values``.  The
    reduction is a fixed-order pairwise sum, so results are deterministic and
    independent of any node-level parallelism.  A value that is not finite
    raises :class:`NumericsError`.
    """
    if rule is None:
        rule = build_localized_rule(M, x, eps)
    if rule.nodes.shape[-1] != M.dim:
        raise ValidationError(
            "quadrature rule does not match the manifold's chart")
    total = _quadrature_sum(M, f, M.embed(x.chart, x.coords), eps, rule)
    if not math.isfinite(total):
        raise NumericsError(f"operator value at eps={eps:g} is not finite")
    tail = tail_estimate(M, x, eps, rule, f)
    return total, tail.bound


@dataclass(frozen=True)
class LadderSample:
    eps: float
    value: float
    tail_bound: float


@dataclass(frozen=True)
class EpsLadder:
    """Operator values over a decreasing bandwidth sequence."""
    samples: list[LadderSample]
    f_id: str = ""

    def __post_init__(self):
        eps = [s.eps for s in self.samples]
        for e in eps:
            _require_bandwidth(e)
        if any(eps[i + 1] >= eps[i] for i in range(len(eps) - 1)):
            raise ValidationError("ladder bandwidths must be strictly decreasing")
        if any(s.tail_bound < 0 for s in self.samples):
            raise ValidationError("tail bounds must be non-negative")

    @property
    def eps(self) -> np.ndarray:
        return np.array([s.eps for s in self.samples])

    @property
    def values(self) -> np.ndarray:
        return np.array([s.value for s in self.samples])

    @property
    def tail_bounds(self) -> np.ndarray:
        return np.array([s.tail_bound for s in self.samples])


def default_eps_ladder(eps0: float = 0.1, count: int = 8) -> list[float]:
    """Geometric ladder eps0 * 2^-k, floored at 1e-4 to keep quadrature
    resolvable."""
    out = [eps0 * 2.0 ** (-k) for k in range(count)]
    out = [e for e in out if e >= 1e-4]
    if len(out) < 2:
        raise ValidationError("ladder floor leaves fewer than two bandwidths")
    return out


def eps_sweep(M: EmbeddedManifold, f: Callable, x: ChartPoint,
              eps_list: Sequence[float], order: int = DEFAULT_ORDER,
              f_id: str = "") -> EpsLadder:
    """One operator evaluation per bandwidth, with bandwidth-adapted windows."""
    eps_list = [float(e) for e in eps_list]
    samples = []
    for eps in eps_list:
        value, tail = apply_operator(M, f, x, eps,
                                     build_localized_rule(M, x, eps, order))
        samples.append(LadderSample(eps=eps, value=value, tail_bound=tail))
    return EpsLadder(samples=samples, f_id=f_id)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def monte_carlo_operator(M: EmbeddedManifold, f: Callable, x: ChartPoint,
                         eps: float, n_samples: int, seed: int = 42
                         ) -> tuple[float, float]:
    """Monte Carlo estimate of the kernel integral with its standard error.

    Samples uniformly with respect to the volume form by rejection against
    sqrt(det g), using a counter-based (Philox) generator so a fixed
    seed reproduces results exactly regardless of batch scheduling.
    """
    if n_samples not in MC_SAMPLES:
        raise ValidationError(f"need {MC_SAMPLES[0]} to {MC_SAMPLES[-1]} samples")
    _require_bandwidth(eps)
    rng = np.random.Generator(np.random.Philox(seed))
    x0 = M.embed(x.chart, x.coords)
    vol = M.volume()
    chart = M.chart(x.chart)
    coords_grid, _ = _coarse_grid(M)
    dens_cap = 1.1 * float(np.max(M.sqrt_det_metric(x.chart, coords_grid)))
    accepted = []
    proposed = 0
    while sum(a.shape[0] for a in accepted) < n_samples:
        batch = max(2048, 2 * n_samples)
        cand = rng.uniform(chart.lo, chart.hi, size=(batch, chart.dim))
        u = rng.uniform(0.0, 1.0, size=batch)
        dens = M.sqrt_det_metric(x.chart, cand)
        if np.any(dens > dens_cap):
            raise NumericsError(
                "density cap exceeded during rejection sampling; "
                "refine the chart or its coarse grid")
        keep = u < dens / dens_cap
        proposed += batch
        accepted.append(cand[keep])
        if proposed >= 100 * n_samples and sum(
                a.shape[0] for a in accepted) < 0.01 * proposed:
            raise NumericsError(
                "rejection efficiency below 1%; refine the chart "
                "parametrization")
    coords = np.concatenate(accepted, axis=0)[:n_samples]
    ambient = M.embed(x.chart, coords)
    fvals = np.asarray(f(coords, ambient), dtype=float)
    pooled = k_eps(x0, ambient, eps, M.dim) * fvals
    estimate = vol * float(np.mean(pooled))
    std_error = vol * float(np.std(pooled, ddof=1)) / math.sqrt(pooled.size)
    return estimate, std_error
