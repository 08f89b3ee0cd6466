"""Gaussian-kernel integral operator by tensor quadrature and Monte Carlo.

The operator integrates ``k_eps(x, y) f(y)`` against the Riemannian volume
form over the chart box.  At small bandwidths the rule lives in the kernel's
own scale: on axis i the nodes are ``s_i = x_i + 2 sqrt(eps (g^-1)_ii) t_k``,
with ``t_k`` the Gauss-Hermite nodes and ``g`` the metric at ``x``, and each
weight is ``w_k e^(t_k^2)`` times the axis scale, so the rule integrates the
pulled-back kernel, a Gaussian in ``t`` times a factor that is smooth on the
scale of ``t``.  An axis whose node box crosses one edge of the chart box
takes Gauss-Legendre nodes on the node box clipped to the chart box; an axis
the node box covers whole takes the full-axis rule: Gauss-Legendre, or the
trapezoid rule on a periodic axis (spectrally accurate for smooth periodic
integrands).  When every axis is covered whole the rule is the full chart
box, with the node count raised until the spacing resolves the kernel width.

:func:`eps_sweep` chooses the Hermite order per bandwidth from a ladder
(``HERMITE_ORDERS``): it accepts the first order from 24 on whose value
differs from the previous order's by at most ``QUAD_ERROR_TARGET`` relative,
and reports that difference as the sample's quadrature error.  The chord
``|y - x|^2`` is a difference of embedding coordinates, and its rounding
scatters the orders' values (by about 1e-13 at eps = 1e-8 and 1e-11 at 1e-12
on the unit spheres): where the worst case of that rounding exceeds the
target, it replaces the target, and no error reported is below it.  The
ladder stops where the node box comes to cover an axis it did not cover at
16 nodes.  When no order before that meets the target, the sweep uses the
full box if the box's spacing resolves the kernel within
:func:`max_axis_order` nodes per axis, and reports the difference between the
box's orders ``n`` and ``ceil(2n/3)`` (``n + 1`` where that is ``n``:
a 2-node axis is compared with 3 nodes); otherwise it keeps the last order
tried and reports the spread of every value the ladder summed.  The tail
bound is the kernel mass over the part of the chart box that the rule never
samples; its volume, separation and sup norm are read from the manifold's
coarse grid (:meth:`EmbeddedManifold.coarse_grid`), and no rule is built
for them.

:func:`monte_carlo_operator` samples the kernel's own Gaussian at the point,
mixed with a uniform share over the chart box, and takes its terms from the
same evaluator as a rule's.  It takes a whole ladder and makes its random
draws once per call; each bandwidth scales the shared draws to its own nodes,
so its row is the one a call with that bandwidth alone returns.

Gauss-Hermite of every order in ``HERMITE_ORDERS`` and Gauss-Legendre of
every order a d = 3 full box may take (2 to ``max_axis_order(3)``, 192) are
numpy's own, read from a table shipped with the package (``gauss_rules.f64``),
each rule alone on its first use; a test checks the table against numpy bit
for bit.  So an escalated box runs no eigensolver.  numpy computes every
other order once per process.

A rule holds its nodes as a :class:`TensorGrid` of per-axis arrays, so the
geometry is evaluated per axis and broadcast, never on dense ``(N, d)`` nodes.
The embedding of the nodes stays a :class:`TensorGrid` too: each ambient
component is a broadcast column only as large as the axes it depends on (a
graph chart's ``s_i`` are the node axes and only ``P(s)`` is dense), and the
kernel sums the chord ``|y - x|^2`` one component at a time, left to right.
For an ambient dimension below 8 that is the order in which numpy reduces a
last axis, so the values are those of ``np.sum((y - x) ** 2, axis=-1)`` on
the stacked array, bit for bit.

A sweep's full box keeps two arrays of its size, the ``(w rho) f`` product
and the chord, built in the weights and a dense embedding column; while it is
built it holds a third, the other dense column on a trig chart or
``1 + |grad P|^2`` on a graph.  Each bandwidth adds its kernel, box by box.
A windowed rule's kernel is formed in its own chord.

Non-compact chart-defined manifolds (polynomial graphs) are integrated over
the compact closure of their chart boxes; volume and sup-norm figures used in
tail bounds refer to that closure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, reduce
from itertools import accumulate, pairwise, takewhile
from operator import mul
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import NumericsError, ValidationError
from .manifold import ChartPoint, EmbeddedManifold, TensorGrid, as_coords

DEFAULT_ORDER = 64
# the Gauss-Hermite orders eps_sweep tries at each bandwidth, in turn
HERMITE_ORDERS = (16, 24, 32, 48, 64)
# an order is accepted once |Q_n - Q_prev| <= QUAD_ERROR_TARGET max(1, |Q_n|),
# or within the chord's rounding floor where that is larger
QUAD_ERROR_TARGET = 1e-13
# the per-axis rules of a kernel-scale rule
HERMITE, CLIPPED, FULL = "hermite", "clipped", "full"


def _require_bandwidth(eps: float) -> None:
    """Refuse a bandwidth unless ``0 < eps < inf`` (NaN fails too)."""
    if not 0.0 < eps < math.inf:
        raise ValidationError(f"eps must be positive and finite, got {eps:g}")


def _chord_sq(x: np.ndarray, y, scratch: frozenset[int] = frozenset()
              ) -> np.ndarray:
    """``|y - x|^2`` of an array or :class:`TensorGrid` ``y``, summed one
    ambient component at a time, left to right (see :func:`k_eps`).  Each
    term is squared in place and the sum added into whichever of the two has
    its shape (addition commutes), so at most two batch-sized arrays are
    alive.  The columns indexed in ``scratch`` are overwritten by their terms."""
    dist_sq = None
    for i in range(y.shape[-1]):
        col = y[..., i]
        term = np.subtract(col, x[..., i], out=col if i in scratch else None)
        term *= term
        if dist_sq is None:
            dist_sq = term
        elif np.shape(dist_sq) == (shape := np.broadcast(dist_sq, term).shape):
            dist_sq += term
        elif np.shape(term) == shape:
            dist_sq = np.add(dist_sq, term, out=term)
        else:
            dist_sq = dist_sq + term
    return dist_sq


def k_eps(x: np.ndarray, y, eps: float, d: int) -> np.ndarray:
    """Gaussian kernel (4 pi eps)^(-d/2) exp(-|y-x|^2 / (4 eps)).

    Normalization uses the intrinsic dimension ``d``, not the ambient one.
    Broadcasts over leading axes of ``y``, an array ``(..., n)`` or the
    embedding of a rule's nodes as a :class:`TensorGrid` of component
    columns.  Arrays and columns take one path: the chord is summed one
    component at a time, left to right, so no ``(..., n)`` difference array
    is formed; for n < 8 that is numpy's own order for a last-axis sum, and
    the values are bit-identical to summing the stacked array.  The kernel
    is formed in the chord's own array.  ``eps`` must satisfy
    ``0 < eps < inf``.
    """
    _require_bandwidth(eps)
    chord = _chord_sq(np.asarray(x, dtype=float), as_coords(y))
    return _kernel_of_chord(
        chord, eps, d, out=chord if isinstance(chord, np.ndarray) else None)


def _kernel_of_chord(dist_sq: np.ndarray, eps: float, d: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """``(4 pi eps)^(-d/2) exp(-dist_sq / (4 eps))``: the quotient,
    exponentiated and scaled in place, in ``out`` or else in a new array
    (``dist_sq`` is then untouched)."""
    kern = np.divide(dist_sq, -4.0 * eps, out=out)
    kern = np.exp(kern, out=kern) if isinstance(kern, np.ndarray) else np.exp(kern)
    kern *= (4.0 * math.pi * eps) ** (-d / 2.0)
    return kern


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """One tensor-product rule in the manifold's only chart.

    ``nodes`` is a :class:`TensorGrid` of shape ``(n_0, ..., n_{d-1}, d)``,
    held as its per-axis node arrays, and ``weights`` the outer product of the
    per-axis weights, of shape ``(n_0, ..., n_{d-1})``.  A rule over the whole
    chart box has no ``window`` and ``covers_atlas``.  Any other rule is in
    the kernel's scale: ``axis_rules`` names each axis's rule (``HERMITE``,
    ``CLIPPED`` or ``FULL``) and ``window`` is the node box ``(lo, hi)``,
    outside which the rule samples nothing; on a periodic axis it may
    straddle the period seam.  :func:`monte_carlo_operator` passes each
    bandwidth's mixture nodes as a :class:`TensorGrid` of ``d`` contiguous
    columns of length ``n``, each node weighted ``1 / (n q)`` by its mixture
    density ``q``, or 0 outside the window, with no ``window`` of its own.
    """
    nodes: TensorGrid
    weights: np.ndarray
    window: tuple[np.ndarray, np.ndarray] | None = None
    axis_rules: tuple[str, ...] | None = None

    @property
    def covers_atlas(self) -> bool:
        return self.window is None

    def node_count(self) -> int:
        return math.prod(self.nodes.shape[:-1])


def _require_order(order: int) -> None:
    if order < 2:
        raise ValidationError("quadrature order must be at least 2")


def _compared_order(order: int) -> int:
    """The order a rule's error estimate compares with: ``ceil(2 order / 3)``,
    or ``order + 1`` where that is ``order`` itself (``order`` 2), so a rule
    is never compared with itself."""
    coarse = -(-2 * order // 3)
    return coarse if coarse < order else order + 1


_MAX_AXIS_ORDER = {1: 1024, 2: 512, 3: 192}


def max_axis_order(dim: int) -> int:
    """Largest per-axis node count a rule may use in dimension ``dim``."""
    return _MAX_AXIS_ORDER.get(dim, 128)


# the rules GAUSS_TABLE holds, in its order: Gauss-Hermite of the ladder's
# orders, and Gauss-Legendre of every order a d = 3 full box may take
TABULATED = (*(("hermite", n) for n in HERMITE_ORDERS),
             *(("legendre", n) for n in range(2, max_axis_order(3) + 1)))
GAUSS_TABLE = Path(__file__).with_name("gauss_rules.f64")
# each tabulated rule's offset in GAUSS_TABLE, in float64s: a rule of n
# nodes holds ceil(n / 2) nodes and as many weights
_TABLE_OFFSETS = dict(zip(TABULATED, accumulate(
    (2 * (n - n // 2) for _, n in TABULATED), initial=0)))


def _read_only(rule: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    for a in rule:
        a.flags.writeable = False
    return rule


@cache
def _tabulated(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``TABULATED`` rule ``(kind, n)`` as numpy's ``hermgauss`` or
    ``leggauss`` returns it, read alone from ``GAUSS_TABLE``: the whole file
    is 150 KB, a rule at most 1.5 KB.  The file holds, rule after rule, the
    nonnegative nodes (ascending) and then their weights, as little-endian
    float64; numpy makes its rules exactly symmetric, so the rest of a rule
    is that half mirrored, its nodes negated."""
    half = n - n // 2
    with GAUSS_TABLE.open("rb") as fh:
        fh.seek(8 * _TABLE_OFFSETS[kind, n])
        raw = fh.read(16 * half)
    # np.asarray of the buffer, not np.frombuffer: nothing else in a ckl
    # process runs frombuffer's code, and mapping it costs 64 KB of RSS
    data = np.asarray(memoryview(raw).cast("d"))
    if sys.byteorder == "big":
        data = data.byteswap()
    t, w = data[:half], data[half:]
    return _read_only((np.concatenate((-t[::-1][:n // 2], t)),
                       np.concatenate((w[::-1][:n // 2], w))))


@cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]: numpy's
    ``leggauss``, from the table for a ``TABULATED`` order."""
    if ("legendre", order) in _TABLE_OFFSETS:
        return _tabulated("legendre", order)
    return _read_only(np.polynomial.legendre.leggauss(order))


@cache
def _gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite nodes ``t_k``, ascending, and the weights
    ``w_k e^(t_k^2)``, which integrate ``g`` over the line where ``g`` is
    ``e^(-t^2)`` times a smooth factor; ``(t_k, w_k)`` is numpy's
    ``hermgauss``, from the table for a ``TABULATED`` order."""
    t, w = (_tabulated("hermite", order) if ("hermite", order) in _TABLE_OFFSETS
            else np.polynomial.hermite.hermgauss(order))
    return _read_only((t, w * np.exp(t * t)))


def _axis_rule(lo: float, hi: float, periodic_full: bool, order: int):
    _require_order(order)
    if periodic_full:
        nodes = lo + (hi - lo) * np.arange(order) / order
        weights = np.full(order, (hi - lo) / order)
        return nodes, weights
    base, w = _gauss_legendre(order)
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * base
    weights = 0.5 * (hi - lo) * w
    return nodes, weights


def _hermite_axis(center: float, scale: float, order: int):
    """Nodes ``center + scale t_k`` and their weights.  A node is rounded,
    so its weight takes ``e^(t^2)`` at the node's actual offset ``t'``, by
    the factor ``e^((t' - t)(t' + t))``: at eps = 1e-8 the rounding alone
    would move K_eps 1 on the unit sphere by 2e-13."""
    t, w = _gauss_hermite(order)
    nodes = center + scale * t
    actual = (nodes - center) / scale
    return nodes, scale * w * np.exp((actual - t) * (actual + t))


def _tensor_rule(axes: list[tuple[np.ndarray, np.ndarray]]
                 ) -> tuple[TensorGrid, np.ndarray]:
    """The node grid and the weights' outer product, multiplied from axis 0;
    a rule of more than ``_MAX_RULE_NODES`` nodes is refused before either
    is built."""
    size = math.prod(len(nodes) for nodes, _ in axes)
    if size > _MAX_RULE_NODES:
        raise ValidationError(f"rule has {size} nodes, more than the "
                              f"{_MAX_RULE_NODES} allowed")
    nodes, weights = (TensorGrid.product(a) for a in zip(*axes))
    return nodes, reduce(mul, weights.columns, 1.0)


def build_full_rule(M: EmbeddedManifold, order: int = DEFAULT_ORDER,
                    axis_orders: Sequence[int] | None = None) -> QuadratureRule:
    """Quadrature covering the whole chart box."""
    chart = M.chart(0)
    if axis_orders is None:
        axis_orders = [order] * M.dim
    return QuadratureRule(*_tensor_rule(
        [_axis_rule(chart.lo[i], chart.hi[i], chart.periodic[i], n)
         for i, n in enumerate(axis_orders)]))


# a rule holds at most 64^4 nodes: sphere3's largest box (192^3) and the
# 2048 x 512 reference rules fit, a 64^6 box (6.9e10 nodes) does not
_MAX_RULE_NODES = 2 ** 24
# Monte Carlo sample counts; a run draws n x d Gaussian chart coordinates
MC_SAMPLES = range(1000, 1_000_001)
# the share of Monte Carlo nodes drawn uniformly on the window
MC_DEFENSIVE = 0.1
# the largest node rounding, 2^-52 |x_i|, allowed per Gaussian width
MC_RESOLUTION = 1e-3


def _metric_diagonals(M: EmbeddedManifold, x: ChartPoint
                      ) -> tuple[np.ndarray, np.ndarray]:
    """``(diag g, diag g^-1)`` of the metric at ``x``."""
    g = M.metric(x.chart, x.coords)
    return np.diagonal(g).copy(), np.diagonal(np.linalg.inv(g)).copy()


def _full_box_orders(M: EmbeddedManifold, eps: float, g_diag: np.ndarray,
                     order: int) -> list[int]:
    """Per-axis node counts of the full box: ``order``, raised until the
    spacing resolves the kernel width ``sqrt(2 eps)`` (by the metric at the
    point), capped at :func:`max_axis_order`."""
    chart = M.chart(0)
    sigma = math.sqrt(2.0 * eps)
    cap = max_axis_order(M.dim)
    orders = []
    for i in range(chart.dim):
        extent = (chart.hi[i] - chart.lo[i]) * math.sqrt(max(g_diag[i], 1e-30))
        orders.append(min(max(order, int(math.ceil(2.8 * extent / sigma))), cap))
    return orders


def build_localized_rule(M: EmbeddedManifold, x: ChartPoint, eps: float,
                         order: int = DEFAULT_ORDER, hermite_order: int = 32,
                         metric: tuple[np.ndarray, np.ndarray] | None = None
                         ) -> QuadratureRule:
    """The kernel-scale rule at ``x`` for one Gauss-Hermite order.

    Axis i's node box is ``x_i +- T 2 sqrt(eps (g^-1)_ii)``, with ``T`` the
    largest node of the ``hermite_order``-point Hermite rule and ``g`` the
    metric at ``x``.  The axis takes Hermite nodes where its node box lies
    inside the chart box, or spans at most one period on a periodic axis;
    ``order`` Gauss-Legendre nodes on the node box clipped to the chart box
    where it crosses one edge; and the full-axis rule of ``order`` where it
    covers the axis.  When it covers every axis the rule is the full box,
    with the node counts of :func:`_full_box_orders`.  :func:`eps_sweep`
    chooses ``hermite_order`` per bandwidth from ``HERMITE_ORDERS``; see the
    module docstring.  ``metric`` is ``(diag g, diag g^-1)`` at ``x``, which
    a caller building several rules at one point computes once.
    """
    _require_bandwidth(eps)
    _require_order(order)
    _require_order(hermite_order)
    chart = M.chart(x.chart)
    chart.require_inside(x.coords)
    g_diag, ginv_diag = metric or _metric_diagonals(M, x)
    scale, kinds, lo, hi = _node_box(M, x, eps, ginv_diag, hermite_order)
    if all(kind == FULL for kind in kinds):
        return build_full_rule(M, order,
                               axis_orders=_full_box_orders(M, eps, g_diag, order))
    axes = [_hermite_axis(float(x.coords[i]), scale[i], hermite_order)
            if kind == HERMITE
            else _axis_rule(lo[i], hi[i], kind == FULL and chart.periodic[i], order)
            for i, kind in enumerate(kinds)]
    return QuadratureRule(*_tensor_rule(axes),
                          window=(np.array(lo), np.array(hi)),
                          axis_rules=tuple(kinds))


def _node_box(M: EmbeddedManifold, x: ChartPoint, eps: float,
              ginv_diag: np.ndarray, hermite_order: int):
    """``(scale, kinds, lo, hi)`` of the kernel-scale rule at ``x``: the
    Hermite scale of each axis, its rule (``HERMITE``, ``CLIPPED`` or
    ``FULL``) and its node box, as :func:`build_localized_rule` decides
    them; nothing is built."""
    chart = M.chart(x.chart)
    scale = 2.0 * np.sqrt(eps * ginv_diag)
    half = _gauss_hermite(hermite_order)[0][-1] * scale
    kinds, lo, hi = [], [], []
    for i in range(chart.dim):
        c = float(x.coords[i])
        a, b = c - half[i], c + half[i]
        if chart.periodic[i]:
            kind = HERMITE if b - a <= chart.hi[i] - chart.lo[i] else FULL
        elif chart.lo[i] <= a and b <= chart.hi[i]:
            kind = HERMITE
        elif a <= chart.lo[i] and chart.hi[i] <= b:
            kind = FULL
        else:
            kind = CLIPPED
            a, b = max(a, chart.lo[i]), min(b, chart.hi[i])
        if kind == FULL:
            a, b = chart.lo[i], chart.hi[i]
        kinds.append(kind)
        lo.append(a)
        hi.append(b)
    return scale, kinds, lo, hi


# ---------------------------------------------------------------------------
# Tail control
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailEstimate:
    """The kernel mass a rule never samples, bounded by
    ``(4 pi eps)^(-d/2) e^(-m^2 / 4 eps) Vol(M) sup|f|``.

    ``m_delta`` approximates the infimum of |y - x| over the part of the
    chart box outside the rule's node box, ``f_sup`` the sup norm of f, and
    ``volume`` is :meth:`EmbeddedManifold.volume`, the box measure times the
    largest volume element, an upper figure for ``Vol(M)``; all three come
    from a coarse grid, so they are diagnostics, not certified bounds.  A
    rule over the whole box misses nothing: ``m_delta`` is inf and the bound
    0.  A kernel-scale node box spans a fixed number of kernel widths, so
    the mass it misses does not decay super-polynomially in eps: it is a
    fixed fraction, about ``e^(-T^2)`` with ``T`` the largest Hermite node,
    of the kernel mass.  The coarse grid places ``m_delta`` at its nearest
    point outside the box, which at small eps lies many kernel widths beyond
    it, so the bound can fall far below that fraction.
    """
    m_delta: float
    volume: float
    f_sup: float
    bound: float

    def __post_init__(self):
        if not self.m_delta > 0:
            raise NumericsError("tail separation must be positive")


def _excluded_min_distance(M: EmbeddedManifold, x0: np.ndarray,
                           rule: QuadratureRule) -> float:
    """Coarse-grid minimum of |y - x| over chart points outside the node box."""
    if rule.covers_atlas:
        return math.inf
    coords, embeds = M.coarse_grid()
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
    """Bound (4 pi eps)^(-d/2) e^(-m^2/4eps) Vol(M) sup|f| for excluded mass,
    with every figure from the coarse grid (see :class:`TailEstimate`).

    A sup norm that is not finite raises :class:`NumericsError`.
    """
    coords, embeds = M.coarse_grid()
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

def _weighted_terms(weighted: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """``weighted * kern``, formed in the kernel's array."""
    if isinstance(kern, np.ndarray) and kern.shape == np.shape(weighted):
        return np.multiply(weighted, kern, out=kern)
    return weighted * kern


def _rule_terms(M: EmbeddedManifold, f: Callable, rule: QuadratureRule
                ) -> tuple[np.ndarray, TensorGrid]:
    """The terms of a rule's kernel sum that do not depend on eps: the
    ``(w rho) f`` product and the embedding of the nodes."""
    # fields see wrapped coordinates (node boxes may straddle a period seam)
    nodes, ambient, dens = M.chart(0).jet(rule.nodes, (0,), volume=True)
    fvals = np.asarray(f(nodes, ambient), dtype=float)
    weighted = rule.weights * dens
    weighted *= fvals
    return weighted, ambient


def _rule_sum(M: EmbeddedManifold, f: Callable, x0: np.ndarray, eps: float,
              rule: QuadratureRule) -> tuple[float, float]:
    """A rule's kernel sum, of the terms ``((w rho) f) k``, and the worst
    case of its chord's rounding.  A sum that is not finite raises
    :class:`NumericsError`.

    The chord ``|y - x|^2`` is a difference of embedding coordinates: with
    each coordinate off by up to ``u |x|`` (``u`` = 2^-52), it is off by up
    to ``2 u |x| |y - x|``, and a kernel term by that over ``4 eps``.  At
    the kernel's rms distance ``sqrt(2 d eps)`` that makes the sum off by up
    to ``u |x| sqrt(d / (2 eps)) sum |terms|``: 2.7e-12 on the unit 3-sphere
    at eps = 1e-8, where the orders' values scatter by 1e-13.
    """
    weighted, ambient = _rule_terms(M, f, rule)
    terms = _weighted_terms(weighted, k_eps(x0, ambient, eps, M.dim))
    value = float(np.sum(terms))
    if not math.isfinite(value):
        raise NumericsError(f"operator value at eps={eps:g} is not finite")
    scale = (np.finfo(float).eps * float(np.linalg.norm(x0))
             * math.sqrt(M.dim / (2.0 * eps)))
    return value, scale * float(np.sum(np.abs(terms, out=terms)))


def apply_operator(M: EmbeddedManifold, f: Callable, x: ChartPoint, eps: float,
                   rule: QuadratureRule | None = None) -> tuple[float, float]:
    """Quadrature value of the kernel integral at ``x`` plus its tail bound.

    ``f`` is a scalar field callable ``f(coords, ambient) -> values``.  With
    no ``rule``, the rule is chosen as :func:`eps_sweep` chooses it.  The
    reduction is a fixed-order pairwise sum, so results are deterministic and
    independent of any node-level parallelism.  A value that is not finite
    raises :class:`NumericsError`.
    """
    if rule is None:
        (sample,) = eps_sweep(M, f, x, [eps]).samples
        return sample.value, sample.tail_bound
    if rule.nodes.shape[-1] != M.dim:
        raise ValidationError(
            "quadrature rule does not match the manifold's chart")
    total, _ = _rule_sum(M, f, M.embed(x.chart, x.coords), eps, rule)
    return total, tail_estimate(M, x, eps, rule, f).bound


@dataclass(frozen=True)
class LadderSample:
    """One bandwidth's operator value, the bound on the kernel mass its rule
    never samples, and its quadrature-error estimate: the value's distance
    from that of the next coarser rule, at least the chord's rounding floor
    on a kernel-scale rule (see :func:`eps_sweep`)."""
    eps: float
    value: float
    tail_bound: float
    quad_error: float = 0.0


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
        if any(not math.isfinite(s.value) for s in self.samples):
            raise ValidationError("ladder values must be finite")
        if any(not s.tail_bound >= 0 for s in self.samples):
            raise ValidationError("tail bounds must be non-negative")
        if any(not s.quad_error >= 0 for s in self.samples):
            raise ValidationError("quadrature errors must be non-negative")

    @property
    def eps(self) -> np.ndarray:
        return np.array([s.eps for s in self.samples])

    @property
    def values(self) -> np.ndarray:
        return np.array([s.value for s in self.samples])

    @property
    def tail_bounds(self) -> np.ndarray:
        return np.array([s.tail_bound for s in self.samples])

    @property
    def quad_errors(self) -> np.ndarray:
        return np.array([s.quad_error for s in self.samples])


def default_eps_ladder(eps0: float = 0.1, count: int = 8) -> list[float]:
    """Geometric ladder eps0 * 2^-k, floored at 1e-4 to keep quadrature
    resolvable.  It ends at the first value below the floor, so a huge
    ``count`` builds no more values than the floor keeps."""
    if not 0 < eps0 < math.inf:
        raise ValidationError(f"eps0 must be finite and > 0, got {eps0!r}")
    out = list(takewhile(lambda e: e >= 1e-4,
                         (eps0 * 2.0 ** (-k) for k in range(count))))
    if len(out) < 2:
        raise ValidationError("ladder floor leaves fewer than two bandwidths")
    return out


def _box_terms(M: EmbeddedManifold, f: Callable, x0: np.ndarray,
               orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The full box's ``(w rho) f`` product and chord ``|y - x|^2``, with
    the bits of :func:`_rule_terms` and :func:`_chord_sq`, in arrays the box
    built: the product in the weights' outer product, the chord in the
    embedding columns of the box's shape that own their memory and share it
    with no node axis (a graph's ``s_i``, any axis at d = 1) or other column.
    ``f`` is multiplied in first, since a field may return such a column."""
    rule = build_full_rule(M, axis_orders=orders)
    nodes, ambient, dens = M.chart(0).jet(rule.nodes, (0,), volume=True)
    weighted = rule.weights     # built for this box alone
    weighted *= dens
    del rule, dens
    weighted *= np.asarray(f(nodes, ambient), dtype=float)
    arrays = (*nodes.columns, *ambient.columns)
    return weighted, _chord_sq(x0, ambient, frozenset(
        i for i, col in enumerate(ambient.columns)
        if col.shape == weighted.shape and col.base is None
        and col.flags.writeable
        and sum(np.may_share_memory(col, a) for a in arrays) == 1))


def _full_box_sample(M: EmbeddedManifold, f: Callable, x0: np.ndarray,
                     eps: float, orders: Sequence[int], boxes: dict
                     ) -> LadderSample:
    """The full box's sample; its error estimate compares the box with one of
    ``_compared_order(n)`` nodes on each axis of ``n``.  The box misses
    nothing, so its tail bound is 0.

    ``boxes`` maps a box's node counts to its ``(w rho) f`` product and its
    chord ``|y - x|^2`` (:func:`_box_terms`), so a sweep evaluates the
    geometry, ``f`` and the chord once per box and each bandwidth only
    applies its kernel; the sum ``((w rho) f) k`` keeps the bits of
    :func:`_rule_sum`.  Only this bandwidth's two boxes are kept: the node
    counts never fall as eps does.  A box takes at most three arrays of its
    size while it is built and keeps two; each bandwidth adds one, the
    kernel, per box in turn.
    """
    keys = [tuple(orders), tuple(_compared_order(n) for n in orders)]
    for key in set(boxes) - set(keys):
        del boxes[key]
    for key in keys:
        if key not in boxes:
            boxes[key] = _box_terms(M, f, x0, key)
    value, coarse = (
        float(np.sum(_weighted_terms(weighted,
                                     _kernel_of_chord(chord, eps, M.dim))))
        for weighted, chord in map(boxes.get, keys))
    if not (math.isfinite(value) and math.isfinite(coarse)):
        raise NumericsError(f"operator value at eps={eps:g} is not finite")
    return LadderSample(eps=eps, value=value, tail_bound=0.0,
                        quad_error=abs(value - coarse))


def _sample(M: EmbeddedManifold, f: Callable, x: ChartPoint, x0: np.ndarray,
            eps: float, order: int, metric: tuple[np.ndarray, np.ndarray],
            boxes: dict) -> LadderSample:
    """One bandwidth's sample, by the order ladder of the module docstring.

    Each order from ``HERMITE_ORDERS[1]`` on is compared with the previous
    one; axes without Hermite nodes take ``order`` nodes in the one and
    :func:`_compared_order` in the other, so the difference covers them too.
    A met order's error is its difference, an unmet ladder's the spread of
    every value it summed, and neither is below the rounding floor of
    :func:`_rule_sum`.  The full box is used where the ladder tries no
    order, or meets no target and the box's spacing resolves the kernel.
    Each order's axis rules are decided (:func:`_node_box`) before its rule
    is built, and a rule is built only to be summed.
    """
    def full_axes(hermite_order: int) -> int:
        return _node_box(M, x, eps, metric[1], hermite_order)[1].count(FULL)

    first_full = full_axes(HERMITE_ORDERS[0])
    rule, seen, met = None, [], False   # the last order tried, values summed
    for prev, n in [] if first_full == M.dim else pairwise(HERMITE_ORDERS):
        if full_axes(n) > first_full:   # a full box, or a new full axis
            break
        rule = build_localized_rule(M, x, eps, order, n, metric)
        value, floor = _rule_sum(M, f, x0, eps, rule)
        # an all-Hermite rule ignores ``order``, and its previous order's
        # rule was all-Hermite too: summed already, unless it is the first
        if not seen or any(kind != HERMITE for kind in rule.axis_rules):
            reference, _ = _rule_sum(M, f, x0, eps, build_localized_rule(
                M, x, eps, _compared_order(order), prev, metric))
        else:
            reference = seen[-1]
        error = abs(value - reference)
        seen += [reference, value]
        met = error <= max(QUAD_ERROR_TARGET * max(1.0, abs(value)), floor)
        if met:
            break
    orders = _full_box_orders(M, eps, metric[0], order)
    if rule is None or not (met or max(orders) >= max_axis_order(M.dim)):
        rule = None     # freed before the full box is built
        return _full_box_sample(M, f, x0, eps, orders, boxes)
    value, tail = apply_operator(M, f, x, eps, rule)
    return LadderSample(eps=eps, value=value, tail_bound=tail,
                        quad_error=max(error if met else float(np.ptp(seen)),
                                       floor))


def eps_sweep(M: EmbeddedManifold, f: Callable, x: ChartPoint,
              eps_list: Sequence[float], order: int = DEFAULT_ORDER,
              f_id: str = "") -> EpsLadder:
    """One operator sample per bandwidth: the first Hermite order of the
    ladder that meets the target, else the full box or the ladder's last
    rule (see the module docstring).  Full boxes of equal node counts share
    one evaluation of the geometry and ``f``; each bandwidth applies its own
    kernel."""
    eps_list = [float(eps) for eps in eps_list]
    for eps in eps_list:
        _require_bandwidth(eps)
    M.chart(x.chart).require_inside(x.coords)
    metric, x0 = _metric_diagonals(M, x), M.embed(x.chart, x.coords)
    boxes = {}
    samples = [_sample(M, f, x, x0, eps, order, metric, boxes)
               for eps in eps_list]
    return EpsLadder(samples=samples, f_id=f_id)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _require_mc_inputs(n_samples: int, seed: int) -> None:
    """Refuse a sample count outside ``MC_SAMPLES`` or a seed that is not a
    non-negative integer, before numpy sees either."""
    if not (isinstance(n_samples, (int, np.integer))
            and n_samples in MC_SAMPLES):
        raise ValidationError(
            f"need an integer {MC_SAMPLES[0]} to {MC_SAMPLES[-1]} samples, "
            f"got {n_samples!r}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValidationError(
            f"the seed must be a non-negative integer, got {seed!r}")


def _sum_columns(columns: np.ndarray) -> np.ndarray:
    """The row sums of the ``(n, d)`` array with these ``d`` columns, in
    numpy's own order: left to right for d < 8 (see :func:`k_eps`)."""
    if len(columns) < 8:
        return reduce(np.add, columns)
    return np.sum(np.ascontiguousarray(columns.T), axis=1)


def monte_carlo_operator(M: EmbeddedManifold, f: Callable, x: ChartPoint,
                         eps_list: Sequence[float], n_samples: int,
                         seed: int = 42) -> list[tuple[float, float]]:
    """Monte Carlo estimates of the kernel integral with their standard
    errors, one ``(estimate, std_error)`` per bandwidth of ``eps_list``, in
    order.

    Defensive importance sampling (Owen, *Monte Carlo theory, methods and
    examples*, 2013, ch. 9): each node is drawn uniformly on the window with
    probability ``MC_DEFENSIVE``, else from ``N(x, 2 eps g(x)^-1)``, the
    Gaussian the kernel pulls back to at ``x``, and weighted ``1 / (n q)``
    by its mixture density ``q``; the uniform share caps every weight.  The
    window is the chart box, centred on ``x`` along a periodic axis, and a
    node outside it weighs nothing.  The terms ``(w rho f) k`` come from the
    rules' evaluator; the estimate is their sum and the standard error
    ``sqrt(n)`` times their standard deviation.  The generator is
    counter-based (Philox), so a fixed seed reproduces the result exactly.

    The draws do not depend on eps, so they are made once per call: the
    standard normals ``z``, the uniform mask and the uniform nodes.  Each
    bandwidth then scales ``z`` by its own Cholesky factor, so a row is the
    value a one-bandwidth call returns, bit for bit, whichever bandwidths
    share the call; the rows of one call are correlated.  The nodes are built
    as ``d`` contiguous columns, and ``|z|^2`` is summed one column at a time.

    A bandwidth whose Gaussian width ``sigma_i = sqrt(2 eps (g^-1)_ii)`` on
    some axis is less than ``1 / MC_RESOLUTION`` times the rounding
    ``2^-52 |x_i|`` of its nodes raises :class:`NumericsError` before any
    draw: the nodes would round onto a few floats about ``x`` while their
    weights read the unrounded ``z`` (8.3 +- 1.1 for a true 1.0 on the unit
    sphere at (1.1, 2.0) and eps 1e-40).
    """
    _require_mc_inputs(n_samples, seed)
    eps_list = [float(eps) for eps in eps_list]
    for eps in eps_list:
        _require_bandwidth(eps)
    chart, x0 = M.chart(x.chart), np.asarray(x.coords, dtype=float)
    lo = np.where(chart.periodic, x0 - 0.5 * (chart.hi - chart.lo), chart.lo)
    hi = lo + (chart.hi - chart.lo)
    g = M.metric(x.chart, x0)
    ginv, rho = np.linalg.inv(g), math.sqrt(np.linalg.det(g))
    # the smallest bandwidth has the narrowest Gaussian on every axis
    sigma = np.sqrt(2.0 * min(eps_list, default=math.inf) * np.diagonal(ginv))
    if np.any(np.finfo(float).eps * np.abs(x0) > MC_RESOLUTION * sigma):
        raise NumericsError(
            f"Monte Carlo cannot resolve eps={min(eps_list):g} at {x0.tolist()}: "
            f"the Gaussian's widths {sigma.tolist()} are within "
            f"{1 / MC_RESOLUTION:g} roundings of the coordinates")
    rng = np.random.Generator(np.random.Philox(seed))
    z = rng.standard_normal((n_samples, chart.dim))
    uniform = rng.random(n_samples) < MC_DEFENSIVE
    drawn = rng.uniform(lo, hi, size=(int(uniform.sum()), chart.dim))
    offsets, z_sq = (drawn - x0).T, _sum_columns((z * z).T)
    box = MC_DEFENSIVE / float(np.prod(hi - lo))
    y0 = M.embed(x.chart, x.coords)
    out = []
    for eps in eps_list:
        chol = np.linalg.cholesky(2.0 * eps * ginv)
        columns = (z @ chol.T).T.copy()
        columns += x0[:, None]
        columns[:, uniform] = drawn.T
        # a uniform node's z, which the Gaussian's density reads
        z_u = np.linalg.solve(chol, offsets)
        sq = z_sq.copy()
        sq[uniform] = _sum_columns(z_u * z_u)
        # the Gaussian's density is rho(x) times the kernel of the metric's
        # squared distance (y - x)^T g (y - x) = 2 eps |z|^2
        sq *= 2.0 * eps
        gauss = rho * _kernel_of_chord(sq, eps, M.dim)
        density = box + (1.0 - MC_DEFENSIVE) * gauss
        inside = np.all((lo[:, None] <= columns) & (columns <= hi[:, None]),
                        axis=0)
        columns[:, ~inside] = x0[:, None]
        weighted, ambient = _rule_terms(M, f, QuadratureRule(
            TensorGrid(columns),
            np.where(inside, 1.0 / (n_samples * density), 0.0)))
        terms = _weighted_terms(weighted, k_eps(y0, ambient, eps, M.dim))
        out.append((float(np.sum(terms)),
                    math.sqrt(n_samples) * float(np.std(terms, ddof=1))))
    return out
