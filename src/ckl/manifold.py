"""Embedded submanifolds of Euclidean space, given by chart parametrizations.

A manifold is a single chart: an embedding of an axis-aligned box in R^d into
R^n.  A chart is one exact derivative closure, which returns the embedding
and its derivative tensors of any requested orders (:meth:`Chart.jet`) and,
on request, the closed-form volume element ``sqrt(det g)`` from the same
evaluation.  Everything downstream (metric,
second fundamental form, curvature, geodesics, normal-coordinate volume
density, Laplace-Beltrami operator) is computed from those tensors, and
nothing is differenced: the Christoffel symbols are
``g^{kl} <d_l X, d_i d_j X>``, the Laplacian takes the field's exact chart
derivatives from the same arrays, and the third derivatives give the
Christoffel symbols' derivatives, by the product rule of that formula, to
``scalar_curvature_intrinsic``, the deliberately independent cross-check,
and to the Jacobi fields of ``volume_density``.

All evaluation entry points accept batched coordinates with shape ``(..., d)``
and return correspondingly batched results.  A :class:`TensorGrid` of shape
``(n_0, ..., n_{d-1}, d)`` is accepted in their place: its columns
``grid[..., i]`` are the axis arrays shaped to broadcast against each other,
so the chart evaluates each axis's distinct values once.  The embedding of a
grid stays a :class:`TensorGrid` of broadcast component columns; the other
results carry the grid's shape ``(n_0, ..., n_{d-1}, ...)``.  Geometry objects
are immutable after construction; every operation is a pure function of its
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    DegenerateChartError,
    DomainError,
    TruncatedPathError,
    ValidationError,
)

if TYPE_CHECKING:
    from .fields import ScalarField

DET_FLOOR = 1e-12
# points per axis of the coarse grid behind the tail bound
_COARSE_RES = 33


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------

def _stack(columns, batch: tuple[int, ...]) -> np.ndarray:
    """The dense ``(*batch, k)`` array of k columns that broadcast to ``batch``."""
    dense = np.empty(tuple(batch) + (len(columns),))
    for i, col in enumerate(columns):
        dense[..., i] = col
    return dense


class TensorGrid:
    """A batch of k-vectors of shape ``(*batch, k)`` held as k broadcast
    columns, each only as large as the axes it depends on.

    A tensor-product node set (:meth:`product`) holds axis i of d as
    ``(1, ..., n_i, ..., 1)``; the embedding :meth:`Chart.jet` returns on it
    holds each ambient component with the shape of its values, so a graph
    chart's ``s_i`` stay the node axes and only ``P(s)`` is dense.
    ``grid[..., i]`` is column i.  ``np.asarray(grid)`` stacks the dense
    array, which the quadrature path never needs.
    """

    def __init__(self, columns: Sequence, batch: tuple[int, ...] = ()):
        self.columns = tuple(np.asarray(c, dtype=float) for c in columns)
        self.shape = (np.broadcast_shapes(tuple(batch),
                                          *(c.shape for c in self.columns))
                      + (len(self.columns),))

    @classmethod
    def product(cls, axes: Sequence[np.ndarray]) -> "TensorGrid":
        """The ij-ordered tensor product of d 1-D axis arrays."""
        d = len(axes)
        return cls([np.asarray(a, dtype=float).reshape(
            [-1 if j == i else 1 for j in range(d)]) for i, a in enumerate(axes)])

    def __getitem__(self, key) -> np.ndarray:
        if not (isinstance(key, tuple) and len(key) == 2 and key[0] is Ellipsis):
            raise TypeError("a TensorGrid is indexed by column: grid[..., i]")
        return self.columns[key[1]]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a TensorGrid has no dense array to view")
        dense = _stack(self.columns, self.shape[:-1])
        return dense if dtype is None else dense.astype(dtype, copy=False)


def as_coords(coords) -> np.ndarray | TensorGrid:
    """``coords`` as a float array; a :class:`TensorGrid` passes unchanged."""
    if isinstance(coords, TensorGrid):
        return coords
    return np.asarray(coords, dtype=float)


class Chart:
    """One parametrized patch: an embedding of a box in R^d into R^n.

    Parameters
    ----------
    derivs : callable
        ``derivs(coords, orders, volume=False)`` maps coordinates
        ``(..., d)``, an array or a :class:`TensorGrid` whose columns it
        indexes, to the list of the embedding's derivatives of the requested
        orders, in that order: 0 is the embedding as its n component
        columns, each of any shape that broadcasts to ``(...)``, and an order
        k >= 1 the tensor ``(..., n, d, ..., d)`` of k derivative indices,
        symmetric in them: 1 is the Jacobian ``(..., n, d)`` and 2 the
        Hessian ``(..., n, d, d)``.  With ``volume`` the list ends with the
        closed-form volume element ``sqrt(det g)``, of shape ``(...,)`` or
        on a grid any shape that broadcasts to it, computed from the same
        evaluation as the derivatives.
    lo, hi : sequence of float
        Axis-aligned coordinate box.
    periodic : sequence of bool
        Per-axis periodicity; periodic axes wrap modulo ``hi - lo``.
    """

    def __init__(self, derivs, lo, hi, periodic=None):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValidationError("chart box lo/hi must be 1-d and equal length")
        if not self.lo.size:
            raise ValidationError("chart box needs at least one axis")
        if np.any(self.hi <= self.lo):
            raise ValidationError("chart box must have positive extent")
        self.dim = self.lo.size
        self.periodic = tuple(bool(p) for p in (periodic or [False] * self.dim))
        if len(self.periodic) != self.dim:
            raise ValidationError("periodic flags must match chart dimension")
        self._derivs = derivs
        probe = np.asarray(derivs(0.5 * (self.lo + self.hi), (0,))[0], dtype=float)
        if probe.ndim != 1:
            raise ValidationError("the embedding must map a point to a 1-d vector")
        self.ambient_dim = probe.size

    # -- domain helpers -----------------------------------------------------

    def _wrap_axis(self, i: int, col: np.ndarray) -> np.ndarray:
        if not self.periodic[i]:
            return col
        lo, width = self.lo[i], self.hi[i] - self.lo[i]
        rem = col - lo
        if not isinstance(rem, np.ndarray):     # one point
            return lo + np.mod(rem, width)
        # lo + mod(col - lo, w), where mod returns its input on 0 < r < w
        # (fmod is exact there); zeros take it, to map -0.0 to +0.0
        np.mod(rem, width, out=rem, where=~((rem > 0.0) & (rem < width)))
        rem += lo
        return rem

    def wrap(self, coords):
        """``coords`` with periodic axes mapped into the box: a copy of an
        array, or a :class:`TensorGrid` wrapped per axis."""
        if isinstance(coords, TensorGrid):
            return TensorGrid([self._wrap_axis(i, coords[..., i])
                               for i in range(self.dim)], coords.shape[:-1])
        coords = np.array(coords, dtype=float, copy=True)
        for i, per in enumerate(self.periodic):
            if per:
                coords[..., i] = self._wrap_axis(i, coords[..., i])
        return coords

    def contains(self, coords) -> np.ndarray:
        """Whether each point lies in the box on every non-periodic axis; a
        read-only array of the batch shape."""
        coords = as_coords(coords)
        ok = np.ones((1,) * (len(coords.shape) - 1), dtype=bool)
        for i, per in enumerate(self.periodic):
            if not per:
                col = coords[..., i]
                ok = ok & (col >= self.lo[i]) & (col <= self.hi[i])
        return np.broadcast_to(ok, coords.shape[:-1])

    def require_inside(self, coords: np.ndarray):
        """Raise :class:`DomainError` unless every point lies in the box on
        every non-periodic axis, checked one axis column at a time, so a
        :class:`TensorGrid` builds no mask of its batch's shape."""
        coords = as_coords(coords)
        if not all(
                np.all((coords[..., i] >= self.lo[i]) & (coords[..., i] <= self.hi[i]))
                for i, per in enumerate(self.periodic) if not per):
            raise DomainError(
                f"coordinates outside chart domain [{self.lo}, {self.hi}]")

    # -- evaluation -----------------------------------------------------------

    def jet(self, coords: np.ndarray, orders: Sequence[int] = (),
            volume: bool = False) -> tuple[np.ndarray, ...]:
        """``(wrapped coords, *tensors)``: one wrap and one box check, then the
        derivative tensors of ``orders`` and, with ``volume``, the volume
        element ``sqrt(det g)`` last.

        No determinant floor is enforced: quadrature legitimately samples
        points where a chart degenerates (sphere poles) and the volume
        element vanishes smoothly there.  On an array the embedding (order 0)
        is stacked to ``(..., n)``.  On a :class:`TensorGrid` it stays a
        :class:`TensorGrid` of its component columns, each only as large as
        the axes it depends on; the tensors of orders k >= 1 have the grid's
        shape, and a volume element that depends on fewer axes is a
        broadcast view.
        """
        coords = self.wrap(coords)
        self.require_inside(coords)
        batch = coords.shape[:-1]
        embed = TensorGrid if isinstance(coords, TensorGrid) else _stack
        values = self._derivs(coords, orders, volume) if orders or volume else []
        out = [np.asarray(t, dtype=float) if k else embed(t, batch)
               for k, t in zip(orders, values)]
        if volume:
            out.append(np.broadcast_to(np.asarray(values[-1], dtype=float), batch))
        return (coords, *out)


@dataclass(frozen=True)
class ChartPoint:
    """A point given by chart index and finite chart coordinates."""
    chart: int
    coords: np.ndarray

    def __post_init__(self):
        coords = np.atleast_1d(np.asarray(self.coords, dtype=float))
        if not np.all(np.isfinite(coords)):
            raise ValidationError(
                f"chart coordinates must be finite, got {coords.tolist()}")
        object.__setattr__(self, "coords", coords)


def _gram(jac: np.ndarray) -> np.ndarray:
    """Metric ``J^T J`` of a batched Jacobian, refused at the determinant floor."""
    g = np.einsum("...ni,...nj->...ij", jac, jac)
    det = np.linalg.det(g)
    if np.any(det <= DET_FLOOR):
        raise DegenerateChartError(f"metric determinant {np.min(det):.3e} at "
                                   f"or below floor {DET_FLOOR:g}")
    return g


def _connection(jac: np.ndarray, hess: np.ndarray,
                third: np.ndarray | None = None):
    """``(g^{-1}, Gamma)`` from the chart's Jacobian and Hessian arrays, or
    with its third derivative ``(g^{-1}, Gamma, dGamma)``, on a batch
    ``(..., n, d, ...)``.

    ``Gamma[..., k, i, j] = Gamma^k_ij = g^{kl} <X_l, X_ij>`` and
    ``dGamma[..., m, k, i, j] = d_m Gamma^k_ij``, by the product rule of the
    same formula.
    """
    ginv = np.linalg.inv(_gram(jac))
    first_kind = np.einsum("...nl,...nij->...lij", jac, hess)
    gamma = np.einsum("...kl,...lij->...kij", ginv, first_kind)
    if third is None:
        return ginv, gamma
    # d_m g^{-1} = -g^{-1} (d_m g) g^{-1}, d_m g_ab = <X_am, X_b> + <X_a, X_bm>
    half = np.einsum("...nam,...nb->...mab", hess, jac)
    dg = half + np.einsum("...mab->...mba", half)
    dginv = -np.einsum("...ka,...mab,...bl->...mkl", ginv, dg, ginv)
    # d_m <X_l, X_ij> = <X_lm, X_ij> + <X_l, X_ijm>
    dfirst = (np.einsum("...nlm,...nij->...mlij", hess, hess)
              + np.einsum("...nl,...nijm->...mlij", jac, third))
    dgamma = (np.einsum("...mkl,...lij->...mkij", dginv, first_kind)
              + np.einsum("...kl,...mlij->...mkij", ginv, dfirst))
    return ginv, gamma, dgamma


class EmbeddedManifold:
    """A d-dimensional submanifold of R^n described by a single chart.

    ``charts`` is the one-element list ``[chart]``; its index is 0.
    ``delta`` is a caller-supplied lower bound on the injectivity radius; all
    normal-coordinate constructions stay inside geodesic balls of this radius.
    ``cache`` holds what is computed once per manifold: the tail bound's
    ``"coarse_grid"`` and the ``"volume"`` read from it.
    """

    def __init__(self, charts: Sequence[Chart], delta: float,
                 catalog_id: str | None = None):
        if len(charts) != 1:
            raise ValidationError(
                f"manifold needs exactly one chart, got {len(charts)}")
        self.charts = list(charts)
        self.dim = charts[0].dim
        self.ambient_dim = charts[0].ambient_dim
        if self.dim >= self.ambient_dim:
            raise ValidationError(
                f"need d < n, got d={self.dim}, n={self.ambient_dim}")
        if not delta > 0:
            raise ValidationError("delta must be positive")
        self.delta = float(delta)
        self.catalog_id = catalog_id
        self.cache: dict = {}

    # -- chart-level batched evaluation --------------------------------------

    def chart(self, ci: int) -> Chart:
        if ci != 0:
            raise ValidationError(f"chart index {ci} out of range")
        return self.charts[0]

    def embed(self, ci: int, coords: np.ndarray) -> np.ndarray:
        return self.chart(ci).jet(coords, (0,))[1]

    def jacobian(self, ci: int, coords: np.ndarray) -> np.ndarray:
        return self.chart(ci).jet(coords, (1,))[1]

    def hessian(self, ci: int, coords: np.ndarray) -> np.ndarray:
        return self.chart(ci).jet(coords, (2,))[1]

    def metric(self, ci: int, coords: np.ndarray) -> np.ndarray:
        return _gram(self.jacobian(ci, coords))

    def sqrt_det_metric(self, ci: int, coords: np.ndarray) -> np.ndarray:
        """Volume element sqrt(det g); see :meth:`Chart.jet`."""
        return self.chart(ci).jet(coords, volume=True)[1]

    def coarse_grid(self) -> tuple[TensorGrid, TensorGrid]:
        """The tail bound's ``(grid, embedding)``, kept in ``cache``: 33 points
        per axis, spanning a periodic axis and inset by 1e-3 of the box on
        any other, where a chart may degenerate."""
        if "coarse_grid" not in self.cache:
            chart = self.chart(0)
            axes = []
            for i in range(chart.dim):
                lo_i, hi_i = chart.lo[i], chart.hi[i]
                if chart.periodic[i]:
                    axes.append(lo_i + (hi_i - lo_i) * np.arange(_COARSE_RES)
                                / _COARSE_RES)
                else:
                    inset = 1e-3 * (hi_i - lo_i)
                    axes.append(np.linspace(lo_i + inset, hi_i - inset,
                                            _COARSE_RES))
            grid = TensorGrid.product(axes)
            self.cache["coarse_grid"] = grid, self.embed(0, grid)
        return self.cache["coarse_grid"]

    def volume(self) -> float:
        """An upper figure for the total volume of the chart box, kept in
        ``cache``: the box's coordinate measure times the largest volume
        element on :meth:`coarse_grid`.  Like the tail bound's other
        coarse-grid figures it is not certified: the grid may miss the sup.
        """
        if "volume" not in self.cache:
            chart = self.chart(0)
            rho = self.sqrt_det_metric(0, self.coarse_grid()[0])
            self.cache["volume"] = (float(np.prod(chart.hi - chart.lo))
                                    * float(np.max(rho)))
        return self.cache["volume"]


# ---------------------------------------------------------------------------
# Point-level operations
# ---------------------------------------------------------------------------

def _orthonormal_frame(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt frame from Jacobian columns via sign-fixed QR.

    Returns ``(Q, R)`` with ``jac = Q R``, ``Q`` the orthonormal frame
    (columns) and ``R`` upper-triangular with positive diagonal.
    """
    q, r = np.linalg.qr(jac)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs = np.where(signs == 0.0, 1.0, signs)
    q = q * signs[..., None, :]
    r = r * signs[..., :, None]
    return q, r


@dataclass(frozen=True)
class CurvatureReport:
    """Extrinsic curvature data at a point, in an orthonormal tangent frame.

    ``sff[a, b]`` is the ambient-space vector of the second fundamental form
    on the frame pair (e_a, e_b); ``frame`` holds the frame vectors as rows.
    """
    metric: np.ndarray
    sff: np.ndarray
    mean_curvature_vector: np.ndarray
    mean_curvature_norm_sq: float
    scalar_curvature: float
    frame: np.ndarray


def _spd_metric(jac: np.ndarray, p: ChartPoint) -> np.ndarray:
    """The metric of ``jac``, refused unless symmetric positive definite."""
    g = _gram(jac)
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise DegenerateChartError(f"metric not positive definite at {p}") from None
    return g


def metric_at(M: EmbeddedManifold, p: ChartPoint) -> np.ndarray:
    """First fundamental form J^T J at ``p`` (symmetric positive definite)."""
    return _spd_metric(M.chart(p.chart).jet(p.coords, (1,))[1], p)


def curvature_at(M: EmbeddedManifold, p: ChartPoint) -> CurvatureReport:
    """Second fundamental form, mean curvature vector and scalar curvature.

    The frame is the Gram-Schmidt orthonormalization of the Jacobian columns;
    the scalar curvature comes from the Gauss identity
    ``R = d^2 |H|^2 - sum_ab |B(e_a, e_b)|^2``.
    """
    _, jac, hess = M.chart(p.chart).jet(p.coords, (1, 2))
    g = _spd_metric(jac, p)
    d = M.dim
    q, r = _orthonormal_frame(jac)
    a = np.linalg.inv(r)           # frame e_b = sum_i a[i, b] * d_i embed
    t = np.einsum("nij,ia,jb->nab", hess, a, a)
    tangential = np.einsum("nc,mc,mab->nab", q, q, t)
    sff = t - tangential
    ortho = np.max(np.abs(np.einsum("nab,nc->abc", sff, q)))
    scale = max(1.0, float(np.max(np.abs(sff))))
    if ortho > 1e-8 * scale:
        raise DegenerateChartError(
            f"second fundamental form not normal to the frame (dev {ortho:.2e})")
    hvec = np.einsum("naa->n", sff) / d
    hsq = float(hvec @ hvec)
    bsq = float(np.einsum("nab,nab->", sff, sff))
    scal = d * d * hsq - bsq
    return CurvatureReport(metric=g,
                           sff=np.moveaxis(sff, 0, -1),
                           mean_curvature_vector=hvec,
                           mean_curvature_norm_sq=hsq,
                           scalar_curvature=scal,
                           frame=q.T)


def scalar_curvature_intrinsic(M: EmbeddedManifold, p: ChartPoint) -> float:
    """Scalar curvature from the connection (no embedding normals).

    The Christoffel symbols and their first chart derivatives are exact,
    from the chart's jet to order 3 at ``p`` alone; the Ricci tensor is
    built from them and contracted.
    Sign convention: the unit 2-sphere returns +2.  Serves as the intrinsic
    cross-check of :func:`curvature_at`: it uses neither the frame nor the
    second fundamental form.
    """
    _, jac, hess, third = M.chart(p.chart).jet(p.coords, (1, 2, 3))
    ginv, gamma, dgamma = _connection(jac, hess, third)
    # Ricci: R_jk = d_i Gamma^i_jk - d_j Gamma^i_ik + G^i_im G^m_jk - G^i_jm G^m_ik
    ricci = (np.einsum("iijk->jk", dgamma)
             - np.einsum("jiik->jk", dgamma)
             + np.einsum("iim,mjk->jk", gamma, gamma)
             - np.einsum("ijm,mik->jk", gamma, gamma))
    return float(np.einsum("jk,jk->", ginv, ricci))


def ricci_frame(M: EmbeddedManifold, p: ChartPoint) -> np.ndarray:
    """Ricci tensor in the orthonormal frame of ``curvature_at``.

    Uses the Gauss identity
    ``Ric_ab = d <H, B_ab> - sum_c <B_ca, B_cb>``; valid for submanifolds of
    flat ambient space with the sign convention fixed by the unit sphere.
    """
    rep = curvature_at(M, p)
    sff = np.moveaxis(rep.sff, -1, 0)    # (n, d, d)
    d = M.dim
    hterm = d * np.einsum("n,nab->ab", rep.mean_curvature_vector, sff)
    square = np.einsum("nca,ncb->ab", sff, sff)
    return hterm - square


# ---------------------------------------------------------------------------
# Laplace-Beltrami operator
# ---------------------------------------------------------------------------

def laplace_beltrami(M: EmbeddedManifold, f: ScalarField,
                     p: ChartPoint) -> tuple[float, float]:
    """``(f(p), Lap f(p))``: the Laplace-Beltrami operator with positive
    spectrum, exactly.

    Computes ``-(g^{ij} d_i d_j f - g^{kl} Gamma^j_kl d_j f)`` in chart
    coordinates (so the flat-plane value of ``u^2 + v^2`` is -4): ``g^{-1}``
    and ``Gamma`` come from one evaluation of the chart's Jacobian and
    Hessian, and the value and chart derivatives of ``f`` from
    :meth:`ScalarField.jet` on the same arrays; nothing is differenced.
    """
    c0, emb, jac, hess = M.chart(p.chart).jet(p.coords, (0, 1, 2))
    ginv, gamma = _connection(jac, hess)
    value, grad, fhess = f.jet(c0, emb, jac, hess)
    if not all(np.all(np.isfinite(a)) for a in (value, grad, fhess)):
        raise ValidationError(
            "scalar field or its chart derivatives are not finite at the point")
    lap = -float(np.einsum("ij,ij->", ginv, fhess)
                 - np.einsum("kl,jkl,j->", ginv, gamma, grad))
    return float(value), lap


# ---------------------------------------------------------------------------
# Geodesics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicState:
    """Snapshot of a geodesic: ambient position/velocity plus chart data."""
    position: np.ndarray
    velocity: np.ndarray
    chart_position: ChartPoint
    arc_length: float


@dataclass(frozen=True)
class GeodesicPath:
    states: list[GeodesicState]
    truncated: bool

    @property
    def final(self) -> GeodesicState:
        return self.states[-1]


def _integrate(M: EmbeddedManifold, ci: int, state: Sequence[np.ndarray],
               t_total: float, steps: int) -> tuple[list[np.ndarray], bool]:
    """RK4 for the geodesic equation from one initial condition.

    ``state`` is ``(pos, vel)``, the chart position and velocity ``(1, d)``,
    or ``(pos, vel, V, W)`` to carry along the geodesic the Jacobi fields
    ``V`` and their derivatives ``W``, ``(1, d, k)``, through the same RK4
    stages: ``W' = -dGamma(V; v, v) - 2 Gamma(v, W)``, the geodesic equation
    linearized in chart coordinates, with ``dGamma`` from the chart's order-3
    jet.  The velocity keeps its initial metric norm through per-step
    rescaling, and ``W`` is rescaled with it.  Returns ``(state,
    left_chart)``: when the path leaves the chart, integration stops at the
    last inside state.  No RK stage is evaluated outside the chart box.
    """
    chart = M.chart(ci)
    state = [np.array(a, dtype=float) for a in state]
    orders = (1, 2, 3) if len(state) == 4 else (1, 2)
    dt = t_total / steps
    speed0 = np.sqrt(np.einsum("bi,bij,bj->b", state[1],
                               M.metric(ci, state[0]), state[1]))
    # the box, unbounded along periodic axes
    box_lo = np.where(chart.periodic, -np.inf, chart.lo)
    box_hi = np.where(chart.periodic, np.inf, chart.hi)

    def rates(stage):
        """The state's derivative at an RK stage, evaluated at the nearest
        box point: a path moving away from an edge can still bend out
        across it within one step."""
        p, v, *jacobi = stage
        _, gamma, *dgamma = _connection(
            *chart.jet(np.clip(p, box_lo, box_hi), orders)[1:])
        accel = -np.einsum("bkij,bi,bj->bk", gamma, v, v)
        if not jacobi:
            return v, accel
        V, W = jacobi
        return (v, accel, W,
                -np.einsum("bmkij,bmc,bi,bj->bkc", dgamma[0], V, v, v)
                - 2.0 * np.einsum("bkij,bi,bjc->bkc", gamma, v, W))

    for _ in range(steps):
        pos, vel = state[:2]
        # within 1.5 dt |v_i| of the edge that some axis i moves toward, the
        # next step would leave the box
        gap = np.where(vel < 0, pos - box_lo, box_hi - pos)
        if np.any(gap < 1.5 * dt * np.abs(vel)):
            return state, True
        ks = [rates(state)]
        escaped = False
        for h in (0.5 * dt, 0.5 * dt, dt):
            stage = [a + h * k for a, k in zip(state, ks[-1])]
            escaped |= bool(np.any((stage[0] < box_lo) | (stage[0] > box_hi)))
            ks.append(rates(stage))
        y = [a + dt / 6.0 * (r1 + 2 * r2 + 2 * r3 + r4)
             for a, r1, r2, r3, r4 in zip(state, *ks)]
        y[0] = chart.wrap(y[0])
        if escaped or not np.all(chart.contains(y[0])):
            return state, True
        speed = np.sqrt(np.einsum("bi,bij,bj->b", y[1], M.metric(ci, y[0]), y[1]))
        factor = speed0 / speed
        y[1] = y[1] * factor[:, None]
        if len(y) == 4:
            y[3] = y[3] * factor[:, None, None]
        state = y
    return state, False


def _start(M: EmbeddedManifold, x: ChartPoint, v) -> tuple[np.ndarray, np.ndarray]:
    """``(sdot, R)``: the chart velocity of the unit direction ``v``, given in
    the Gram-Schmidt frame at ``x``, and that frame's triangular factor."""
    v = np.asarray(v, dtype=float)
    if v.shape != (M.dim,) or not abs(np.linalg.norm(v) - 1.0) <= 1e-8:
        raise ValidationError(
            f"direction must be a unit vector of length {M.dim}")
    _, r = _orthonormal_frame(M.jacobian(x.chart, x.coords))
    return np.linalg.solve(r, v), r


def geodesic_shoot(M: EmbeddedManifold, x: ChartPoint, v: np.ndarray,
                   t_max: float, steps: int | None = None,
                   record_times: Sequence[float] | None = None) -> GeodesicPath:
    """Integrate the geodesic from ``x`` with unit direction ``v``.

    ``v`` is given in the orthonormal-frame coordinates produced by the
    Gram-Schmidt frame at ``x`` (so ``|v| = 1``).  Classical RK4 with a fixed
    step (default 2000 steps per unit arc length) and per-step velocity
    renormalization.  If the path leaves the chart the result is truncated
    and flagged.
    """
    if not 0 < t_max <= M.delta:
        raise ValidationError(f"t_max must lie in (0, delta={M.delta}], "
                              f"got {t_max}")
    if steps is not None and not (isinstance(steps, (int, np.integer))
                                  and steps >= 1):
        raise ValidationError(f"steps must be an integer >= 1, got {steps}")
    sdot, _ = _start(M, x, v)

    if record_times is None:
        base = steps if steps is not None else max(int(math.ceil(2000 * t_max)), 16)
        record_times = list(np.linspace(t_max / base, t_max, base))
        seg_steps = [1] * base
    else:
        record_times = [float(t) for t in record_times]
        if not all(a < b <= t_max and b < math.inf
                   for a, b in zip([0.0, *record_times], record_times)):
            raise ValidationError(
                "record times must be finite, positive, increasing and at "
                f"most t_max={t_max}")
        base_dt = t_max / steps if steps else 1.0 / 2000.0
        seg_steps = []
        prev = 0.0
        for t in record_times:
            # a quotient above an integer by no more than its rounding
            # takes that integer's steps
            quotient = (t - prev) / base_dt * (1.0 - 4.0 * np.finfo(float).eps)
            seg_steps.append(max(int(math.ceil(quotient)), 1))
            prev = t

    ci = x.chart
    raw = [(np.asarray(x.coords, dtype=float), sdot, 0.0)]
    pos = np.asarray(x.coords, dtype=float)[None, :]
    vel = sdot[None, :]
    prev_t = 0.0
    truncated = False
    for t, nsteps in zip(record_times, seg_steps):
        (pos, vel), truncated = _integrate(M, ci, (pos, vel), t - prev_t, nsteps)
        if truncated:
            break
        raw.append((pos[0].copy(), vel[0].copy(), t))
        prev_t = t

    all_coords = np.array([c for c, _, _ in raw])
    all_sdot = np.array([s for _, s, _ in raw])
    _, positions, jacs = M.chart(ci).jet(all_coords, (0, 1))
    velocities = np.einsum("bni,bi->bn", jacs, all_sdot)
    states = [GeodesicState(position=positions[k], velocity=velocities[k],
                            chart_position=ChartPoint(ci, all_coords[k]),
                            arc_length=raw[k][2])
              for k in range(len(raw))]
    return GeodesicPath(states=states, truncated=truncated)


# ---------------------------------------------------------------------------
# Chord expansion and volume density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChordExpansion:
    """Fitted Taylor data of the squared chord length along a geodesic."""
    g2: float
    g4: float
    residual_exponent: float


def chord_expansion_check(M: EmbeddedManifold, x: ChartPoint, v: np.ndarray,
                          t_grid: Sequence[float]) -> ChordExpansion:
    """Fit ``g2 t^2/2! + g4 t^4/4!`` to the squared chord along a geodesic.

    The expected values are ``g2 = 2`` and ``g4 = -2 |B(v, v)|^2``.  Fifth and
    sixth order guard terms are carried in the fit so the quartic coefficient
    stays unbiased on practical grids; the reported residual exponent is the
    log-log slope of the data minus the fitted t^2 and t^4 parts alone.
    """
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    if t_grid.size < 6:
        raise ValidationError("need at least 6 grid times")
    if not np.all((t_grid > 0) & (t_grid < M.delta)):
        raise ValidationError("t_grid must lie in (0, delta)")
    path = geodesic_shoot(M, x, v, float(t_grid[-1]), record_times=t_grid)
    if path.truncated:
        raise TruncatedPathError("geodesic left the chart inside the grid")
    x0 = M.embed(x.chart, x.coords)
    gvals = np.array([float(np.sum((s.position - x0) ** 2))
                      for s in path.states[1:]])
    design = np.stack([t_grid ** 2 / 2.0, t_grid ** 4 / 24.0,
                       t_grid ** 5 / 120.0, t_grid ** 6 / 720.0], axis=1)
    scale = 1.0 / t_grid ** 2
    coef, *_ = np.linalg.lstsq(design * scale[:, None], gvals * scale, rcond=None)
    resid = gvals - design[:, 0] * coef[0] - design[:, 1] * coef[1]
    mask = np.abs(resid) > 1e-14
    if np.count_nonzero(mask) >= 3:
        slope = np.polyfit(np.log(t_grid[mask]), np.log(np.abs(resid[mask])), 1)[0]
    else:
        slope = float("inf")
    return ChordExpansion(g2=float(coef[0]), g4=float(coef[1]),
                          residual_exponent=float(slope))


def volume_density(M: EmbeddedManifold, x: ChartPoint, v: np.ndarray,
                   s: float) -> float:
    """Normal-coordinate volume density along direction ``v`` at radius ``s``.

    Integrates, with the unit-speed geodesic from ``x`` along ``v`` and in its
    RK4 stages, the d Jacobi fields ``Y_i`` with ``Y_i(0) = 0`` and ``Y_i'(0)``
    the orthonormal frame vector ``e_i``; the differential of ``exp_x`` at
    ``s v`` maps ``e_i`` to ``Y_i(s) / s``, and the density is the square root
    of the Gram determinant of those images (Gray 1973).  Tends to 1 as
    s -> 0.
    """
    if not 0 < s < M.delta:
        raise ValidationError(f"radius must lie in (0, delta={M.delta})")
    d, ci = M.dim, x.chart
    sdot, r = _start(M, x, v)
    state = (np.asarray(x.coords, dtype=float)[None, :], sdot[None, :],
             np.zeros((1, d, d)), np.linalg.inv(r)[None])
    steps = max(int(math.ceil(800 * s)), 16)
    (pos, _, jacobi, _), left_chart = _integrate(M, ci, state, s, steps)
    if left_chart:
        raise TruncatedPathError("the geodesic left the chart")
    images = M.jacobian(ci, pos)[0] @ jacobi[0]
    return float(math.sqrt(np.linalg.det(images.T @ images))) / s ** d
