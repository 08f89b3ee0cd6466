"""Embedded submanifolds of Euclidean space, given by chart parametrizations.

A manifold is a single chart: an embedding of an axis-aligned box in R^d into
R^n.  Everything downstream (metric, second fundamental form,
curvature, geodesics, normal-coordinate volume density, Laplace-Beltrami
operator) is computed from the embedding map's Jacobian and Hessian: the
Christoffel symbols are ``g^{kl} <d_l X, d_i d_j X>``, the Laplacian takes the
field's exact chart derivatives from the same arrays, and the metric is never
differenced, except by ``scalar_curvature_intrinsic``, the deliberately
independent cross-check.  A chart is one exact derivative closure, which
returns the embedding, its Jacobian and its Hessian on request
(:meth:`Chart.jet`), plus a closed-form volume element ``sqrt(det g)``.

All evaluation entry points accept batched coordinates with shape ``(..., d)``
and return correspondingly batched results.  Geometry objects are immutable
after construction; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

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
_EPS = np.finfo(float).eps
_H1 = _EPS ** (1.0 / 3.0)   # step scale for first differences


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------

def _richardson(diff: Callable[[float], np.ndarray]) -> np.ndarray:
    """One Richardson step, ``(-1/3) D(h) + (4/3) D(h/2)``, for a difference
    quotient ``D(scale)`` taken at step ``scale * h``."""
    return -1.0 / 3.0 * diff(1.0) + 4.0 / 3.0 * diff(0.5)


def _central_diff(fn: Callable, coords: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Batched ``d fn / d coords`` by Richardson-extrapolated central differences.

    ``h`` holds the per-axis steps with the shape of ``coords`` ``(..., d)``;
    for ``fn`` values of shape ``(..., *S)`` the result is ``(..., *S, d)``.
    """
    cols = []
    for i in range(coords.shape[-1]):
        def diff(scale):
            hh = h[..., i] * scale
            step = np.zeros_like(coords)
            step[..., i] = hh
            delta = fn(coords + step) - fn(coords - step)
            return delta / (2.0 * hh)[(...,) + (None,) * (delta.ndim - hh.ndim)]
        cols.append(_richardson(diff))
    return np.stack(cols, axis=-1)


class Chart:
    """One parametrized patch: an embedding of a box in R^d into R^n.

    Parameters
    ----------
    derivs : callable
        ``derivs(coords, orders)`` maps coordinates ``(..., d)`` to the list of
        the embedding's derivative tensors of the requested orders, in that
        order: 0 is the embedding ``(..., n)``, 1 the Jacobian ``(..., n, d)``
        and 2 the Hessian ``(..., n, d, d)``.
    volume_element : callable
        Closed-form Riemannian volume element ``sqrt(det g)`` with shape
        ``(...,)``.
    lo, hi : sequence of float
        Axis-aligned coordinate box.
    periodic : sequence of bool
        Per-axis periodicity; periodic axes wrap modulo ``hi - lo``.
    """

    def __init__(self, derivs, volume_element, lo, hi, periodic=None):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValidationError("chart box lo/hi must be 1-d and equal length")
        if np.any(self.hi <= self.lo):
            raise ValidationError("chart box must have positive extent")
        self.dim = self.lo.size
        self.periodic = tuple(bool(p) for p in (periodic or [False] * self.dim))
        if len(self.periodic) != self.dim:
            raise ValidationError("periodic flags must match chart dimension")
        self._derivs = derivs
        self._volume_element = volume_element
        probe = np.asarray(derivs(0.5 * (self.lo + self.hi), (0,))[0], dtype=float)
        if probe.ndim != 1:
            raise ValidationError("the embedding must map a point to a 1-d vector")
        self.ambient_dim = probe.size

    # -- domain helpers -----------------------------------------------------

    def wrap(self, coords: np.ndarray) -> np.ndarray:
        coords = np.array(coords, dtype=float, copy=True)
        for i, per in enumerate(self.periodic):
            if per:
                width = self.hi[i] - self.lo[i]
                coords[..., i] = self.lo[i] + np.mod(coords[..., i] - self.lo[i],
                                                     width)
        return coords

    def contains(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        ok = np.ones(coords.shape[:-1], dtype=bool)
        for i, per in enumerate(self.periodic):
            if not per:
                ok &= (coords[..., i] >= self.lo[i]) & (coords[..., i] <= self.hi[i])
        return ok

    def require_inside(self, coords: np.ndarray):
        if not np.all(self.contains(coords)):
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
        element vanishes smoothly there.
        """
        coords = self.wrap(coords)
        self.require_inside(coords)
        out = [np.asarray(t, dtype=float)
               for t in (self._derivs(coords, orders) if orders else ())]
        if volume:
            out.append(np.asarray(self._volume_element(coords), dtype=float))
        return (coords, *out)


@dataclass(frozen=True)
class ChartPoint:
    """A point given by chart index and chart coordinates."""
    chart: int
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords",
                           np.atleast_1d(np.asarray(self.coords, dtype=float)))


def _gram(jac: np.ndarray) -> np.ndarray:
    """Metric ``J^T J`` of a batched Jacobian, refused at the determinant floor."""
    g = np.einsum("...ni,...nj->...ij", jac, jac)
    det = np.linalg.det(g)
    if np.any(det <= DET_FLOOR):
        raise DegenerateChartError(f"metric determinant {np.min(det):.3e} at "
                                   f"or below floor {DET_FLOOR:g}")
    return g


def _connection(jac: np.ndarray, hess: np.ndarray):
    """``(g^{-1}, Gamma)`` from the chart's Jacobian and Hessian arrays."""
    ginv = np.linalg.inv(_gram(jac))
    first_kind = np.einsum("...nl,...nij->...lij", jac, hess)
    return ginv, np.einsum("...kl,...lij->...kij", ginv, first_kind)


class EmbeddedManifold:
    """A d-dimensional submanifold of R^n described by a single chart.

    ``charts`` is the one-element list ``[chart]``; its index is 0.
    ``delta`` is a caller-supplied lower bound on the injectivity radius; all
    normal-coordinate constructions stay inside geodesic balls of this radius.
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

    def christoffel(self, ci: int, coords: np.ndarray) -> np.ndarray:
        """Christoffel symbols ``Gamma[..., k, i, j] = g^{kl} <d_l X, d_i d_j X>``."""
        return _connection(*self.chart(ci).jet(coords, (1, 2))[1:])[1]

    def volume(self) -> float:
        """Total volume of the chart box (cached), by order-96 tensor quadrature."""
        cached = getattr(self, "_volume_cache", None)
        if cached is not None:
            return cached
        from .operator import build_full_rule  # local import to avoid a cycle
        rule = build_full_rule(self, order=96)
        self._volume_cache = float(np.sum(rule.weights
                                          * self.sqrt_det_metric(0, rule.nodes)))
        return self._volume_cache


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
    """Scalar curvature from metric derivatives alone (no embedding normals).

    Differentiates the metric twice in chart coordinates, builds the Riemann
    tensor and contracts.  Sign convention: the unit 2-sphere returns +2.
    Serves as the intrinsic cross-check of :func:`curvature_at`.
    """
    ci, c0 = p.chart, np.asarray(p.coords, dtype=float)

    def derivative_first(fn, coords, h):
        # contiguous, so the einsums below sum in a fixed order
        return np.ascontiguousarray(np.moveaxis(_central_diff(fn, coords, h),
                                                -1, 0))

    def dmetric(coords: np.ndarray) -> np.ndarray:
        return derivative_first(lambda c: M.metric(ci, c), coords,
                                _H1 * (1.0 + np.abs(coords)))

    g = M.metric(ci, c0)
    ginv = np.linalg.inv(g)
    dg = dmetric(c0)
    d2g = derivative_first(dmetric, c0, 5e-3 * (1.0 + np.abs(c0)))
    # dg[k, i, j] = d_k g_ij; T[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    tsym = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    gamma = 0.5 * np.einsum("kl,ijl->kij", ginv, tsym)
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)
    # d2g[m, k, i, j] = d_m d_k g_ij; U[m, i, j, l] = d_m T[i, j, l]
    usym = d2g + d2g.transpose(0, 2, 1, 3) - d2g.transpose(0, 2, 3, 1)
    dgamma = (0.5 * np.einsum("mkl,ijl->mkij", dginv, tsym)
              + 0.5 * np.einsum("kl,mijl->mkij", ginv, usym))
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


def _integrate_batch(M: EmbeddedManifold, ci: int, pos: np.ndarray,
                     vel: np.ndarray, t_total: float, steps: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RK4 for the geodesic equation on a batch of initial conditions.

    Velocities keep their initial metric norm through per-step rescaling.
    Returns final positions, velocities and a boolean mask of rows that left
    the chart (integration stops for those rows at the last inside state).
    """
    chart = M.chart(ci)
    pos = np.array(pos, dtype=float)
    vel = np.array(vel, dtype=float)
    alive = np.ones(pos.shape[0], dtype=bool)
    dt = t_total / steps
    g0 = M.metric(ci, pos)
    speed0 = np.sqrt(np.einsum("bi,bij,bj->b", vel, g0, vel))
    open_axes = [i for i, per in enumerate(chart.periodic) if not per]

    def accel(p, v):
        gamma = M.christoffel(ci, p)
        return -np.einsum("bkij,bi,bj->bk", gamma, v, v)

    def near_boundary(p, v):
        """Rows whose RK stages or FD stencils could leave the open box.

        The ``1e-5 (1 + |coord|)`` term only guarded finite-difference
        stencils, which no chart uses now; it still truncates rows that
        start within it.
        """
        if not open_axes:
            return np.zeros(p.shape[0], dtype=bool)
        bad = np.zeros(p.shape[0], dtype=bool)
        for i in open_axes:
            margin = 1.5 * dt * np.abs(v[:, i]) + 1e-5 * (1.0 + np.abs(p[:, i]))
            bad |= (p[:, i] - chart.lo[i] < margin) | (chart.hi[i] - p[:, i] < margin)
        return bad

    for _ in range(steps):
        if not np.any(alive):
            break
        exiting = near_boundary(pos[alive], vel[alive])
        if np.any(exiting):
            idx = np.where(alive)[0]
            alive[idx[exiting]] = False
            if not np.any(alive):
                break
        p, v = pos[alive], vel[alive]
        k1p, k1v = v, accel(p, v)
        k2p, k2v = v + 0.5 * dt * k1v, accel(p + 0.5 * dt * k1p, v + 0.5 * dt * k1v)
        k3p, k3v = v + 0.5 * dt * k2v, accel(p + 0.5 * dt * k2p, v + 0.5 * dt * k2v)
        k4p, k4v = v + dt * k3v, accel(p + dt * k3p, v + dt * k3v)
        p_new = p + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        v_new = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        p_new = chart.wrap(p_new)
        inside = chart.contains(p_new)
        idx = np.where(alive)[0]
        if np.any(inside):
            ok = idx[inside]
            g = M.metric(ci, p_new[inside])
            speed = np.sqrt(np.einsum("bi,bij,bj->b", v_new[inside], g,
                                      v_new[inside]))
            factor = speed0[ok] / speed
            pos[ok] = p_new[inside]
            vel[ok] = v_new[inside] * factor[:, None]
        alive[idx[~inside]] = False
    return pos, vel, ~alive


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
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValidationError("geodesic direction must be a unit vector")
    if t_max <= 0:
        raise ValidationError("t_max must be positive")
    if t_max > M.delta:
        raise ValidationError(
            f"t_max {t_max} exceeds the injectivity-radius bound {M.delta}")
    ci = x.chart
    chart = M.chart(ci)
    chart.require_inside(x.coords)
    jac = M.jacobian(ci, x.coords)
    _, r = _orthonormal_frame(jac)
    sdot = np.linalg.solve(r, v)

    if record_times is None:
        base = steps if steps is not None else max(int(math.ceil(2000 * t_max)), 16)
        record_times = list(np.linspace(t_max / base, t_max, base))
        seg_steps = [1] * base
    else:
        record_times = [float(t) for t in record_times]
        if any(t <= 0 for t in record_times) or any(
                record_times[i] >= record_times[i + 1]
                for i in range(len(record_times) - 1)):
            raise ValidationError("record times must be positive and increasing")
        base_dt = t_max / steps if steps else 1.0 / 2000.0
        seg_steps = []
        prev = 0.0
        for t in record_times:
            seg_steps.append(max(int(math.ceil((t - prev) / base_dt)), 1))
            prev = t

    raw = [(np.asarray(x.coords, dtype=float), sdot, 0.0)]
    pos = np.asarray(x.coords, dtype=float)[None, :]
    vel = sdot[None, :]
    prev_t = 0.0
    truncated = False
    for t, nsteps in zip(record_times, seg_steps):
        pos, vel, dead = _integrate_batch(M, ci, pos, vel, t - prev_t, nsteps)
        if dead[0]:
            truncated = True
            break
        raw.append((pos[0].copy(), vel[0].copy(), t))
        prev_t = t

    all_coords = np.array([c for c, _, _ in raw])
    all_sdot = np.array([s for _, s, _ in raw])
    positions = M.embed(ci, all_coords)
    jacs = M.jacobian(ci, all_coords)
    velocities = np.einsum("bni,bi->bn", jacs, all_sdot)
    states = [GeodesicState(position=positions[k], velocity=velocities[k],
                            chart_position=ChartPoint(ci, all_coords[k]),
                            arc_length=raw[k][2])
              for k in range(len(raw))]
    return GeodesicPath(states=states, truncated=truncated)


def exp_map_batch(M: EmbeddedManifold, x: ChartPoint, w: np.ndarray) -> np.ndarray:
    """Ambient positions of exp_x applied to a batch of tangent vectors.

    ``w`` has shape ``(B, d)`` in frame coordinates; rows may have different
    lengths.  Integrates all rows simultaneously to parameter time 1 with
    initial chart velocity matching ``w``, at 800 RK4 steps per unit length.
    """
    w = np.asarray(w, dtype=float)
    ci = x.chart
    jac = M.jacobian(ci, x.coords)
    _, r = _orthonormal_frame(jac)
    sdot0 = np.linalg.solve(r, w.T).T
    lengths = np.linalg.norm(w, axis=1)
    steps = max(int(math.ceil(800 * float(np.max(lengths)))), 16)
    pos0 = np.broadcast_to(np.asarray(x.coords, dtype=float), w.shape).copy()
    pos, _, dead = _integrate_batch(M, ci, pos0, sdot0, 1.0, steps)
    if np.any(dead):
        raise TruncatedPathError("a geodesic in the pencil left the chart")
    return M.embed(ci, pos)


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
    if t_grid[0] <= 0 or t_grid[-1] >= M.delta:
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
                   s: float, fd_step: float = 1e-3) -> float:
    """Normal-coordinate volume density along direction ``v`` at radius ``s``.

    Differentiates the exponential map through a pencil of nearby geodesics
    (central differences in the tangent space, one Richardson step) and takes
    the Gram determinant of the resulting Jacobian.  Tends to 1 as s -> 0.
    """
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValidationError("direction must be a unit vector")
    if not 0 < s < M.delta:
        raise ValidationError(f"radius must lie in (0, delta={M.delta})")
    d = M.dim
    w0 = s * v
    offsets = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        for h in (fd_step, 0.5 * fd_step):
            offsets.append(w0 + h * e)
            offsets.append(w0 - h * e)
    points = exp_map_batch(M, x, np.array(offsets))
    points = points.reshape(d, 2, 2, M.ambient_dim)
    cols = []
    for i in range(d):
        def diff(scale):
            k = 0 if scale == 1.0 else 1
            return (points[i, k, 0] - points[i, k, 1]) / (2 * scale * fd_step)
        cols.append(_richardson(diff))
    a = np.stack(cols, axis=1)
    gram = a.T @ a
    return float(math.sqrt(np.linalg.det(gram)))
