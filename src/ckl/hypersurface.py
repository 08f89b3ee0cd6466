"""Hypersurface analysis: shape operator, principal curvatures, equicurvature.

For codimension-one submanifolds the second fundamental form reduces to a
scalar bilinear form against the unit normal; its eigenvalues relative to the
metric are the principal curvatures.  A point is equicurved when
``e1(kappa)^2 = 4 e2(kappa)``, equivalently ``d^2 H^2 = 2 R``; at such points
the bandwidth slope of ``f - K_eps f`` reproduces the Laplace-Beltrami
operator.  Scans evaluate the residual ``e1^2 - 4 e2`` over a grid on the
chart box, refine sign changes and sub-threshold dips along grid edges by
bisection, and cluster the refined points by ambient position.

Scan points are classified over whole arrays: ``flat`` when ``max |kappa_i|
<= tol_umb``; ``umbilic`` when flat or ``kappa_1 - kappa_d <= tol_umb``;
``equicurved`` when flat or ``|e1^2 - 4 e2| <= tol_eq``, or when d = 2 and
umbilic.  The label is the first of these that holds, else ``generic``; a row
of NaNs is generic with no flags and stays out of the zero set.  ``tol_umb``
is ``1e-6 (1 + max |kappa_i|)`` and ``tol_eq`` defaults to ``1e-6 (1 +
e1^2)``; both scale with the curvature magnitudes and are engineering
choices, not intrinsic definitions.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericsError, ValidationError
from .fields import ScalarField
from .manifold import (
    ChartPoint,
    EmbeddedManifold,
    _gram,
    _orthonormal_frame,
    laplace_beltrami,
)
from .operator import EpsLadder

EIGEN_RESIDUAL_LIMIT = 1e-10
_BOUNDARY_INSET = 1e-4


# ---------------------------------------------------------------------------
# Shape operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeData:
    """Normal, principal curvatures (descending) and derived symmetric means."""
    dim: int
    normal: np.ndarray
    principal_curvatures: np.ndarray
    principal_directions: np.ndarray     # rows are ambient unit vectors
    e1: float
    e2: float

    def __post_init__(self):
        k = self.principal_curvatures
        if np.any(np.diff(k) > 1e-12 * (1.0 + np.max(np.abs(k)))):
            raise ValidationError("principal curvatures must be sorted descending")


def _require_hypersurface(M: EmbeddedManifold):
    if M.ambient_dim != M.dim + 1:
        raise ValidationError(
            f"hypersurface analysis needs n = d + 1, got d={M.dim}, "
            f"n={M.ambient_dim}")


def _unit_normals(jac: np.ndarray) -> np.ndarray:
    """Unit normals with orientation fixed by det([J | nu]) > 0 (batched)."""
    q, _ = np.linalg.qr(np.asarray(jac))
    n = jac.shape[-2]
    full, _ = np.linalg.qr(
        np.concatenate([q, np.broadcast_to(np.eye(n), q.shape[:-2] + (n, n))],
                       axis=-1)[..., : n])
    normal = full[..., -1]
    signs = np.sign(np.linalg.det(np.concatenate(
        [jac, normal[..., None]], axis=-1)))
    signs = np.where(signs == 0.0, 1.0, signs)
    return normal * signs[..., None]


def _shape_arrays(M: EmbeddedManifold, ci: int, coords: np.ndarray,
                  orientation: float = 1.0):
    """Batched ``(normal, kappas, directions, jacobian, b)`` at coords (..., d)."""
    jac = M.jacobian(ci, coords)
    hess = M.hessian(ci, coords)
    g = _gram(jac)
    normal = orientation * _unit_normals(jac)
    b = np.einsum("...nij,...n->...ij", hess, normal)
    chol = np.linalg.cholesky(g)
    tmp = np.linalg.solve(chol, b)
    a_mat = np.linalg.solve(chol, np.swapaxes(tmp, -1, -2))
    a_mat = 0.5 * (a_mat + np.swapaxes(a_mat, -1, -2))
    eigvals, eigvecs = np.linalg.eigh(a_mat)
    # descending order
    eigvals = eigvals[..., ::-1]
    eigvecs = eigvecs[..., ::-1]
    w = np.linalg.solve(np.swapaxes(chol, -1, -2), eigvecs)
    directions = np.einsum("...ni,...ik->...kn", jac, w)
    return normal, eigvals, directions, jac, b


def shape_at(M: EmbeddedManifold, p: ChartPoint,
             orientation: float = 1.0) -> ShapeData:
    """Shape-operator eigendata at one point.

    Solves the generalized symmetric problem ``b w = kappa g w`` with
    ``b_ij = <dd embed, nu>`` through a Cholesky reduction of the metric.  The
    chart normal is the cross-product generalization of the Jacobian columns
    (``det([J | nu]) > 0``); pass ``orientation=-1`` to flip it.  With this
    convention the outward-oriented unit sphere has curvatures -1.
    """
    _require_hypersurface(M)
    M.chart(p.chart).require_inside(p.coords)
    normal, kappas, directions, jac, b = _shape_arrays(
        M, p.chart, np.asarray(p.coords, dtype=float), orientation)
    # eigen residual check: |b w - kappa g w| <= 1e-10 |b|
    g = np.einsum("ni,nk->ik", jac, jac)
    w_chart = np.linalg.solve(g, np.einsum("ni,kn->ik", jac, directions))
    scale = max(float(np.max(np.abs(b))), 1e-30)
    for i in range(M.dim):
        resid = b @ w_chart[:, i] - kappas[i] * (g @ w_chart[:, i])
        if np.linalg.norm(resid) > EIGEN_RESIDUAL_LIMIT * scale:
            raise NumericsError(
                f"eigen residual {np.linalg.norm(resid):.2e} above limit")
    e1 = float(np.sum(kappas))
    e2 = _elementary_symmetric(kappas, 2)
    return ShapeData(dim=M.dim, normal=normal,
                     principal_curvatures=kappas,
                     principal_directions=directions,
                     e1=e1, e2=e2)


def synthetic_shape(kappas: Sequence[float]) -> ShapeData:
    """ShapeData from a bare curvature vector (for predicate checks)."""
    k = np.sort(np.asarray(kappas, dtype=float))[::-1]
    d = k.size
    directions = np.eye(d + 1)[:d]
    normal = np.eye(d + 1)[d]
    return ShapeData(dim=d, normal=normal, principal_curvatures=k,
                     principal_directions=directions,
                     e1=float(np.sum(k)), e2=_elementary_symmetric(k, 2))


def _elementary_symmetric(kappas: np.ndarray, i: int) -> float:
    """e_i by the direct product recursion (no Newton identities)."""
    e = np.zeros(i + 1)
    e[0] = 1.0
    for k in kappas:
        for j in range(min(i, 1 + int(np.count_nonzero(e[1:] != 0.0))), 0, -1):
            e[j] = e[j] + k * e[j - 1]
    return float(e[i])


def mean_curvatures(sd: ShapeData, i: int) -> float:
    """i-th symmetric curvature mean H_i = e_i(kappa) / C(d, i)."""
    if not 1 <= i <= sd.dim:
        raise ValidationError(f"i must lie in [1, {sd.dim}], got {i}")
    return _elementary_symmetric(sd.principal_curvatures, i) / math.comb(sd.dim, i)


def equicurvature_residual(sd: ShapeData) -> float:
    """The residual e1^2 - 4 e2 (equals (kappa_1 - kappa_2)^2 when d = 2).

    Invariant under a normal flip, and equal to d^2 H^2 - 2 R.
    """
    return sd.e1 ** 2 - 4.0 * sd.e2


# ---------------------------------------------------------------------------
# Classification and scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquicurvatureResult:
    point: ChartPoint
    kappas: np.ndarray
    e1: float
    e2: float
    residual: float
    umbilic_spread: float
    classification: str
    flags: tuple[str, ...]


_FLAG_BITS = (("flat", 4), ("umbilic", 2), ("equicurved", 1))
_FLAG_SETS = [tuple(name for name, bit in _FLAG_BITS if code & bit)
              for code in range(8)]
# (label, flags) indexed by the code flat*4 + umbilic*2 + equicurved
_CLASS_TABLE = tuple((flags[0] if flags else "generic", flags)
                     for flags in _FLAG_SETS)


def _classify_arrays(kappas, residual, spread, tol_eq, tol_umb):
    """Labels and flags for rows of ``kappas`` (N, d) and their (N,) data."""
    flat = np.max(np.abs(kappas), axis=-1) <= tol_umb
    umbilic = flat | (spread <= tol_umb)
    equicurved = flat | (np.abs(residual) <= tol_eq)
    if kappas.shape[-1] == 2:
        equicurved |= umbilic
    codes = (4 * flat + 2 * umbilic + equicurved).tolist()
    entries = [_CLASS_TABLE[c] for c in codes]
    return [e[0] for e in entries], [e[1] for e in entries]


@dataclass(frozen=True)
class ScanResult:
    """Grid scan output: raw grid rows plus refined near-zero locations.

    ``zero_set`` is the sub-list of grid results whose residual passes the
    threshold; ``refined_zeros`` holds bisection-refined and ambient-clustered
    representatives of the near-zero locus (coordinates may sit on the chart
    boundary when the locus runs into it).
    """
    grid_shape: tuple[int, ...]
    coords: np.ndarray
    kappas: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    residual: np.ndarray
    umbilic_spread: np.ndarray
    classification: list[str]
    flags: list[tuple[str, ...]]
    zero_set: list[EquicurvatureResult]
    refined_zeros: list[EquicurvatureResult]

    def result_at(self, idx: int) -> EquicurvatureResult:
        return EquicurvatureResult(
            point=ChartPoint(0, self.coords[idx]),
            kappas=self.kappas[idx], e1=float(self.e1[idx]),
            e2=float(self.e2[idx]), residual=float(self.residual[idx]),
            umbilic_spread=float(self.umbilic_spread[idx]),
            classification=self.classification[idx], flags=self.flags[idx])


def _grid_axes(chart, counts: Sequence[int]) -> list[np.ndarray]:
    axes = []
    for i, n in enumerate(counts):
        if n < 2:
            raise ValidationError("grid needs at least 2 cells per axis")
        lo_i, hi_i = chart.lo[i], chart.hi[i]
        if chart.periodic[i]:
            axes.append(lo_i + (hi_i - lo_i) * np.arange(n) / n)
        else:
            inset = _BOUNDARY_INSET * (hi_i - lo_i)
            axes.append(np.linspace(lo_i + inset, hi_i - inset, n + 1))
    return axes


def _thread_count(value: str | None) -> int:
    """Scan threads from a CKL_THREADS value, clamped to [1, cpu count]."""
    try:
        threads = int(value or 1)
    except ValueError:
        raise ValidationError(
            f"CKL_THREADS must be an integer, got {value!r}") from None
    return min(max(threads, 1), os.cpu_count() or 1)


def _tolerances(e1, kappas, tol_eq):
    tol_eq_arr = tol_eq if tol_eq is not None else 1e-6 * (1.0 + e1 ** 2)
    tol_umb_arr = 1e-6 * (1.0 + np.max(np.abs(kappas), axis=-1))
    return tol_eq_arr * np.ones_like(e1), tol_umb_arr


def scan_equicurved(M: EmbeddedManifold, grid: Sequence[int],
                    tol_eq: float | None = None, refine: bool = True
                    ) -> ScanResult:
    """Residual scan over a grid on the chart box, with edge refinement.

    ``grid`` gives cells per axis: non-periodic axes get ``n + 1`` nodes
    (inset slightly from the box edge so degenerate chart boundaries stay
    evaluable; symmetric boxes keep their center on the grid), periodic axes
    get ``n`` nodes.  CKL_THREADS sets the thread count, clamped to
    [1, cpu count]; chunk results are reassembled in grid order either way.
    """
    _require_hypersurface(M)
    grid = [int(g) for g in grid]
    if len(grid) != M.dim:
        raise ValidationError(f"grid needs {M.dim} axis counts, got {len(grid)}")
    axes = _grid_axes(M.chart(0), grid)
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    grid_shape = tuple(len(a) for a in axes)

    errors = np.geterr()    # worker threads start from numpy's defaults

    def eval_chunk(chunk):
        with np.errstate(**errors):
            return _shape_arrays(M, 0, chunk)[1]

    threads = _thread_count(os.environ.get("CKL_THREADS"))
    if threads > 1 and coords.shape[0] > 4 * threads:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(eval_chunk, np.array_split(coords, threads)))
    else:
        parts = [eval_chunk(coords)]
    kappas = np.concatenate(parts, axis=0)

    e1 = np.sum(kappas, axis=-1)
    sq = np.sum(kappas ** 2, axis=-1)
    e2 = 0.5 * (e1 ** 2 - sq)
    residual = e1 ** 2 - 4.0 * e2
    spread = kappas[..., 0] - kappas[..., -1]
    tol_eq_arr, tol_umb_arr = _tolerances(e1, kappas, tol_eq)

    classification, flags = _classify_arrays(kappas, residual, spread,
                                             tol_eq_arr, tol_umb_arr)

    result = ScanResult(
        grid_shape=grid_shape, coords=coords, kappas=kappas, e1=e1, e2=e2,
        residual=residual, umbilic_spread=spread,
        classification=classification, flags=flags, zero_set=[],
        refined_zeros=[])
    in_zero = np.abs(residual) <= tol_eq_arr
    result.zero_set.extend(result.result_at(i) for i in np.where(in_zero)[0])
    if refine:
        result.refined_zeros.extend(
            _refine_zeros(M, grid_shape, coords, residual, tol_eq_arr, tol_eq))
    return result


def _residuals_at(M, coords):
    kappas = _shape_arrays(M, 0, np.asarray(coords))[1]
    e1 = np.sum(kappas, axis=-1)
    sq = np.sum(kappas ** 2, axis=-1)
    return e1 ** 2 - 4.0 * (0.5 * (e1 ** 2 - sq)), kappas


def _refine_zeros(M, shape, coords, residual, tol_arr, tol_eq):
    """One bisection pass along grid edges that cross or dip below threshold."""
    refined_pts: list[tuple[np.ndarray, bool]] = []
    res = residual.reshape(shape)
    tol = tol_arr.reshape(shape)
    pts = coords.reshape(shape + (len(shape),))
    d = len(shape)
    for axis in range(d):
        lead = [slice(None)] * d
        trail = [slice(None)] * d
        lead[axis] = slice(0, -1)
        trail[axis] = slice(1, None)
        ra, rb = res[tuple(lead)], res[tuple(trail)]
        pa, pb = pts[tuple(lead)], pts[tuple(trail)]
        sign_change = (ra * rb) < 0.0
        below = (np.abs(ra) <= tol[tuple(lead)]) \
            | (np.abs(rb) <= tol[tuple(trail)])
        crossing = sign_change & ~below
        if np.any(crossing):
            a = pa[crossing].reshape(-1, d)
            b = pb[crossing].reshape(-1, d)
            fa = ra[crossing].reshape(-1)
            for _ in range(45):
                mid = 0.5 * (a + b)
                fm, _ = _residuals_at(M, mid)
                went_left = (fa * fm) <= 0.0
                b = np.where(went_left[:, None], mid, b)
                a = np.where(went_left[:, None], a, mid)
                fa = np.where(went_left, fa, fm)
            refined_pts.extend((row, False) for row in 0.5 * (a + b))
        # sub-threshold dips: walk the minimum along this axis, out to the
        # domain boundary when the chart allows and the dip sits at the
        # first or last grid node
        if np.any(below):
            idxs = np.argwhere(below)
            picked = set()
            for idx in idxs:
                node = tuple(idx)
                key = node[:axis] + node[axis + 1:]
                if key in picked:
                    continue
                picked.add(key)
                line_sel = list(node)
                line_sel[axis] = slice(None)
                line_res = res[tuple(line_sel)]
                line_pts = pts[tuple(line_sel)]
                j = int(np.argmin(np.abs(line_res)))
                refined_pts.append(
                    _refine_on_line(M, axis, line_pts, j))
    return _cluster_refined(M, refined_pts, tol_eq)


def _refine_on_line(M, axis, line_pts, j):
    """Golden-section minimization of |residual| along one grid line.

    Returns ``(coords, snapped)``.  When the residual plateaus at rounding
    level all the way into a chart boundary, minimization cannot localize the
    zero; the boundary point itself is reported (snapped) in that case.
    """
    chart = M.chart(0)
    lo_pt = line_pts[max(j - 1, 0)].copy()
    hi_pt = line_pts[min(j + 1, line_pts.shape[0] - 1)].copy()
    # when the dip touches the first/last node, extend toward the domain edge
    snap_lo = snap_hi = None
    if not chart.periodic[axis]:
        if j == 0:
            lo_pt[axis] = chart.lo[axis] + _eval_floor(M, axis, lo_pt,
                                                       at_low=True)
            snap_lo = chart.lo[axis]
        if j == line_pts.shape[0] - 1:
            hi_pt[axis] = chart.hi[axis] - _eval_floor(M, axis, hi_pt,
                                                       at_low=False)
            snap_hi = chart.hi[axis]
    a, b = lo_pt[axis], hi_pt[axis]
    base = lo_pt.copy()

    def res_at(t):
        q = base.copy()
        q[axis] = t
        r, kap = _residuals_at(M, q[None, :])
        e1 = float(np.sum(kap[0]))
        return abs(float(r[0])), 1e-12 * (1.0 + e1 * e1)

    def f(t):
        return res_at(t)[0]

    # residual already at rounding level against the boundary: snap outright
    if snap_lo is not None:
        val, noise = res_at(lo_pt[axis])
        if val <= 10.0 * noise:
            out = base.copy()
            out[axis] = snap_lo
            return out, True
    if snap_hi is not None:
        val, noise = res_at(hi_pt[axis])
        if val <= 10.0 * noise:
            out = base.copy()
            out[axis] = snap_hi
            return out, True

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    dpt = a + phi * (b - a)
    fc, fd = f(c), f(dpt)
    for _ in range(60):
        if fc < fd:
            b, dpt, fd = dpt, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, dpt, fd
            dpt = a + phi * (b - a)
            fd = f(dpt)
        if abs(b - a) < 1e-9 * (1.0 + abs(a)):
            break
    t_best = 0.5 * (a + b)
    out = base.copy()
    out[axis] = t_best
    # monotone descent into a degenerate boundary: report the boundary itself
    if snap_lo is not None and t_best <= lo_pt[axis] + 1e-6:
        out[axis] = snap_lo
        return out, True
    if snap_hi is not None and t_best >= hi_pt[axis] - 1e-6:
        out[axis] = snap_hi
        return out, True
    return out, False


def _eval_floor(M, axis, probe, at_low):
    """Smallest offset from the boundary where the metric stays invertible."""
    chart = M.chart(0)
    width = chart.hi[axis] - chart.lo[axis]
    for frac in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
        q = probe.copy()
        q[axis] = (chart.lo[axis] + frac * width if at_low
                   else chart.hi[axis] - frac * width)
        try:
            M.metric(0, q)
            return frac * width
        except Exception:
            continue
    return 1e-2 * width


def _cluster_refined(M, refined_pts, tol_eq):
    """Cluster refined points by ambient distance; keep best residual each.

    Within the rounding-noise band of the best residual, boundary-snapped
    candidates win (they carry the exact boundary coordinate); remaining ties
    break lexicographically for determinism.
    """
    if not refined_pts:
        return []
    chart = M.chart(0)
    clipped = np.clip(np.array([r[0] for r in refined_pts]), chart.lo, chart.hi)
    ambient = M.embed(0, clipped)
    inset = clipped.copy()
    for i in range(chart.dim):
        if chart.periodic[i]:
            continue
        width = chart.hi[i] - chart.lo[i]
        near_lo = inset[:, i] - chart.lo[i] < 1e-2 * width
        near_hi = chart.hi[i] - inset[:, i] < 1e-2 * width
        for row in np.where(near_lo | near_hi)[0]:
            floor = _eval_floor(M, i, inset[row], at_low=bool(near_lo[row]))
            inset[row, i] = np.clip(inset[row, i], chart.lo[i] + floor,
                                    chart.hi[i] - floor)
    res, kappas = _residuals_at(M, inset)
    entries = [(clipped[r], ambient[r], float(res[r]), kappas[r],
                refined_pts[r][1]) for r in range(clipped.shape[0])]
    scale = max(np.max(np.abs(e[1])) for e in entries) + 1e-12
    radius = 1e-3 * scale
    clusters: list[list] = []
    reps: list[np.ndarray] = []
    for entry in entries:
        if reps:
            dists = np.linalg.norm(np.array(reps) - entry[1], axis=1)
            hit = int(np.argmin(dists))
            if dists[hit] <= radius:
                clusters[hit].append(entry)
                continue
        clusters.append([entry])
        reps.append(entry[1])
    out = []
    for cluster in clusters:
        best_res = min(abs(e[2]) for e in cluster)

        def sort_key(e):
            e1_val = float(np.sum(e[3]))
            noise = 1e-10 * (1.0 + e1_val * e1_val)
            return (max(abs(e[2]) - max(best_res, noise), 0.0),
                    0 if e[4] else 1, tuple(e[0]))

        coord, _, res, kappas, _ = min(cluster, key=sort_key)
        e1 = float(np.sum(kappas))
        e2 = _elementary_symmetric(kappas, 2)
        spread = float(kappas[0] - kappas[-1])
        te, tu = _tolerances(np.atleast_1d(e1), kappas[None, :], tol_eq)
        (label,), (fl,) = _classify_arrays(kappas[None, :], np.array([res]),
                                           np.array([spread]), te, tu)
        out.append(EquicurvatureResult(
            point=ChartPoint(0, coord), kappas=kappas, e1=e1, e2=e2,
            residual=res, umbilic_spread=spread, classification=label,
            flags=fl))
    out.sort(key=lambda r: tuple(r.point.coords))
    return out


# ---------------------------------------------------------------------------
# Proposition checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropositionCheck:
    name: str
    premises_hold: bool
    status: str          # holds | not_applicable | violated


@dataclass(frozen=True)
class PropositionReport:
    checks: tuple[PropositionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "violated" for c in self.checks)


def check_propositions(sd: ShapeData, tol: float = 1e-8) -> PropositionReport:
    """Exercise the vanishing-curvature implications on one curvature vector.

    (i) equicurved and minimal implies all curvatures vanish;
    (ii) equicurved and scalar-flat implies the same;
    (iii) for d >= 3, equicurved and umbilic implies the same.
    Implications whose premises fail are reported as not applicable.
    """
    k = sd.principal_curvatures
    kmax = float(np.max(np.abs(k))) if k.size else 0.0
    residual = equicurvature_residual(sd)
    equicurved = abs(residual) <= tol * (1.0 + sd.e1 ** 2)
    minimal = abs(sd.e1) <= tol * (1.0 + kmax)
    scalar_flat = abs(sd.e2) <= tol * (1.0 + kmax ** 2)
    umbilic = float(k[0] - k[-1]) <= tol * (1.0 + kmax)
    all_zero = kmax <= math.sqrt(tol) * (1.0 + kmax)

    def verdict(premises: bool) -> str:
        if not premises:
            return "not_applicable"
        return "holds" if all_zero else "violated"

    checks = (
        PropositionCheck("equicurved+minimal->flat", equicurved and minimal,
                         verdict(equicurved and minimal)),
        PropositionCheck("equicurved+scalar_flat->flat",
                         equicurved and scalar_flat,
                         verdict(equicurved and scalar_flat)),
        PropositionCheck("equicurved+umbilic->flat (d>=3)",
                         sd.dim >= 3 and equicurved and umbilic,
                         verdict(sd.dim >= 3 and equicurved and umbilic)),
    )
    return PropositionReport(checks=checks)


# ---------------------------------------------------------------------------
# Limit criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitCriterionReport:
    """Extrapolated bandwidth slope of f - K_eps f against the Laplacian."""
    limit: float
    laplacian: float
    gap: float
    matches_laplacian: bool
    equicurved: bool
    residual: float


def limit_criterion_check(M: EmbeddedManifold, f: ScalarField, x: ChartPoint,
                          ladder: EpsLadder, rel_tol: float = 0.02,
                          abs_tol: float = 1e-3) -> LimitCriterionReport:
    """Compare lim (f(x) - K_eps f(x)) / eps with the Laplace-Beltrami value.

    The sequence is Richardson-extrapolated along the (geometric) ladder.
    ``matches_laplacian`` applies the relative tolerance, falling back to the
    absolute one when the Laplacian is close to zero.  The equicurvature flag
    comes from the shape-operator residual at ``x``.
    """
    _require_hypersurface(M)
    fx, lap = laplace_beltrami(M, f, x)
    eps = ladder.eps
    ratios = eps[1:] / eps[:-1]
    rho = float(ratios[0])
    if np.max(np.abs(ratios - rho)) > 1e-9:
        raise ValidationError("limit criterion needs a geometric ladder")
    z = (fx - ladder.values) / eps
    extrap = (z[1:] - rho * z[:-1]) / (1.0 - rho)
    limit = float(extrap[-1])
    gap = abs(limit - lap)
    if abs(lap) < 1e-6:
        matches = gap <= abs_tol
    else:
        matches = gap / abs(lap) <= rel_tol
    sd = shape_at(M, x)
    residual = equicurvature_residual(sd)
    equicurved = abs(residual) <= 1e-6 * (1.0 + sd.e1 ** 2)
    return LimitCriterionReport(limit=limit, laplacian=lap, gap=gap,
                                matches_laplacian=bool(matches),
                                equicurved=bool(equicurved),
                                residual=residual)
