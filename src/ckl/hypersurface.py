"""Hypersurface analysis: shape operator, principal curvatures, equicurvature.

For codimension-one submanifolds the second fundamental form reduces to a
scalar bilinear form against the unit normal; its eigenvalues relative to the
metric are the principal curvatures.  A point is equicurved when
``e1(kappa)^2 = 4 e2(kappa)``, equivalently ``d^2 H^2 = 2 R``; at such points
the bandwidth slope of ``f - K_eps f`` reproduces the Laplace-Beltrami
operator.  Scans evaluate the residual ``e1^2 - 4 e2`` over a grid on the
chart box in one array pass.  On request they also refine sign changes along
grid edges by the Illinois variant of regula falsi and sub-threshold dips by
golden-section search, and cluster the refined points by ambient position.
Refinement evaluates the residual in trace form, ``2 tr(S^2) - (tr S)^2``
with ``S = g^-1 II``, without an eigensolve.

Scan points are classified over whole arrays: ``flat`` when ``max |kappa_i|
<= tol_umb``; ``umbilic`` when flat or ``kappa_1 - kappa_d <= tol_umb``;
``equicurved`` when flat or ``|e1^2 - 4 e2| <= tol_eq``, or when d = 2 and
umbilic.  The label is the first of these that holds, else ``generic``; a row
of NaNs is generic with no flags and stays out of the zero set.  A node whose
metric determinant is at or below ``DET_FLOOR`` is ``degenerate`` with no
flags: its numbers are reported, but it stays out of the zero set and out of
refinement.  ``tol_umb``
is ``1e-6 (1 + max |kappa_i|)`` and ``tol_eq`` defaults to ``1e-6 (1 +
e1^2)``; both scale with the curvature magnitudes and are engineering
choices, not intrinsic definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateChartError, NumericsError, ValidationError
from .fields import ScalarField
from .fit import first_order_check
from .manifold import DET_FLOOR, ChartPoint, EmbeddedManifold, laplace_beltrami
from .operator import EpsLadder

EIGEN_RESIDUAL_LIMIT = 1e-10
_BOUNDARY_INSET = 1e-4
# sign-change refinement stops at this bracket width, in units of the edge;
# after _ILLINOIS_STEPS steps plain bisection finishes an edge
_EDGE_BRACKET = 2.0 ** -45
_ILLINOIS_STEPS = 40


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


def _shape_arrays(M: EmbeddedManifold, coords: np.ndarray,
                  orientation: float = 1.0):
    """Batched ``(normal, kappas, directions, jacobian, b)`` at coords (..., d).

    No metric floor is applied here: callers refuse or mark degenerate points.
    """
    jac = M.jacobian(0, coords)
    g = np.einsum("...ni,...nj->...ij", jac, jac)
    normal = orientation * _unit_normals(jac)
    b = np.einsum("...nij,...n->...ij", M.hessian(0, coords), normal)
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


def _trace_residual(M: EmbeddedManifold, coords: np.ndarray):
    """Batched ``(e1^2 - 4 e2, e1)`` from ``tr S`` and ``tr S^2``, S = g^-1 II.

    The normal is the unit vector of the cofactors of J (n = d + 1); its
    orientation cancels in the residual, and ``e1 = tr S`` carries it.
    """
    jac = M.jacobian(0, coords)
    hess = M.hessian(0, coords)
    n = jac.shape[-2]
    minor_rows = [[r for r in range(n) if r != k] for k in range(n)]
    normal = np.linalg.det(jac[..., minor_rows, :]) * (-1.0) ** np.arange(n)
    normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
    b = np.einsum("...nij,...n->...ij", hess, normal)
    s = np.linalg.solve(np.einsum("...ni,...nj->...ij", jac, jac), b)
    e1 = np.trace(s, axis1=-2, axis2=-1)
    return 2.0 * np.einsum("...ij,...ji->...", s, s) - e1 * e1, e1


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
    g = M.metric(0, p.coords)    # refuses a point at the determinant floor
    normal, kappas, directions, jac, b = _shape_arrays(
        M, np.asarray(p.coords, dtype=float), orientation)
    # eigen residual check: |b w - kappa g w| <= 1e-10 |b|
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
    """One scan result.  ``bracket`` is set on refined zeros only: the width,
    in chart coordinates, of the last interval known to hold the zero."""
    point: ChartPoint
    kappas: np.ndarray
    e1: float
    e2: float
    residual: float
    umbilic_spread: float
    classification: str
    flags: tuple[str, ...]
    bracket: float | None = None


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

    ``zero_set`` is the sub-list of non-degenerate grid results whose residual
    passes the threshold; ``refined_zeros`` holds Illinois- or golden-section-
    refined and ambient-clustered representatives of the near-zero locus
    (coordinates may sit on the chart boundary when the locus runs into it),
    and is empty when the scan ran without refinement.
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


def _symmetric(kappas):
    """``(e1, e2, e1^2 - 4 e2)`` of curvature rows, e2 by power sums."""
    e1 = np.sum(kappas, axis=-1)
    e2 = 0.5 * (e1 ** 2 - np.sum(kappas ** 2, axis=-1))
    return e1, e2, e1 ** 2 - 4.0 * e2


def _tolerances(e1, kappas, tol_eq):
    tol_eq_arr = tol_eq if tol_eq is not None else 1e-6 * (1.0 + e1 ** 2)
    tol_umb_arr = 1e-6 * (1.0 + np.max(np.abs(kappas), axis=-1))
    return tol_eq_arr * np.ones_like(e1), tol_umb_arr


def scan_equicurved(M: EmbeddedManifold, grid: Sequence[int],
                    tol_eq: float | None = None, refine: bool = True
                    ) -> ScanResult:
    """Residual scan over a grid on the chart box, with optional refinement.

    ``grid`` gives cells per axis: non-periodic axes get ``n + 1`` nodes
    (inset slightly from the box edge so degenerate chart boundaries stay
    evaluable; symmetric boxes keep their center on the grid), periodic axes
    get ``n`` nodes.  All nodes are evaluated in one batched call; nodes at
    the metric determinant floor are classed ``degenerate``.  With ``refine``
    the grid-edge zeros are refined into ``refined_zeros`` (sign changes by
    Illinois iteration, dips by golden-section search); without it that list
    stays empty and the grid rows are unchanged.
    """
    _require_hypersurface(M)
    grid = [int(g) for g in grid]
    if len(grid) != M.dim:
        raise ValidationError(f"grid needs {M.dim} axis counts, got {len(grid)}")
    axes = _grid_axes(M.chart(0), grid)
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    grid_shape = tuple(len(a) for a in axes)

    try:
        _, kappas, _, jac, _ = _shape_arrays(M, coords)
    except np.linalg.LinAlgError:
        raise DegenerateChartError("metric not positive definite at a grid "
                                   "node") from None
    degenerate = np.linalg.det(
        np.einsum("...ni,...nj->...ij", jac, jac)) <= DET_FLOOR
    e1, e2, residual = _symmetric(kappas)
    spread = kappas[..., 0] - kappas[..., -1]
    tol_eq_arr, tol_umb_arr = _tolerances(e1, kappas, tol_eq)

    classification, flags = _classify_arrays(kappas, residual, spread,
                                             tol_eq_arr, tol_umb_arr)
    for i in np.flatnonzero(degenerate):
        classification[i], flags[i] = "degenerate", ()

    result = ScanResult(
        grid_shape=grid_shape, coords=coords, kappas=kappas, e1=e1, e2=e2,
        residual=residual, umbilic_spread=spread,
        classification=classification, flags=flags, zero_set=[],
        refined_zeros=[])
    in_zero = (np.abs(residual) <= tol_eq_arr) & ~degenerate
    result.zero_set.extend(result.result_at(i) for i in np.where(in_zero)[0])
    if refine:
        result.refined_zeros.extend(_refine_zeros(
            M, grid_shape, coords, residual, tol_eq_arr, tol_eq, ~degenerate))
    return result


def _refine_zeros(M, shape, coords, residual, tol_arr, tol_eq, valid):
    """Refine the zeros on grid edges between ``valid`` nodes.

    Edges whose ends change sign (neither end below threshold) go through one
    Illinois pass over all axes at once; lines through a sub-threshold node
    get a golden-section dip search.  Candidates keep the per-axis order
    (crossings, then dips) that clustering sees.  A dip candidate carries the
    threshold of the node that started its search; crossings and
    boundary-snapped dips carry an infinite one.
    """
    res = residual.reshape(shape)
    tols = tol_arr.reshape(shape)
    ok = valid.reshape(shape)
    near = (np.abs(res) <= tol_arr.reshape(shape)) & ok
    pts = coords.reshape(shape + (len(shape),))
    d = len(shape)
    ends, dips = [], []
    for axis in range(d):
        lead = [slice(None)] * d
        trail = [slice(None)] * d
        lead[axis] = slice(0, -1)
        trail[axis] = slice(1, None)
        lead, trail = tuple(lead), tuple(trail)
        # signs, not the product: large residuals must not overflow
        crossing = (np.sign(res[lead]) * np.sign(res[trail]) < 0.0) \
            & ok[lead] & ok[trail] & ~near[lead] & ~near[trail]
        ends.append((pts[lead][crossing], pts[trail][crossing],
                     res[lead][crossing], res[trail][crossing]))
        dips.append(near[lead] | near[trail])
    zeros, brackets = _illinois(
        M, *(np.concatenate(parts) for parts in zip(*ends)))
    splits = np.cumsum([len(e[2]) for e in ends])[:-1]

    refined: list[tuple[np.ndarray, bool, float, float]] = []
    for axis, (z_axis, w_axis) in enumerate(zip(np.split(zeros, splits),
                                                np.split(brackets, splits))):
        refined.extend((z, False, float(w), np.inf)
                       for z, w in zip(z_axis, w_axis))
        # sub-threshold dips: walk the minimum along this axis, out to the
        # domain boundary when the chart allows and the dip sits at the
        # first or last grid node
        picked = set()
        for idx in np.argwhere(dips[axis]):
            node = tuple(idx)
            key = node[:axis] + node[axis + 1:]
            if key in picked:
                continue
            picked.add(key)
            line_sel = list(node)
            line_sel[axis] = slice(None)
            line_sel = tuple(line_sel)
            line_res = np.where(ok[line_sel], np.abs(res[line_sel]), np.inf)
            j = int(np.argmin(line_res))
            z, snapped, width = _refine_on_line(M, axis, pts[line_sel], j)
            refined.append((z, snapped, width,
                            np.inf if snapped else float(tols[line_sel][j])))
    return _cluster_refined(M, refined, tol_eq)


def _illinois(M, a, b, fa, fb):
    """Trace-residual zeros on the segments ``a + t (b - a)``, t in [0, 1].

    ``fa`` and ``fb`` are the residuals at the ends, of opposite signs.  Every
    bracket ``[lo, hi]`` shrinks by the Illinois variant of regula falsi
    (Dowell & Jarratt, BIT 11, 1971): an end kept twice in a row has its
    residual halved.  After ``_ILLINOIS_STEPS`` steps bisection finishes an
    edge.  Returns the midpoints of the final brackets and their widths, in
    chart coordinates.
    """
    lo, hi = np.zeros(fa.shape), np.ones(fa.shape)
    flo, fhi = fa.astype(float), fb.astype(float)
    moved = np.zeros(fa.shape)      # end moved by the last step: -1 lo, +1 hi
    active = np.arange(fa.size)
    for step in range(_ILLINOIS_STEPS + 45):
        if not active.size:
            break
        l, h, fl, fh = lo[active], hi[active], flo[active], fhi[active]
        t = l + (h - l) * (fl / (fl - fh))
        t = np.where((t > l) & (t < h) & (step < _ILLINOIS_STEPS), t,
                     0.5 * (l + h))
        ft = _trace_residual(M, a[active] + t[:, None]
                             * (b[active] - a[active]))[0]
        to_lo = np.sign(ft) == np.sign(fl)
        to_hi = np.sign(ft) == np.sign(fh)
        hit = ft == 0.0
        last = moved[active]
        fhi[active] = np.where(to_hi, ft, np.where(to_lo & (last < 0),
                                                   0.5 * fh, fh))
        flo[active] = np.where(to_lo, ft, np.where(to_hi & (last > 0),
                                                   0.5 * fl, fl))
        lo[active] = np.where(to_lo | hit, t, l)
        hi[active] = np.where(to_hi | hit, t, h)
        moved[active] = np.where(to_lo, -1.0, np.where(to_hi, 1.0, 0.0))
        active = active[hi[active] - lo[active] > _EDGE_BRACKET]
    return (a + 0.5 * (lo + hi)[:, None] * (b - a),
            (hi - lo) * np.linalg.norm(b - a, axis=-1))


def _refine_on_line(M, axis, line_pts, j):
    """Golden-section minimization of the trace-form |residual| along one line.

    Returns ``(coords, snapped, bracket)``.  When the residual plateaus at
    rounding level all the way into a chart boundary, minimization cannot
    localize the zero; the boundary point itself is reported (snapped) in that
    case, with the ``_eval_floor`` offset as its bracket.  Otherwise the
    bracket is the final golden-section interval.
    """
    chart = M.chart(0)
    lo_pt = line_pts[max(j - 1, 0)].copy()
    hi_pt = line_pts[min(j + 1, line_pts.shape[0] - 1)].copy()
    # when the dip touches the first/last node, extend toward the domain edge;
    # each such end may snap: (boundary, nearest evaluable t, floor offset)
    snaps = []
    if not chart.periodic[axis]:
        if j == 0:
            floor = _eval_floor(M, axis, lo_pt, at_low=True)
            lo_pt[axis] = chart.lo[axis] + floor
            snaps.append((chart.lo[axis], lo_pt[axis], floor))
        if j == line_pts.shape[0] - 1:
            floor = _eval_floor(M, axis, hi_pt, at_low=False)
            hi_pt[axis] = chart.hi[axis] - floor
            snaps.append((chart.hi[axis], hi_pt[axis], floor))
    a, b = lo_pt[axis], hi_pt[axis]
    base = lo_pt.copy()

    def point(t):
        q = base.copy()
        q[axis] = t
        return q

    def res_at(t):
        r, e1 = _trace_residual(M, point(t)[None, :])
        return abs(float(r[0])), 1e-12 * (1.0 + float(e1[0]) ** 2)

    def f(t):
        return res_at(t)[0]

    # residual already at rounding level against the boundary: snap outright
    for boundary, end, floor in snaps:
        val, noise = res_at(end)
        if val <= 10.0 * noise:
            return point(boundary), True, floor

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
    # monotone descent into a degenerate boundary: report the boundary itself
    for boundary, end, floor in snaps:
        if abs(t_best - end) <= 1e-6:
            return point(boundary), True, floor
    return point(t_best), False, float(b - a)


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
        except DegenerateChartError:
            continue
    return 1e-2 * width


def _cluster_refined(M, refined, tol_eq):
    """Cluster refined points by ambient distance; keep best residual each.

    ``refined`` holds ``(coords, snapped, bracket, tol)`` candidates.  A
    candidate whose trace-form residual is above both its ``tol`` and the
    rounding-noise band is dropped first: a dip search that ended there found
    no zero.  Within the rounding-noise band of the best trace-form residual, boundary-snapped
    candidates win (they carry the exact boundary coordinate); remaining ties
    break lexicographically for determinism.  Only the chosen representatives
    go through the eigensolve that reports their curvatures.
    """
    if not refined:
        return []
    chart = M.chart(0)
    clipped = np.clip(np.array([r[0] for r in refined]), chart.lo, chart.hi)
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
    res, e1 = _trace_residual(M, inset)
    noise = 1e-10 * (1.0 + e1 * e1)
    keep = np.flatnonzero(
        np.abs(res) <= np.maximum([r[3] for r in refined], noise))
    if not keep.size:
        return []
    refined = [refined[r] for r in keep]
    clipped, inset, res, noise = (clipped[keep], inset[keep], res[keep],
                                  noise[keep])
    ambient = M.embed(0, clipped)
    scale = np.max(np.abs(ambient)) + 1e-12
    radius = 1e-3 * scale
    clusters: list[list[int]] = []
    reps = np.empty_like(ambient)    # the first len(clusters) rows are in use
    for r in range(clipped.shape[0]):
        if clusters:
            dists = np.linalg.norm(reps[:len(clusters)] - ambient[r], axis=1)
            hit = int(np.argmin(dists))
            if dists[hit] <= radius:
                clusters[hit].append(r)
                continue
        reps[len(clusters)] = ambient[r]
        clusters.append([r])
    chosen = []
    for cluster in clusters:
        best_res = min(abs(res[r]) for r in cluster)

        def sort_key(r):
            return (max(abs(res[r]) - max(best_res, noise[r]), 0.0),
                    0 if refined[r][1] else 1, tuple(clipped[r]))

        chosen.append(min(cluster, key=sort_key))
    kappas = _shape_arrays(M, inset[chosen])[1]
    e1_rep, _, residual = _symmetric(kappas)
    spread = kappas[:, 0] - kappas[:, -1]
    labels, flags = _classify_arrays(kappas, residual, spread,
                                     *_tolerances(e1_rep, kappas, tol_eq))
    out = [EquicurvatureResult(
        point=ChartPoint(0, clipped[r]), kappas=kappas[k],
        e1=float(e1_rep[k]), e2=_elementary_symmetric(kappas[k], 2),
        residual=float(residual[k]), umbilic_spread=float(spread[k]),
        classification=labels[k], flags=flags[k], bracket=refined[r][2])
        for k, r in enumerate(chosen)]
    out.sort(key=lambda z: tuple(z.point.coords))
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


def check_propositions(sd: ShapeData) -> PropositionReport:
    """Exercise the vanishing-curvature implications on one curvature vector.

    (i) equicurved and minimal implies all curvatures vanish;
    (ii) equicurved and scalar-flat implies the same;
    (iii) for d >= 3, equicurved and umbilic implies the same.
    Implications whose premises fail are reported as not applicable.  Each
    premise holds within ``1e-8`` relative tolerance, "all curvatures vanish"
    within ``1e-4``.
    """
    tol = 1e-8
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
                          ladder: EpsLadder) -> LimitCriterionReport:
    """Compare lim (f(x) - K_eps f(x)) / eps with the Laplace-Beltrami value.

    The sequence is Richardson-extrapolated along the (geometric) ladder.
    ``matches_laplacian`` applies :func:`ckl.fit.first_order_check`: relative
    gap at most 0.02, or absolute gap at most 1e-3 when the Laplacian is
    below 1e-6 in size.  The equicurvature flag comes from the shape-operator
    residual at ``x``.
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
    matches = first_order_check(limit, lap)[2]
    sd = shape_at(M, x)
    residual = equicurvature_residual(sd)
    equicurved = abs(residual) <= 1e-6 * (1.0 + sd.e1 ** 2)
    return LimitCriterionReport(limit=limit, laplacian=lap, gap=gap,
                                matches_laplacian=bool(matches),
                                equicurved=bool(equicurved),
                                residual=residual)
