"""Hypersurface analysis: shape operator, principal curvatures, equicurvature.

For codimension-one submanifolds the second fundamental form reduces to a
scalar bilinear form b against the unit normal; its eigenvalues relative to
the metric g are the principal curvatures.  The normal is the unit cofactor
vector C of the Jacobian J, oriented by ``det([J | nu]) > 0``, and one pass
gives ``|C|^2 = det(J^T J)`` with it (Cauchy-Binet).  All of this is column
arithmetic that follows each matrix's structure, for any d: the minors of C by
cofactor expansion of J scaled by a power of two, the Cholesky factor L of g
column by column, and ``a = L^-1 b L^-T`` by forward substitution.  It runs
component-major: the Jacobians of N nodes as ``(n, d, N)`` and their Hessians
as ``(n, d, d, N)``, so that every product, pivot and substitution row is one
contiguous vector over the nodes, for one point as for a grid block, and the
results go back to the caller as contiguous ``(N, ...)`` arrays.  The
curvatures are the eigenvalues of the symmetric ``a``: for d = 2 by LAPACK's
own formula for one 2x2 matrix, applied over whole arrays, with ``eigvalsh``
itself where LAPACK would rescale (:func:`_eigvalsh_descending`); for larger
d by ``eigvalsh``.  A point is equicurved when ``e1(kappa)^2 = 4 e2(kappa)``,
equivalently ``d^2 H^2 = 2 R``; at such points the bandwidth slope of ``f -
K_eps f`` reproduces the Laplace-Beltrami operator.  Scans evaluate the
residual ``e1^2 - 4 e2`` over a grid on the chart box, in sub-grids of at
most ``_BLOCK_NODES`` nodes whose arrays stay cache-sized; the chart takes
the sinusoids of each axis value once per sub-grid.  On request they also
refine sign changes along grid edges by the Illinois variant of regula
falsi, every edge at once, and sub-threshold dips by golden-section search,
every grid line at once, then cluster the refined points by ambient
position.  Refinement evaluates the residual in trace form,
``2 tr(a^2) - (tr a)^2``, without an eigensolve; clustering reduces each
candidate once more and takes eigenvalues only for the chosen.

Scan points are classified over whole arrays: ``flat`` when ``max |kappa_i|
<= tol_umb``; ``umbilic`` when flat or ``kappa_1 - kappa_d <= tol_umb``;
``equicurved`` when flat or ``|e1^2 - 4 e2| <= tol_eq``, or when d = 2 and
umbilic.  The label is the first of these that holds, else ``generic``; a row
of NaNs is generic with no flags and stays out of the zero set.  A node whose
metric determinant ``|C|^2`` is at or below ``DET_FLOOR`` is ``degenerate``
with no flags: its numbers are reported, but it stays out of the zero set and
out of refinement.  A scan keeps one ``uint8`` class code per node, ``flat*4
+ umbilic*2 + equicurved`` or 8 for degenerate, and reads labels and flags
off one table (:data:`CLASS_NAMES`).  ``tol_umb`` is ``1e-6 (1 + max
|kappa_i|)`` and ``tol_eq`` defaults to ``1e-6 (1 + e1^2)``; both scale with
the curvature magnitudes and are engineering choices, not intrinsic
definitions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateChartError, NumericsError, ValidationError
from .fields import ScalarField
from .fit import first_order_check, richardson_step
from .manifold import (
    DET_FLOOR,
    ChartPoint,
    EmbeddedManifold,
    TensorGrid,
    _gram,
    laplace_beltrami,
)
from .operator import EpsLadder

EIGEN_RESIDUAL_LIMIT = 1e-10
_BOUNDARY_INSET = 1e-4
# a scan grid holds at most this many nodes: at 105-350 bytes per node (a
# CSV scan 125-190, a JSON scan up to 350) its peak memory stays below about
# 0.75 GB
_MAX_GRID_NODES = 2 ** 21
# the grid pass evaluates sub-grids of at most this many nodes at a time
_BLOCK_NODES = 8192
# 2x2 curvature matrices whose largest entry lies in this range are never
# rescaled by LAPACK (dsyevd rescales outside about [1e-146, 1e146], dsterf
# outside about [1.5e-122, 2.2e153]), so _eigvalsh_descending takes their
# eigenvalues by LAPACK's formula
_EIGH2_RANGE = (1e-100, 1e100)
# sign-change refinement stops at this bracket width, in units of the edge;
# after _ILLINOIS_STEPS steps plain bisection finishes an edge
_EDGE_BRACKET = 2.0 ** -45
_ILLINOIS_STEPS = 40
# refined zeros are clustered from window pairs formed about this many at a time
_PAIR_CHUNK = 2 ** 15


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


@functools.cache
def _expansion_plan(n: int, d: int):
    """Index tables for the maximal minors of an (n, d) matrix, n > d.

    Level j holds the minors on the columns ``j..d-1``, one for each set of
    ``d - j`` rows, in ``itertools.combinations`` order.  For j < d - 1 the
    plan gives, per position p in a row set S, the row ``S[p]`` and the
    index at level j + 1 of the set ``S`` without ``S[p]``: the expansion
    along column j is then ``sum_p (-1)^p J[S[p], j] minor(S - S[p])``.
    """
    levels = []
    below = {(r,): r for r in range(n)}
    for size in range(2, d + 1):
        sets = list(itertools.combinations(range(n), size))
        rows = np.array(sets).T
        rest = np.array([[below[s[:p] + s[p + 1:]] for s in sets]
                         for p in range(size)])
        levels.append((rows, rest))
        below = {s: i for i, s in enumerate(sets)}
    return tuple(levels)


def _nodes_last(x: np.ndarray, core: tuple[int, ...]) -> np.ndarray:
    """``x`` of shape ``(..., *core)`` as a contiguous ``(*core, N)`` array,
    N the number of nodes in the batch ``...``."""
    k = len(core)
    return np.ascontiguousarray(
        x.reshape((-1,) + core).transpose(*range(1, k + 1), 0))


def _nodes_first(x: np.ndarray, batch: tuple[int, ...]) -> np.ndarray:
    """A ``(*core, N)`` array back as a contiguous ``(*batch, *core)`` one."""
    k = x.ndim - 1
    return np.ascontiguousarray(x.transpose(k, *range(k))).reshape(
        batch + x.shape[:-1])


def _cofactors(jac: np.ndarray):
    """``(nu, |C|^2)`` of Jacobians held component-major, ``(n, d, N)``:
    ``nu`` is ``(n, N)``; see :func:`_cofactor_normals`."""
    n, d = jac.shape[:2]
    _, shift = np.frexp(np.max(np.abs(jac), axis=(0, 1)))
    scaled = np.ldexp(jac, -shift)
    minors = scaled[:, d - 1]
    for j, (rows, rest) in zip(range(d - 2, -1, -1), _expansion_plan(n, d)):
        column = scaled[:, j]
        total = column[rows[0]] * minors[rest[0]]
        for p in range(1, rows.shape[0]):
            term = column[rows[p]] * minors[rest[p]]
            total = total - term if p % 2 else total + term
        minors = total
    # the row sets come in combinations order: the k-th misses row n-1-k
    c = minors[::-1] * ((-1.0) ** (np.arange(n) + n - 1))[:, None]
    _, exponent = np.frexp(np.max(np.abs(c), axis=0))
    np.ldexp(c, -exponent, out=c)
    length_sq = np.sum(c * c, axis=0)
    # ldexp, like a product, raises on overflow under np.errstate
    norm_sq = np.ldexp(length_sq, 2 * (exponent + d * shift))
    length = np.sqrt(length_sq)
    c /= np.where(length > 0.0, length, 1.0)
    return c, norm_sq


def _cofactor_normals(jac: np.ndarray):
    """Batched ``(nu, |C|^2)`` from Jacobians ``(..., n, d)``, n = d + 1.

    ``C_k = (-1)^(k+n-1) det(J without row k)`` is the cofactor vector of J:
    orthogonal to its columns, with ``det([J | C]) = |C|^2 > 0``, and by
    Cauchy-Binet ``|C|^2 = det(J^T J)``.  Each J is first scaled by the power
    of two that brings its largest entry into [1/2, 1); the minors of the
    scaled J follow by cofactor expansion, from the last column to the
    first (:func:`_expansion_plan`), so a ``2^k``-scaled Jacobian gives a
    bit-identical normal.  ``nu = C / |C|``, with C scaled by a second
    power of two so that its norm neither underflows nor overflows; a zero
    row gives a zero normal.  The arithmetic runs component-major, one
    contiguous vector over the nodes per entry (:func:`_cofactors`).
    """
    batch = jac.shape[:-2]
    normal, norm_sq = _cofactors(_nodes_last(jac, jac.shape[-2:]))
    return _nodes_first(normal, batch), norm_sq.reshape(batch)


def _reduced_forms(jac: np.ndarray, hess: np.ndarray):
    """Batched ``(normal, det_g, chol, a)`` from Jacobians ``(..., n, d)``
    and Hessians ``(..., n, d, d)``, returned as contiguous ``(..., n)``,
    ``(...)``, ``(..., d, d)`` and ``(..., d, d)`` arrays.

    ``normal`` and ``det_g = |C|^2`` come from :func:`_cofactors`.  ``chol``
    is the lower Cholesky factor L of the metric ``g = J^T J``, computed
    column by column; a pivot that is not positive raises ``LinAlgError``
    before its square root is taken.  ``a`` is ``L^-1 b L^-T`` for the
    second fundamental form ``b = <hess, nu>``, by two forward
    substitutions, symmetrized; its eigenvalues are the principal
    curvatures.  No metric floor is applied here: callers refuse or mark
    degenerate points.

    Everything is computed component-major, the Jacobian as ``(n, d, N)``
    and the Hessian as ``(n, d, d, N)`` with the N nodes last, so that each
    product, pivot and substitution row is one contiguous vector operation.
    The sums over ambient components run in component order from zero, as
    the batched ``einsum`` they replace did, so every entry has the bits of
    a node evaluated alone.
    """
    batch = jac.shape[:-2]
    n, d = jac.shape[-2:]
    jac = _nodes_last(jac, (n, d))
    normal, det_g = _cofactors(jac)
    # sums over the n components from zero, in order, as einsum takes them
    g = np.add.reduce(jac[:, :, None] * jac[:, None], axis=0, initial=0.0)
    b = np.add.reduce(_nodes_last(hess, (n, d, d)) * normal[:, None, None],
                      axis=0, initial=0.0)
    chol = np.zeros(g.shape)
    for j in range(d):
        pivot = g[j, j]
        for k in range(j):
            pivot = pivot - chol[j, k] * chol[j, k]
        if not (pivot > 0.0).all():
            raise np.linalg.LinAlgError("metric not positive definite")
        np.sqrt(pivot, out=chol[j, j])
        for i in range(j + 1, d):
            value = g[i, j]
            for k in range(j):
                value = value - chol[i, k] * chol[j, k]
            np.divide(value, chol[j, j], out=chol[i, j])

    def forward(rhs):
        """``L^-1 rhs``, one row at a time."""
        x = np.empty(rhs.shape)
        for i in range(d):
            row = rhs[i]
            for k in range(i):
                row = row - chol[i, k] * x[k]
            np.divide(row, chol[i, i], out=x[i])
        return x

    # b is symmetric, so L^-1 (L^-1 b)^T = L^-1 b L^-T
    x = forward(np.swapaxes(forward(b), 0, 1))
    a = x + np.swapaxes(x, 0, 1)
    a *= 0.5
    return (_nodes_first(normal, batch), det_g.reshape(batch),
            _nodes_first(chol, batch), _nodes_first(a, batch))


def _eigvalsh_descending(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(a)[..., ::-1]`` of a batch of symmetric ``a``
    ``(..., d, d)``, read from the lower triangle, bit for bit.

    For d = 2 this is LAPACK's own path for one matrix (``dsyevd`` ->
    ``dsterf`` -> ``dlae2``) over whole arrays, without a call per matrix.
    ``dsterf`` returns the diagonal as it is when the off-diagonal ``e``
    passes either split test, ``|e| <= sqrt|a11| sqrt|a22| 2^-53`` or ``e^2
    <= 2^-106 |a11 a22|``; otherwise ``dlae2(a11, sqrt(e^2), a22)`` gives
    the eigenvalue of larger magnitude and then the other.  ``dlasrt``
    swaps a pair only when it is strictly out of ascending order, which
    keeps the sign of a zero.  Rows whose largest entry lies outside
    ``_EIGH2_RANGE``, and is not 0, are rescaled by ``dsyevd`` and
    ``dsterf``: they go to ``eigvalsh`` itself.  Each branch is computed
    only on its own rows, so none divides by zero or overflows.
    """
    if a.shape[-1] != 2:
        return np.linalg.eigvalsh(a)[..., ::-1]
    batch = a.shape[:-2]
    a = a.reshape(-1, 2, 2)
    out = np.empty((a.shape[0], 2))
    a11, e, a22 = a[:, 0, 0], a[:, 1, 0], a[:, 1, 1]
    big = np.maximum(np.maximum(np.abs(a11), np.abs(e)), np.abs(a22))
    lo, hi = _EIGH2_RANGE
    direct = ((big >= lo) & (big <= hi)) | (big == 0.0)
    all_direct = direct.all()
    if not all_direct:
        out[~direct] = np.linalg.eigvalsh(a[~direct])[:, ::-1]
        a11, e, a22 = a11[direct], e[direct], a22[direct]
    e2 = e * e
    split = ((np.abs(e) <= np.sqrt(np.abs(a11)) * np.sqrt(np.abs(a22))
              * 2.0 ** -53)
             | (e2 <= 2.0 ** -106 * np.abs(a11 * a22)))
    # the diagonal, ascending by dlasrt's swap, then reversed; the rows
    # that do not split are overwritten below
    swap = a22 < a11
    k1, k2 = np.where(swap, a11, a22), np.where(swap, a22, a11)
    rest = np.flatnonzero(~split)
    if rest.size:
        rt1, rt2 = _dlae2(a11[rest], np.sqrt(e2[rest]), a22[rest])
        swap = rt2 < rt1
        k1[rest], k2[rest] = np.where(swap, rt1, rt2), np.where(swap, rt2, rt1)
    if all_direct:
        out[:, 0], out[:, 1] = k1, k2
    else:
        out[direct] = np.stack([k1, k2], axis=1)
    return out.reshape(batch + (2,))


def _dlae2(a, b, c):
    """LAPACK's ``dlae2``, in its order of operations, over arrays: the
    eigenvalues ``(rt1, rt2)`` of ``[[a, b], [b, c]]``, ``rt1`` the larger
    in magnitude, for b != 0."""
    sm = a + c
    adf = np.abs(a - c)
    ab = np.abs(b + b)
    # b != 0, so the larger of adf and ab is positive; at a tie the ratio
    # is 1 and the root is ab sqrt(2), as dlae2 takes it
    larger, smaller = np.maximum(adf, ab), np.minimum(adf, ab)
    rt = larger * np.sqrt(1.0 + (smaller / larger) ** 2)
    a_larger = np.abs(a) > np.abs(c)
    acmx, acmn = np.where(a_larger, a, c), np.where(a_larger, c, a)
    rt1 = 0.5 * np.where(sm < 0.0, sm - rt, sm + rt)
    rt2 = np.where(sm == 0.0, -0.5 * rt, (acmx / rt1) * acmn - (b / rt1) * b)
    return rt1, rt2


def _curvatures(M: EmbeddedManifold, coords):
    """Batched ``(kappas, det_g)``: descending principal curvatures and the
    metric determinant, from eigenvalues alone.  ``coords`` is an array of
    nodes or a :class:`TensorGrid`."""
    _, det_g, _, a = _reduced_forms(M.jacobian(0, coords),
                                    M.hessian(0, coords))
    return _eigvalsh_descending(a), det_g


def _grid_pass(M: EmbeddedManifold, axes: Sequence[np.ndarray]):
    """:func:`_curvatures` of the tensor grid on ``axes``, as ``(N, d)`` and
    ``(N,)`` arrays in the grid's flat order, a block at a time, so that
    each block's Jacobians, Hessians and matrix temporaries stay cache-sized.

    A block is a sub-grid whose nodes run contiguously in flat order: with
    k the first axis whose trailing sub-grid holds at most ``_BLOCK_NODES``
    nodes, one index on each axis before k, a run of axis k that fits, and
    every axis after it whole.  Its chart evaluation takes the sinusoids of
    each axis value once.
    """
    shape = tuple(len(x) for x in axes)
    d = len(shape)
    kappas = np.empty((math.prod(shape), d))
    det_g = np.empty(kappas.shape[0])
    k = next(i for i in range(d) if math.prod(shape[i + 1:]) <= _BLOCK_NODES)
    run = _BLOCK_NODES // math.prod(shape[k + 1:])
    start = 0
    for lead in itertools.product(*map(range, shape[:k])):
        for j in range(0, shape[k], run):
            box = ([x[i:i + 1] for x, i in zip(axes, lead)]
                   + [axes[k][j:j + run]] + list(axes[k + 1:]))
            block_kappas, block_det = _curvatures(M, TensorGrid.product(box))
            stop = start + block_det.size
            kappas[start:stop] = block_kappas.reshape(-1, d)
            det_g[start:stop] = block_det.reshape(-1)
            start = stop
    return kappas, det_g


def _trace_residual(M: EmbeddedManifold, coords: np.ndarray):
    """Batched ``(e1^2 - 4 e2, e1)`` from ``tr a`` and ``tr a^2``.

    ``a = L^-1 b L^-T`` of :func:`_reduced_forms` is similar to the shape
    operator ``g^-1 b``, so ``e1 = tr a`` and the residual is ``2 tr(a^2) -
    (tr a)^2``, without an eigensolve.  It does not depend on the normal's
    orientation.
    """
    return _trace_form(_reduced_forms(M.jacobian(0, coords),
                                      M.hessian(0, coords))[3])


def _trace_form(a):
    """``(2 tr(a^2) - (tr a)^2, tr a)`` of a batch of symmetric ``a``."""
    e1 = np.trace(a, axis1=-2, axis2=-1)
    return 2.0 * np.sum(a * a, axis=(-2, -1)) - e1 * e1, e1


def shape_at(M: EmbeddedManifold, p: ChartPoint) -> ShapeData:
    """Shape-operator eigendata at one point.

    Solves the generalized symmetric problem ``b w = kappa g w`` with
    ``b_ij = <dd embed, nu>`` through a Cholesky reduction of the metric.  The
    chart normal is the unit cofactor vector of the Jacobian columns
    (``det([J | nu]) > 0``).  With this convention the outward-oriented
    unit sphere has curvatures -1.
    """
    _require_hypersurface(M)
    _, jac, hess = M.chart(p.chart).jet(p.coords, (1, 2))
    _gram(jac)      # refuses a point at the determinant floor
    normal, _, chol, a = _reduced_forms(jac, hess)
    eigvals, eigvecs = np.linalg.eigh(a)
    kappas = eigvals[::-1]      # descending
    w = np.linalg.solve(chol.T, eigvecs[:, ::-1])
    directions = np.einsum("ni,ik->kn", jac, w)
    # eigen residual check: |b w - kappa g w| <= 1e-10 |b|, column by column
    b = np.einsum("nij,n->ij", hess, normal)
    resid = np.max(np.linalg.norm(b @ w - jac.T @ (jac @ w) * kappas, axis=0))
    if resid > EIGEN_RESIDUAL_LIMIT * max(float(np.max(np.abs(b))), 1e-30):
        raise NumericsError(f"eigen residual {resid:.2e} above limit")
    return ShapeData(dim=M.dim, normal=normal, principal_curvatures=kappas,
                     principal_directions=directions, e1=float(np.sum(kappas)),
                     e2=_e2(kappas))


def synthetic_shape(kappas: Sequence[float]) -> ShapeData:
    """ShapeData from a bare curvature vector (for predicate checks)."""
    k = np.sort(np.asarray(kappas, dtype=float))[::-1]
    d = k.size
    directions = np.eye(d + 1)[:d]
    normal = np.eye(d + 1)[d]
    return ShapeData(dim=d, normal=normal, principal_curvatures=k,
                     principal_directions=directions,
                     e1=float(np.sum(k)), e2=_e2(k))


def _e2(kappas: np.ndarray) -> float:
    """e2 of one curvature vector by the product recursion, not Newton's."""
    e1 = e2 = 0.0
    for k in np.asarray(kappas, dtype=float):
        e1, e2 = e1 + k, e2 + k * e1
    return float(e2)


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
_DEGENERATE = 8
# (label, flags) indexed by the class code: flat*4 + umbilic*2 + equicurved,
# or _DEGENERATE for a node at the metric determinant floor
_CLASS_TABLE = tuple(
    (flags[0] if flags else "generic", flags)
    for flags in (tuple(name for name, bit in _FLAG_BITS if code & bit)
                  for code in range(_DEGENERATE))) + (("degenerate", ()),)
CLASS_NAMES = tuple(label for label, _ in _CLASS_TABLE)


def _class_codes(kappas, residual, spread, tol_eq, tol_umb):
    """The ``uint8`` class code of each row of ``kappas`` (N, d), from its
    (N,) data: ``flat*4 + umbilic*2 + equicurved``."""
    flat = np.max(np.abs(kappas), axis=-1) <= tol_umb
    umbilic = flat | (spread <= tol_umb)
    equicurved = flat | (np.abs(residual) <= tol_eq)
    if kappas.shape[-1] == 2:
        equicurved |= umbilic
    return (flat.view(np.uint8) << 2) | (umbilic.view(np.uint8) << 1) \
        | equicurved.view(np.uint8)


def _result_at(rows, idx: int, bracket: float | None = None
               ) -> EquicurvatureResult:
    """Row ``idx`` of a :class:`ScanResult` or :class:`RefinedZeros`."""
    label, flags = _CLASS_TABLE[rows.class_codes[idx]]
    return EquicurvatureResult(
        point=ChartPoint(0, rows.coords[idx]),
        kappas=rows.kappas[idx], e1=float(rows.e1[idx]),
        e2=float(rows.e2[idx]), residual=float(rows.residual[idx]),
        umbilic_spread=float(rows.umbilic_spread[idx]),
        classification=label, flags=flags, bracket=bracket)


class RefinedZeros(NamedTuple):
    """Refined zeros as arrays over their k rows, in ascending order of the
    coordinates: ``coords`` and ``kappas`` (k, d); ``e1``, ``e2``,
    ``residual``, ``umbilic_spread``, ``class_codes`` (indexing
    :data:`CLASS_NAMES`) and ``bracket`` (k,).  A named tuple, not a
    dataclass: it costs a tenth as much to define at import."""
    coords: np.ndarray
    kappas: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    residual: np.ndarray
    umbilic_spread: np.ndarray
    class_codes: np.ndarray
    bracket: np.ndarray

    @classmethod
    def empty(cls, d: int) -> RefinedZeros:
        rows = np.empty((0, d))
        flat = np.empty(0)
        return cls(rows, rows, flat, flat, flat, flat,
                   np.empty(0, dtype=np.uint8), flat)


@dataclass(frozen=True)
class ScanResult:
    """Grid scan output: raw grid rows plus refined near-zero locations.

    Each per-node quantity is one array over the nodes.  ``class_codes``
    holds one ``uint8`` code per node, indexing :data:`CLASS_NAMES`:
    ``flat*4 + umbilic*2 + equicurved`` for its flags, or 8 for
    ``degenerate``.  ``zero_index`` lists, in node order, the
    non-degenerate nodes whose residual passes the threshold.  ``refined``
    holds one refined point per ambient cluster of the near-zero locus, from
    Illinois iteration on the sign changes and golden-section search on the
    dips (coordinates may sit on the chart boundary when the locus runs into
    it); it has no rows when the scan ran without refinement.
    ``classification``, ``flags``, ``zero_set`` and ``refined_zeros`` are
    list views of these arrays, built on first use.
    """
    grid_shape: tuple[int, ...]
    coords: np.ndarray
    kappas: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    residual: np.ndarray
    umbilic_spread: np.ndarray
    class_codes: np.ndarray
    zero_index: np.ndarray
    refined: RefinedZeros

    @functools.cached_property
    def classification(self) -> list[str]:
        return [CLASS_NAMES[c] for c in self.class_codes.tolist()]

    @functools.cached_property
    def flags(self) -> list[tuple[str, ...]]:
        return [_CLASS_TABLE[c][1] for c in self.class_codes.tolist()]

    @functools.cached_property
    def zero_set(self) -> list[EquicurvatureResult]:
        return [_result_at(self, i) for i in self.zero_index.tolist()]

    @functools.cached_property
    def refined_zeros(self) -> list[EquicurvatureResult]:
        return [_result_at(self.refined, k, bracket)
                for k, bracket in enumerate(self.refined.bracket.tolist())]


def _grid_axes(chart, counts: Sequence[int]) -> list[np.ndarray]:
    if any(n < 2 for n in counts):
        raise ValidationError("grid needs at least 2 cells per axis")
    nodes = math.prod(n if p else n + 1 for n, p in zip(counts, chart.periodic))
    if nodes > _MAX_GRID_NODES:
        raise ValidationError(
            f"grid has {nodes} nodes, more than the {_MAX_GRID_NODES} allowed")
    axes = []
    for i, n in enumerate(counts):
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
    Illinois iteration over every edge at once, dips by golden-section search
    over every grid line at once); without it that list stays empty and the
    grid rows are unchanged.
    """
    if tol_eq is not None and not 0 <= tol_eq < np.inf:
        raise ValidationError("tol_eq must be finite and >= 0")
    _require_hypersurface(M)
    grid = [int(g) for g in grid]
    if len(grid) != M.dim:
        raise ValidationError(f"grid needs {M.dim} axis counts, got {len(grid)}")
    axes = _grid_axes(M.chart(0), grid)
    coords = np.asarray(TensorGrid.product(axes)).reshape(-1, M.dim)
    grid_shape = tuple(len(a) for a in axes)

    try:
        kappas, det_g = _grid_pass(M, axes)
    except np.linalg.LinAlgError:
        raise DegenerateChartError("metric not positive definite at a grid "
                                   "node") from None
    degenerate = det_g <= DET_FLOOR
    e1, e2, residual = _symmetric(kappas)
    spread = kappas[..., 0] - kappas[..., -1]
    tol_eq_arr, tol_umb_arr = _tolerances(e1, kappas, tol_eq)

    codes = _class_codes(kappas, residual, spread, tol_eq_arr, tol_umb_arr)
    codes[degenerate] = _DEGENERATE

    in_zero = (np.abs(residual) <= tol_eq_arr) & ~degenerate
    refined = (_refine_zeros(M, grid_shape, coords, residual, tol_eq_arr,
                             tol_eq, ~degenerate) if refine
               else RefinedZeros.empty(M.dim))
    return ScanResult(
        grid_shape=grid_shape, coords=coords, kappas=kappas, e1=e1, e2=e2,
        residual=residual, umbilic_spread=spread, class_codes=codes,
        zero_index=np.flatnonzero(in_zero), refined=refined)


def _refine_zeros(M, shape, coords, residual, tol_arr, tol_eq, valid):
    """Refine the zeros on grid edges between ``valid`` nodes.

    Edges whose ends change sign (neither end below threshold) go through one
    Illinois pass, and grid lines through a sub-threshold node through one
    golden-section dip search, each over all axes at once.  Candidates keep
    the order that clustering sees: per axis, its crossings, then its dip
    lines by their first near edge.  A dip candidate carries the threshold of
    the node that started its search; crossings and boundary-snapped dips
    carry an infinite one.
    """
    d = len(shape)
    res, tols, ok = (x.reshape(shape) for x in (residual, tol_arr, valid))
    near = (np.abs(res) <= tols) & ok
    pts = coords.reshape(shape + (d,))
    line_res = np.where(ok, np.abs(res), np.inf)
    ends, lines = [], []
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
        # the lines along this axis with a near edge, in the order of their
        # first near edge; each searches around its smallest residual
        n = shape[axis]
        dip = near[lead] | near[trail]
        line_of = np.arange(math.prod(shape) // n).reshape(
            shape[:axis] + shape[axis + 1:])
        key = np.broadcast_to(np.expand_dims(line_of, axis), dip.shape)[dip]
        key = key[np.sort(np.unique(key, return_index=True)[1])]

        def along(x):
            return np.moveaxis(x, axis, d - 1).reshape(
                (-1, n) + x.shape[d:])[key]

        j = np.argmin(along(line_res), axis=1)
        row, line_pts = np.arange(key.size), along(pts)
        bounded = not M.chart(0).periodic[axis]
        lines.append((np.full(key.size, axis),
                      line_pts[row, np.maximum(j - 1, 0)],
                      line_pts[row, np.minimum(j + 1, n - 1)],
                      (j == 0) & bounded, (j == n - 1) & bounded,
                      along(tols)[row, j]))
    zeros, brackets = _illinois(
        M, *(np.concatenate(parts) for parts in zip(*ends)))
    count = zeros.shape[0]
    crossings = (zeros, zeros, np.zeros(count, bool), brackets,
                 np.full(count, np.inf))
    axis, *line, tol = (np.concatenate(parts) for parts in zip(*lines))
    coords, at, snapped, bracket = _golden_dips(M, axis, *line)
    dips = (coords, at, snapped, bracket, np.where(snapped, np.inf, tol))
    # per axis (key 2 axis) its crossings, then (2 axis + 1) its dip lines
    order = np.argsort(np.concatenate([
        2 * np.repeat(np.arange(d), [e[2].size for e in ends]),
        2 * axis + 1]), kind="stable")
    return _cluster_refined(M, *(np.concatenate(pair)[order]
                                 for pair in zip(crossings, dips)), tol_eq)


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


def _golden_dips(M, axis, lo_pt, hi_pt, first, last):
    """Golden-section minima of the trace-form |residual| along chart lines.

    Line k runs along the chart axis ``axis[k]`` from ``lo_pt[k]`` to
    ``hi_pt[k]``, or on to the chart edge, less the ``_eval_floor`` offset,
    when ``first[k]`` or ``last[k]`` is set.  All lines take their steps
    together (Kiefer, Proc. AMS 4, 1953), one residual evaluation per step.
    When the residual plateaus at rounding level all the way into an edge,
    minimization cannot localize the zero; the edge itself is reported
    (snapped) then, with the floor offset as its bracket.  Otherwise the
    bracket is the final interval.  Returns ``(coords, at, snapped,
    bracket)``, ``at`` being where the residual is evaluable: ``coords``, or
    a snapped line's offset end.
    """
    chart = M.chart(0)
    row = np.arange(axis.size)
    edges = np.flatnonzero(first | last)
    floor = np.zeros(axis.size)
    for k in edges:
        floor[k] = _eval_floor(M, axis[k], lo_pt[k], at_low=bool(first[k]))
    a = np.where(first, chart.lo[axis] + floor, lo_pt[row, axis])
    b = np.where(last, chart.hi[axis] - floor, hi_pt[row, axis])
    edge = np.where(first, chart.lo[axis], chart.hi[axis])
    end = np.where(first, a, b)

    def residual(lines, t):
        """``(|e1^2 - 4 e2|, its rounding band)`` on ``lines`` at ``t``."""
        q = lo_pt[lines]
        q[np.arange(lines.size), axis[lines]] = t
        r, e1 = _trace_residual(M, q)
        return np.abs(r), 1e-12 * (1.0 + e1 ** 2)

    # residual already at rounding level against the edge: snap outright
    snapped = np.zeros(axis.size, bool)
    if edges.size:
        val, noise = residual(edges, end[edges])
        snapped[edges] = val <= 10.0 * noise
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = np.empty(axis.size), np.empty(axis.size)
    live = np.flatnonzero(~snapped)
    if live.size:
        f = residual(np.tile(live, 2), np.concatenate([c[live], d[live]]))[0]
        fc[live], fd[live] = np.split(f, 2)
    for _ in range(60):
        if not live.size:
            break
        left = fc[live] < fd[live]
        lo = np.where(left, a[live], c[live])
        hi = np.where(left, d[live], b[live])
        t = np.where(left, hi - phi * (hi - lo), lo + phi * (hi - lo))
        ft = residual(live, t)[0]
        c[live], d[live], fc[live], fd[live] = (
            np.where(left, t, d[live]), np.where(left, c[live], t),
            np.where(left, ft, fd[live]), np.where(left, fc[live], ft))
        a[live], b[live] = lo, hi
        live = live[~(np.abs(hi - lo) < 1e-9 * (1.0 + np.abs(lo)))]
    t = 0.5 * (a + b)
    # monotone descent into a degenerate edge: report the edge itself
    snapped |= (first | last) & (np.abs(t - end) <= 1e-6)
    coords = lo_pt.copy()
    coords[row, axis] = np.where(snapped, edge, t)
    at = coords.copy()
    at[row, axis] = np.where(snapped, end, t)
    return coords, at, snapped, np.where(snapped, floor, b - a)


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


def _cluster_refined(M, coords, at, snapped, bracket, tol, tol_eq):
    """Cluster refined points by ambient distance; keep best residual each.

    Candidate k lies at ``coords[k]``, and its residual is evaluated at
    ``at[k]``, which differs only for a dip snapped to a chart edge where the
    metric may be singular.  One reduction of all candidates gives their
    trace-form residuals and the curvatures of the chosen ones.  A candidate
    whose residual is above both its ``tol`` and the rounding-noise band is
    dropped first: a dip search that ended there found no zero.  Each
    cluster keeps one candidate (:func:`_representatives`).  Returns
    :class:`RefinedZeros`.
    """
    empty = RefinedZeros.empty(coords.shape[1])
    if not coords.shape[0]:
        return empty
    a = _reduced_forms(M.jacobian(0, at), M.hessian(0, at))[3]
    res, e1 = _trace_form(a)
    noise = 1e-10 * (1.0 + e1 * e1)
    keep = np.flatnonzero(np.abs(res) <= np.maximum(tol, noise))
    if not keep.size:
        return empty
    coords, snapped, bracket, a, res, noise = (
        x[keep] for x in (coords, snapped, bracket, a, res, noise))
    ambient = M.embed(0, coords)
    scale = np.max(np.abs(ambient)) + 1e-12
    rows = _representatives(_leader_clusters(ambient, 1e-3 * scale), res,
                            noise, snapped, coords)
    kappas = _eigvalsh_descending(a[rows])
    e1_rep, e2_rep, residual = _symmetric(kappas)
    spread = kappas[:, 0] - kappas[:, -1]
    codes = _class_codes(kappas, residual, spread,
                         *_tolerances(e1_rep, kappas, tol_eq))
    return RefinedZeros(coords[rows], kappas, e1_rep, e2_rep, residual, spread,
                        codes, bracket[rows])


def _representatives(clusters, res, noise, snapped, coords) -> np.ndarray:
    """One candidate per cluster, as indices in ascending order of their
    ``coords`` (N, d) (cluster order on equal coordinates).

    A cluster keeps the candidate that sorts first by the excess of
    ``|res|`` over the larger of its ``noise`` band and the cluster's best
    ``|res|``, then boundary-``snapped`` before not (a snapped candidate
    carries the exact boundary coordinate), then coordinates, then candidate
    order.  Both sorts are stable ``lexsort`` calls over every cluster at
    once; ``clusters`` are lists of candidate indices, each ascending.
    """
    label = np.empty(res.size, dtype=np.intp)
    label[np.concatenate(clusters)] = np.repeat(
        np.arange(len(clusters)), [len(c) for c in clusters])
    size = np.abs(res)
    best = np.full(len(clusters), np.inf)
    np.minimum.at(best, label, size)
    excess = np.maximum(size - np.maximum(best[label], noise), 0.0)
    order = np.lexsort((*coords.T[::-1], ~snapped, excess, label))
    first = np.ones(order.size, dtype=bool)
    np.not_equal(label[order[1:]], label[order[:-1]], out=first[1:])
    chosen = order[first]
    return chosen[np.lexsort(coords[chosen].T[::-1])]


def _leader_clusters(points: np.ndarray, radius: float) -> list[list[int]]:
    """Greedy leader clustering of the rows of ``points`` (N, n), in order.

    Each row joins the cluster of its nearest leader within ``radius`` (the
    lowest cluster index on a tie), or else leads a new cluster.  Only pairs
    closer than ``radius`` can join, and ``|p.(a - b)| <= |a - b|`` for any
    unit vector p, so one sort of the projections on p finds every such
    pair; p is ``(sqrt 2, sqrt 3, ...)`` normalised, a fixed direction that
    needs no random draw, and the window is widened to ``2 radius`` against
    rounding in the projections.  The window's pairs are formed a run of
    sorted positions at a time, about ``_PAIR_CHUNK`` pairs each, and only
    the near ones are kept.  Returns the clusters as lists of row indices.
    """
    count = points.shape[0]
    direction = np.sqrt(np.arange(2.0, points.shape[1] + 2.0))
    proj = points @ (direction / np.linalg.norm(direction))
    order = np.argsort(proj, kind="stable")
    start = np.searchsorted(proj[order], proj[order] - 2.0 * radius)
    # pairs (sorted position k, each earlier position in its window), with
    # before[k] the pairs of the positions ahead of k
    width = np.arange(count) - start
    before = np.concatenate(([0], np.cumsum(width)))
    his, los = [], []
    k0 = 0
    while k0 < count:
        k1 = max(k0 + 1, int(np.searchsorted(before, before[k0] + _PAIR_CHUNK,
                                             side="right")) - 1)
        w = width[k0:k1]
        later = np.repeat(np.arange(k0, k1), w)
        earlier = np.repeat(start[k0:k1] - before[k0:k1] + before[k0], w) \
            + np.arange(later.size)
        a, b = order[later], order[earlier]
        near = np.linalg.norm(points[a] - points[b], axis=1) <= radius
        his.append(np.maximum(a, b)[near])
        los.append(np.minimum(a, b)[near])
        k0 = k1
    hi, lo = np.concatenate(his), np.concatenate(los)
    by_row = np.lexsort((lo, hi))
    hi, lo = hi[by_row], lo[by_row]
    bounds = np.searchsorted(hi, np.arange(count + 1)).tolist()

    clusters: list[list[int]] = []
    leader_of = np.full(count, -1)       # cluster index of each leader row
    for r in range(count):
        if bounds[r] < bounds[r + 1]:
            leaders = lo[bounds[r]:bounds[r + 1]]
            leaders = leaders[leader_of[leaders] >= 0]
            if leaders.size:
                # leaders ascend, so argmin takes the lowest cluster on a tie
                dists = np.linalg.norm(points[leaders] - points[r], axis=1)
                clusters[leader_of[leaders[np.argmin(dists)]]].append(r)
                continue
        leader_of[r] = len(clusters)
        clusters.append([r])
    return clusters


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
    limit = float(richardson_step(eps, (fx - ladder.values) / eps)[-1])
    gap = abs(limit - lap)
    matches = first_order_check(limit, lap)[2]
    sd = shape_at(M, x)
    residual = equicurvature_residual(sd)
    equicurved = abs(residual) <= 1e-6 * (1.0 + sd.e1 ** 2)
    return LimitCriterionReport(limit=limit, laplacian=lap, gap=gap,
                                matches_laplacian=bool(matches),
                                equicurved=bool(equicurved),
                                residual=residual)
