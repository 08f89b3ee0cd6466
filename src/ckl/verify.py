"""One table of invariant checks for ``ckl verify`` and the acceptance tests.

Each of the 18 checks in :data:`CHECKS` takes a :class:`Size`.
:func:`run_all` runs the table at ``FAST`` for the ``verify`` subcommand,
which prints one fixed-format row per check and exits nonzero when any fails;
``tests/test_acceptance.py`` runs every row at ``FULL``, the paper's stated
sizes and tolerances.  A check reads its numbers from the size it is given
and never branches on which one it got; every case outside :class:`Size` is
the same at both.  A failed check's detail names the cases that failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .catalog import catalog_manifold
from .coeffs import a1_closed_form, expansion_from_taylor, sphere_taylor_data
from .fields import AmbientCoordField, ConstField
from .fit import compare_closed_form, fit_polynomial
from .manifold import (
    ChartPoint,
    chord_expansion_check,
    curvature_at,
    geodesic_shoot,
    ricci_frame,
    scalar_curvature_intrinsic,
    volume_density,
)
from .moments import (
    HomogeneousPoly,
    bell_generating_check,
    bell_partial,
    c_p,
    poly_mul,
    radial_power,
    sphere_moment,
)
from .operator import apply_operator, build_full_rule, eps_sweep
from .hypersurface import (
    check_propositions,
    limit_criterion_check,
    scan_equicurved,
    shape_at,
    synthetic_shape,
)

SEED = 42


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _even_multi_indices(d: int, total: int) -> list[tuple[int, ...]]:
    """Every length-``d`` multi-index of even entries summing to at most
    ``total``, in lexicographic order."""
    if d == 0:
        return [()]
    return [(a,) + rest for a in range(0, total + 1, 2)
            for rest in _even_multi_indices(d - 1, total - a)]


@dataclass(frozen=True)
class Size:
    """What a check may vary with its size; nothing else differs."""
    cp_eps_count: int                       # bandwidths per (p, d, delta)
    mc_samples: int                         # Monte Carlo draws per dimension
    mc_alphas: dict[int, list[tuple[int, ...]]]     # dimension -> moments
    scans: tuple[tuple[str, tuple[int, ...], bool], ...]  # (name, grid, refine)
    density_radii: int                      # radii in [0.05, 0.3] per density


FAST = Size(
    cp_eps_count=7,
    mc_samples=200_000,
    mc_alphas={d: [(2,) + (0,) * (d - 1), (4,) + (0,) * (d - 1),
                   (2, 2) + (0,) * (d - 2), (4, 2) + (0,) * (d - 2)]
               for d in (2, 3, 4)},
    scans=(("sphere2", (30, 15), False), ("torus", (30, 15), False)),
    density_radii=4,
)

FULL = Size(
    cp_eps_count=9,
    mc_samples=1_000_000,
    mc_alphas={d: _even_multi_indices(d, 8) for d in range(1, 6)},
    scans=(("sphere2", (200, 100), False), ("quadric411", (50, 50, 50), True),
           ("spheroid", (60, 30), True), ("torus", (60, 30), True)),
    density_radii=8,
)


def _outcome(detail: str, failed: list[str]) -> tuple[bool, str]:
    """``(passed, detail)``: a check passes when no case failed, and a failed
    check's detail ends with the cases that failed."""
    if not failed:
        return True, detail
    return False, f"{detail}; failed: {', '.join(failed)}"


def _largest(gaps: dict[str, float], tol: float, detail: str
             ) -> tuple[bool, str]:
    """Every case's gap at most ``tol``; ``detail`` formats the largest."""
    failed = [case for case, gap in gaps.items() if not gap <= tol]
    return _outcome(detail.format(max(gaps.values())), failed)


def _bell_generating(size: Size) -> tuple[bool, str]:
    rng = np.random.default_rng(SEED)
    gaps = {}
    for draw in range(20):
        xs = rng.uniform(-1.5, 1.5, size=8)
        lhs, rhs = bell_generating_check(xs, rng.uniform(-2, 2),
                                         rng.uniform(-0.1, 0.1), 8)
        gaps[f"draw {draw}"] = abs(lhs - rhs)
    return _largest(gaps, 1e-11, "max |lhs-rhs| = {:.2e}")


def _bell_vanishing(size: Size) -> tuple[bool, str]:
    """The closed forms of B_{4,1} and B_{4,2}, and b_{m,k} = 0 for m < 4k
    (m <= 12) when the slots below degree 4 vanish."""
    failed = []
    xs = [HomogeneousPoly.variable(4, i) for i in range(4)]
    if bell_partial(4, 1, xs) != xs[3]:
        failed.append("B_{4,1}")
    if bell_partial(4, 2, xs[:3]).terms != {(0, 2, 0, 0): 3.0,
                                            (1, 0, 1, 0): 4.0}:
        failed.append("B_{4,2}")
    x0 = HomogeneousPoly.variable(2, 0)
    slots = [HomogeneousPoly.zero(2, i) if i < 4
             else radial_power(2, i, 0.5 + 0.1 * i) if i % 2 == 0
             else poly_mul(x0, radial_power(2, i - 1)) for i in range(1, 13)]
    for m in range(1, 13):
        for k in range(1, m + 1):
            b = bell_partial(m, k, slots[: m - k + 1])
            if m < 4 * k and not (isinstance(b, HomogeneousPoly)
                                  and b.is_zero()):
                failed.append(f"b_{{{m},{k}}}")
    return _outcome("b_{m,k} = 0 for m < 4k", failed)


def _sphere_moments(size: Size) -> tuple[bool, str]:
    """Closed-form monomial averages on S^(d-1) against Monte Carlo, each
    within max(4 standard errors, 1e-12)."""
    rng = np.random.default_rng(SEED)
    n = size.mc_samples
    worst, failed = 0.0, []
    for d, alphas in size.mc_alphas.items():
        v = rng.standard_normal((n, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        powers = {}                 # (axis, exponent) -> column power
        for alpha in alphas:
            mono = np.ones(n)
            for i, a in enumerate(alpha):
                if a:
                    if (i, a) not in powers:
                        powers[i, a] = v[:, i] ** a
                    mono *= powers[i, a]
            se = mono.std(ddof=1) / math.sqrt(n)
            err = abs(mono.mean() - sphere_moment(alpha, d))
            if se > 0:
                worst = max(worst, err / se)
            if not err <= max(4.0 * se, 1e-12):
                failed.append(f"alpha = {alpha}")
    return _outcome(f"max z-score = {worst:.2f}", failed)


def _cp_bound(size: Size) -> tuple[bool, str]:
    count, failed = 0, []
    for p in range(5):
        for d in range(1, 5):
            for delta in (0.3, 0.5, 1.0):
                for eps in np.geomspace(1e-3, 1e-1, size.cp_eps_count):
                    est = c_p(p, float(eps), delta, d)
                    count += 1
                    if not abs(est.value - est.main_term) <= est.bound:
                        failed.append(f"p={p}, d={d}, delta={delta}, "
                                      f"eps={eps:.3g}")
    return _outcome(f"{count} grid points", failed)


def _metric_frames(size: Size) -> tuple[bool, str]:
    rng = np.random.default_rng(SEED)
    worst, failed = 0.0, []
    for name in ("sphere2", "sphere3", "torus", "spheroid", "quadric411"):
        M = catalog_manifold(name)
        chart = M.charts[0]
        lo = chart.lo + 0.15 * (chart.hi - chart.lo)
        hi = chart.hi - 0.15 * (chart.hi - chart.lo)
        pts = rng.uniform(lo, hi, size=(200, M.dim))
        q, _ = np.linalg.qr(M.jacobian(0, pts))
        dev = float(np.max(np.abs(np.einsum("bni,bnj->bij", q, q)
                                  - np.eye(M.dim))))
        worst = max(worst, dev)
        if not (np.min(np.linalg.eigvalsh(M.metric(0, pts))) > 0
                and dev <= 1e-8):
            failed.append(name)
    return _outcome(f"max frame deviation = {worst:.2e}", failed)


def _gauss_consistency(size: Size) -> tuple[bool, str]:
    gaps = {}
    for name, coords in (("sphere2", [1.2, 0.7]), ("torus", [0.5, 1.1]),
                         ("quadric411", [0.2, -0.1, 0.15])):
        M = catalog_manifold(name)
        p = ChartPoint(0, coords)
        extr = curvature_at(M, p).scalar_curvature
        gaps[name] = (abs(extr - scalar_curvature_intrinsic(M, p))
                      / max(1.0, abs(extr)))
    return _largest(gaps, 1e-12, "max relative gap = {:.2e}")


def _geodesic_speed(size: Size) -> tuple[bool, str]:
    M = catalog_manifold("torus")
    path = geodesic_shoot(M, ChartPoint(0, [0.4, 1.1]),
                          np.array([0.28, 0.96]), 0.8, steps=800)
    drift = max(abs(np.linalg.norm(s.velocity) - 1.0) for s in path.states)
    return drift <= 1e-7, f"max drift = {drift:.2e}"


def _chord_expansion(size: Size) -> tuple[bool, str]:
    """|y(s) - x|^2 = g2 s^2 + g4 s^4 + O(s^6) along a unit-speed geodesic,
    with g2 = 2 and g4 = -2 |II(v, v)|^2; the pass detail is the sphere's."""
    failed, fits = [], []
    for label, name, coords, v, g4_known in (
            ("sphere", "sphere2", [math.pi / 2, 1.0], [0.6, 0.8], -2.0),
            ("torus meridian", "torus", [1.0, 0.0], [0.0, 1.0], -2.0),
            ("torus generic", "torus", [1.0, 0.7], [0.6, 0.8], None)):
        M, x, v = catalog_manifold(name), ChartPoint(0, coords), np.array(v)
        ce = chord_expansion_check(M, x, v, np.geomspace(0.02, 0.25, 12))
        sff = np.moveaxis(curvature_at(M, x).sff, -1, 0)
        bvv = np.einsum("nab,a,b->n", sff, v, v)
        g4_ref = -2.0 * float(bvv @ bvv)
        fits.append(ce)
        if not (abs(ce.g2 - 2.0) <= 1e-6 and abs(ce.g4 - g4_ref) <= 1e-4
                and ce.residual_exponent >= 4.9
                and (g4_known is None or abs(g4_ref - g4_known) <= 1e-12)):
            failed.append(label)
    sphere = fits[0]
    return _outcome(f"g2 = {sphere.g2:.8f}, g4 = {sphere.g4:.6f}, "
                    f"slope = {sphere.residual_exponent:.2f}", failed)


def _volume_density(size: Size) -> tuple[bool, str]:
    M = catalog_manifold("sphere2")
    rho = volume_density(M, ChartPoint(0, [math.pi / 2, 1.0]),
                         np.array([0.6, 0.8]), 0.3)
    err = abs(rho - math.sin(0.3) / 0.3)
    return err <= 1e-12, f"|rho - sin(s)/s| = {err:.2e}"


def _density_terms(size: Size) -> tuple[bool, str]:
    """The density along v is 1 - Ric(v, v) s^2 / 6 + O(s^4): the residual
    falls with log-log slope >= 2.9 over at least four radii above 1e-11, on
    S2, S3 and the torus; on S2 the s^4 term is within 5% of 1/120."""
    radii = np.geomspace(0.05, 0.3, size.density_radii)
    slopes, failed = [], []
    for case, name, coords, v in (
            ("S2", "sphere2", [math.pi / 2, 1.0], [0.6, 0.8]),
            ("S3", "sphere3", [1.4, 1.2, 0.8], [0.0, 0.6, 0.8]),
            ("torus", "torus", [1.0, 0.7], [0.6, 0.8])):
        M, x, v = catalog_manifold(name), ChartPoint(0, coords), np.array(v)
        dens = np.array([volume_density(M, x, v, float(s)) for s in radii])
        rho2_v = float(-v @ ricci_frame(M, x) @ v / 3.0)
        resid = dens - (1.0 + rho2_v * radii ** 2 / 2.0)
        above = np.abs(resid) > 1e-11
        slope = (np.polyfit(np.log(radii[above]),
                            np.log(np.abs(resid[above])), 1)[0]
                 if np.count_nonzero(above) >= 4 else math.nan)
        slopes.append(f"{slope:.2f}")
        if not slope >= 2.9:
            failed.append(case)
        if case == "S2":
            design = np.stack([radii ** 4, radii ** 6], axis=1)
            c4 = np.linalg.lstsq(design, dens - (1.0 - radii ** 2 / 6.0),
                                 rcond=None)[0][0]
            if not abs(c4 - 1.0 / 120.0) <= 0.05 / 120.0:
                failed.append("S2 quartic")
    return _outcome(f"slopes = {', '.join(slopes)}, S2 s^4 term = {c4:.6f}",
                    failed)


def _sphere_operator(size: Size) -> tuple[bool, str]:
    M = catalog_manifold("sphere2")
    p = ChartPoint(0, [math.pi / 2, 1.0])
    gaps = {}
    for k in range(7):
        eps = 0.1 * 2.0 ** -k
        value, _ = apply_operator(M, ConstField(1.0), p, eps)
        gaps[f"eps={eps:g}"] = abs(value - (1.0 - math.exp(-1.0 / eps)))
    return _largest(gaps, 1e-8, "max |err| = {:.2e}")


# case -> (manifold, field, point, fit degree, a_1, *eps_sweep options), the
# options being _LADDER when none are given; the quadric's higher
# coefficients grow like kappa^2 per order, so its ladder runs to the
# resolvability floor at a higher quadrature order
_LADDER = [0.1 * 2.0 ** -k for k in range(8)]
_SWEEPS = {
    "S2 f=1": ("sphere2", ConstField(1.0), [math.pi / 2, 1.0], 3, 0.0),
    "S2 f=z": ("sphere2", AmbientCoordField(3, 3), [math.acos(0.6), 1.0], 3,
               -1.2),
    "S3 f=1": ("sphere3", ConstField(1.0), [math.pi / 2, math.pi / 2, 1.0], 3,
               -0.75),
    "torus f=1": ("torus", ConstField(1.0), [0.3, 0.0], 3, 1.0 / 9.0),
    "quadric f=1": ("quadric411", ConstField(1.0), [0.0, 0.0, 0.0], 4, 0.0,
                    [1.1313708498984761e-3 * 2.0 ** (-k / 2.0)
                     for k in range(8)], 96),
}


def _sweep(case: str):
    """``(M, f, x, ladder)`` of one case of :data:`_SWEEPS`."""
    name, f, coords, _, _, *options = _SWEEPS[case]
    M, x = catalog_manifold(name), ChartPoint(0, coords)
    return M, f, x, eps_sweep(M, f, x, *(options or [_LADDER]))


def _leading_coefficients(size: Size) -> tuple[bool, str]:
    """a_0 and a_1 fitted to each sweep pass :func:`compare_closed_form`, and
    the closed-form a_1 is within 2e-6 of the case's stated value."""
    worst, failed = 0.0, []
    for case, (_, _, _, degree, a1, *_) in _SWEEPS.items():
        M, f, x, ladder = _sweep(case)
        cmp = compare_closed_form(M, f, x, fit_polynomial(ladder, degree))
        worst = max(worst, cmp.a1_error)
        if not (abs(cmp.a1_reference - a1) <= 2e-6 and cmp.a0_passed
                and cmp.a1_passed):
            failed.append(case)
    return _outcome(f"max a1 error = {worst:.1e}", failed)


def _limit_criterion(size: Size) -> tuple[bool, str]:
    """(f - K_eps f) / eps tends to the Laplace-Beltrami value at equicurved
    points of S2 (f = z: within 2% of 1.2) and misses it on the torus, by a
    gap of at least 0.05 and within 0.01 of 1/9."""
    one, z, torus = (limit_criterion_check(*_sweep(case))
                     for case in ("S2 f=1", "S2 f=z", "torus f=1"))
    failed = [case for case, ok in (
        ("S2 f=1", one.equicurved and one.matches_laplacian),
        ("S2 f=z", z.equicurved and z.matches_laplacian
         and abs(z.limit - 1.2) <= 0.02 * 1.2),
        ("torus f=1", not torus.equicurved and not torus.matches_laplacian
         and torus.gap >= 0.05 and abs(torus.gap - 1.0 / 9.0) <= 0.01))
        if not ok]
    return _outcome(f"S2 gaps = {one.gap:.1e}, {z.gap:.1e}, "
                    f"torus gap = {torus.gap:.4f}", failed)


def _engine_s3(size: Size) -> tuple[bool, str]:
    ec = expansion_from_taylor(sphere_taylor_data(3, 1.0, max_degree=8), 1)
    err = max(abs(ec.values[0] - 1.0), abs(ec.values[1] + 0.75))
    return err <= 1e-9, f"a = ({ec.values[0]:.10f}, {ec.values[1]:.10f})"


def _engine_vs_closed_form(size: Size) -> tuple[bool, str]:
    gaps = {}
    for dim, name, coords in ((2, "sphere2", [math.pi / 2, 1.0]),
                              (3, "sphere3", [math.pi / 2, math.pi / 2, 1.0])):
        engine = expansion_from_taylor(
            sphere_taylor_data(dim, 1.0, max_degree=8), 1).values[1]
        gaps[name] = abs(engine - a1_closed_form(
            catalog_manifold(name), ConstField(1.0), ChartPoint(0, coords)))
    return _largest(gaps, 1e-9, "max gap = {:.2e}")


def _sphere_scan(scan) -> tuple[bool, str]:
    worst = float(np.max(np.abs(scan.residual)))
    return worst < 1e-10, f"sphere max = {worst:.1e}"


def _quadric_scan(scan) -> tuple[bool, str]:
    hits = [r for r in scan.zero_set if np.linalg.norm(r.point.coords) < 1e-12]
    dev = (float(np.max(np.abs(hits[0].kappas - [4.0, 1.0, 1.0])))
           if hits else math.inf)
    return (len(hits) == 1 and dev <= 1e-8,
            f"quadric origin kappa dev = {dev:.1e}")


def _spheroid_scan(scan) -> tuple[bool, str]:
    thetas = sorted(float(r.point.coords[0]) for r in scan.refined_zeros)
    ok = (len(thetas) == 2 and abs(thetas[0]) <= 1e-6
          and abs(thetas[1] - math.pi) <= 1e-6)
    return ok, "spheroid zeros at theta = " + ", ".join(f"{t:.6f}"
                                                         for t in thetas)


def _torus_scan(scan) -> tuple[bool, str]:
    low = float(np.min(np.abs(scan.residual)))
    return len(scan.zero_set) == 0 and low > 0.05, f"torus min = {low:.2f}"


# what each scanned manifold must show: the sphere equicurved everywhere, the
# quadric only at its origin, the spheroid at its two poles, the torus nowhere
_SCAN_EXPECTED = {"sphere2": _sphere_scan, "quadric411": _quadric_scan,
                  "spheroid": _spheroid_scan, "torus": _torus_scan}


def _scans(size: Size) -> tuple[bool, str]:
    failed, details = [], []
    for name, grid, refine in size.scans:
        ok, detail = _SCAN_EXPECTED[name](
            scan_equicurved(catalog_manifold(name), grid, refine=refine))
        details.append(detail)
        if not ok:
            failed.append(f"{name} {'x'.join(map(str, grid))}")
    return _outcome(", ".join(details), failed)


def _propositions(size: Size) -> tuple[bool, str]:
    """Each case's three verdicts, from minimal, scalar-flat and (d >= 3)
    umbilic premises, with no implication violated."""
    hold, na = "holds", "not_applicable"
    failed = []
    for label, shape, expected in (
            ("plane", shape_at(catalog_manifold("plane"),
                               ChartPoint(0, [0.2, -0.4])), (hold, hold, na)),
            ("quadric origin", shape_at(catalog_manifold("quadric411"),
                                        ChartPoint(0, [0.0, 0.0, 0.0])),
             (na, na, na)),
            ("flat", synthetic_shape([0.0, 0.0, 0.0]), (hold, hold, hold)),
            ("equicurved non-minimal", synthetic_shape([4.0, 1.0, 1.0]),
             (na, na, na)),
            ("minimal", synthetic_shape([1.0, -1.0]), (na, na, na)),
            ("umbilic", synthetic_shape([2.0, 2.0, 2.0]), (na, na, na))):
        report = check_propositions(shape)
        if not (report.passed
                and tuple(c.status for c in report.checks) == expected):
            failed.append(label)
    return _outcome("flat holds, equicurved non-minimal not applicable",
                    failed)


def _error_cover(size: Size) -> tuple[bool, str]:
    # the reference resolves the kernel down to eps = 2.5e-4: 2048 trapezoid
    # nodes on u put 2.4 nodes in the kernel's width sqrt(2 eps) there (512
    # put 0.6, and miss by 1e-3)
    M = catalog_manifold("torus")
    x, one = ChartPoint(0, [0.3, 0.0]), ConstField(1.0)
    ladder = eps_sweep(M, one, x, [0.004 * 2.0 ** -k for k in range(5)])
    reference = build_full_rule(M, axis_orders=(2048, 512))
    worst, failed = 0.0, []
    for s in ladder.samples:
        gap = abs(s.value - apply_operator(M, one, x, s.eps, reference)[0])
        worst = max(worst, gap)
        if not gap <= s.tail_bound + s.quad_error + 1e-14:
            failed.append(f"eps={s.eps:g}")
    return _outcome(f"max |value - reference| = {worst:.1e}", failed)


CHECKS: dict[str, Callable[[Size], tuple[bool, str]]] = {
    "bell-generating-identity": _bell_generating,
    "bell-vanishing-below-4k": _bell_vanishing,
    "sphere-moments-vs-monte-carlo": _sphere_moments,
    "cp-lemma-bound": _cp_bound,
    "metric-spd-frames": _metric_frames,
    "gauss-equation-consistency": _gauss_consistency,
    "geodesic-unit-speed": _geodesic_speed,
    "chord-expansion-sphere": _chord_expansion,
    "volume-density-sphere": _volume_density,
    "volume-density-terms": _density_terms,
    "sphere-operator-closed-form": _sphere_operator,
    "leading-coefficients": _leading_coefficients,
    "limit-criterion": _limit_criterion,
    "engine-three-sphere": _engine_s3,
    "engine-matches-closed-form": _engine_vs_closed_form,
    "equicurvature-scans": _scans,
    "curvature-propositions": _propositions,
    "tail-quad-error-cover": _error_cover,
}


def run_all() -> list[CheckResult]:
    return [CheckResult(name, *check(FAST)) for name, check in CHECKS.items()]


def format_table(results: list[CheckResult]) -> str:
    lines = [f"{'CHECK':<34} {'STATUS':<6} DETAIL"]
    for r in results:
        lines.append(f"{r.name:<34} {'PASS' if r.passed else 'FAIL':<6} "
                     f"{r.detail}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
