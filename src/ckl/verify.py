"""Self-contained invariant suite behind the ``verify`` subcommand.

Each check is a fast, deterministic re-statement of a library invariant;
the CLI prints one fixed-format row per check and exits nonzero when any
fails.  The pytest suite covers the same ground (and more) at full depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .catalog import catalog_manifold
from .coeffs import a1_closed_form, expansion_from_taylor, sphere_taylor_data
from .fields import ConstField
from .manifold import (
    ChartPoint,
    chord_expansion_check,
    curvature_at,
    geodesic_shoot,
    scalar_curvature_intrinsic,
    volume_density,
)
from .moments import bell_partial, bell_generating_check, c_p, sphere_moment
from .operator import apply_operator, build_full_rule, eps_sweep
from .hypersurface import (
    check_propositions,
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


def _check_bell_generating() -> CheckResult:
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(20):
        xs = rng.uniform(-1.5, 1.5, size=8)
        lhs, rhs = bell_generating_check(xs, rng.uniform(-2, 2),
                                         rng.uniform(-0.1, 0.1), 8)
        worst = max(worst, abs(lhs - rhs))
    return CheckResult("bell-generating-identity", worst <= 1e-11,
                       f"max |lhs-rhs| = {worst:.2e}")


def _check_bell_vanishing() -> CheckResult:
    from .moments import HomogeneousPoly, poly_mul, radial_power

    def slot(i):
        if i < 4:
            return HomogeneousPoly.zero(2, i)
        if i % 2 == 0:
            return radial_power(2, i, 0.5 + 0.1 * i)
        return poly_mul(HomogeneousPoly.variable(2, 0), radial_power(2, i - 1))

    ok = True
    for m in range(4, 13):
        for k in range(1, m + 1):
            b = bell_partial(m, k, [slot(i) for i in range(1, m - k + 2)])
            if m < 4 * k and not b.is_zero():
                ok = False
    return CheckResult("bell-vanishing-below-4k", ok, "b_{m,k} = 0 for m < 4k")


def _check_sphere_moment_monte_carlo() -> CheckResult:
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for d in (2, 3, 4):
        n = 200_000
        v = rng.standard_normal((n, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        for alpha in [(2,) + (0,) * (d - 1), (4,) + (0,) * (d - 1),
                      (2, 2) + (0,) * (d - 2), (4, 2) + (0,) * (d - 2)]:
            mono = np.ones(n)
            for i, a in enumerate(alpha):
                if a:
                    mono *= v[:, i] ** a
            z = abs(mono.mean() - sphere_moment(alpha, d)) \
                / (mono.std(ddof=1) / math.sqrt(n))
            worst = max(worst, z)
    return CheckResult("sphere-moments-vs-monte-carlo", worst <= 4.0,
                       f"max z-score = {worst:.2f}")


def _check_cp_bound() -> CheckResult:
    count = 0
    for p in range(5):
        for d in range(1, 5):
            for delta in (0.3, 0.5, 1.0):
                for eps in np.geomspace(1e-3, 1e-1, 7):
                    est = c_p(p, float(eps), delta, d)
                    count += 1
                    if not abs(est.value - est.main_term) <= est.bound:
                        return CheckResult("cp-lemma-bound", False,
                                           f"violated at p={p}, d={d}")
    return CheckResult("cp-lemma-bound", True, f"{count} grid points")


def _check_metric_frames() -> CheckResult:
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for name in ("sphere2", "sphere3", "torus", "spheroid", "quadric411"):
        M = catalog_manifold(name)
        chart = M.charts[0]
        lo = chart.lo + 0.15 * (chart.hi - chart.lo)
        hi = chart.hi - 0.15 * (chart.hi - chart.lo)
        pts = rng.uniform(lo, hi, size=(200, M.dim))
        g = M.metric(0, pts)
        if np.min(np.linalg.eigvalsh(g)) <= 0:
            return CheckResult("metric-spd-frames", False, f"{name} not SPD")
        q, _ = np.linalg.qr(M.jacobian(0, pts))
        dev = np.max(np.abs(np.einsum("bni,bnj->bij", q, q) - np.eye(M.dim)))
        worst = max(worst, float(dev))
    return CheckResult("metric-spd-frames", worst <= 1e-8,
                       f"max frame deviation = {worst:.2e}")


def _check_gauss_consistency() -> CheckResult:
    worst = 0.0
    for name, coords in (("sphere2", [1.2, 0.7]), ("torus", [0.5, 1.1]),
                         ("quadric411", [0.2, -0.1, 0.15])):
        M = catalog_manifold(name)
        p = ChartPoint(0, coords)
        extr = curvature_at(M, p).scalar_curvature
        intr = scalar_curvature_intrinsic(M, p)
        worst = max(worst, abs(extr - intr) / max(1.0, abs(extr)))
    return CheckResult("gauss-equation-consistency", worst <= 1e-7,
                       f"max relative gap = {worst:.2e}")


def _check_geodesic_speed() -> CheckResult:
    M = catalog_manifold("torus")
    path = geodesic_shoot(M, ChartPoint(0, [0.4, 1.1]),
                          np.array([0.28, 0.96]), 0.8, steps=800)
    drift = max(abs(np.linalg.norm(s.velocity) - 1.0) for s in path.states)
    return CheckResult("geodesic-unit-speed", drift <= 1e-7,
                       f"max drift = {drift:.2e}")


def _check_chord_expansion() -> CheckResult:
    M = catalog_manifold("sphere2")
    ce = chord_expansion_check(M, ChartPoint(0, [math.pi / 2, 1.0]),
                               np.array([0.6, 0.8]), np.geomspace(0.02, 0.25, 12))
    ok = (abs(ce.g2 - 2.0) <= 1e-6 and abs(ce.g4 + 2.0) <= 1e-4
          and ce.residual_exponent >= 4.9)
    return CheckResult("chord-expansion-sphere", ok,
                       f"g2 = {ce.g2:.8f}, g4 = {ce.g4:.6f}, "
                       f"slope = {ce.residual_exponent:.2f}")


def _check_volume_density() -> CheckResult:
    M = catalog_manifold("sphere2")
    rho = volume_density(M, ChartPoint(0, [math.pi / 2, 1.0]),
                         np.array([0.6, 0.8]), 0.3)
    err = abs(rho - math.sin(0.3) / 0.3)
    return CheckResult("volume-density-sphere", err <= 1e-8,
                       f"|rho - sin(s)/s| = {err:.2e}")


def _check_sphere_operator() -> CheckResult:
    M = catalog_manifold("sphere2")
    p = ChartPoint(0, [math.pi / 2, 1.0])
    worst = 0.0
    for k in range(7):
        eps = 0.1 * 2.0 ** -k
        value, _ = apply_operator(M, ConstField(1.0), p, eps)
        worst = max(worst, abs(value - (1.0 - math.exp(-1.0 / eps))))
    return CheckResult("sphere-operator-closed-form", worst <= 1e-8,
                       f"max |err| = {worst:.2e}")


def _check_engine_s3() -> CheckResult:
    ec = expansion_from_taylor(sphere_taylor_data(3, 1.0, max_degree=8), 1)
    err = max(abs(ec.values[0] - 1.0), abs(ec.values[1] + 0.75))
    return CheckResult("engine-three-sphere", err <= 1e-9,
                       f"a = ({ec.values[0]:.10f}, {ec.values[1]:.10f})")


def _check_engine_vs_closed_form() -> CheckResult:
    worst = 0.0
    for dim, name, coords in ((2, "sphere2", [math.pi / 2, 1.0]),
                              (3, "sphere3", [math.pi / 2, math.pi / 2, 1.0])):
        engine = expansion_from_taylor(
            sphere_taylor_data(dim, 1.0, max_degree=8), 1).values[1]
        closed = a1_closed_form(catalog_manifold(name), ConstField(1.0),
                                ChartPoint(0, coords))
        worst = max(worst, abs(engine - closed))
    return CheckResult("engine-matches-closed-form", worst <= 1e-9,
                       f"max gap = {worst:.2e}")


def _check_scans() -> CheckResult:
    sphere = scan_equicurved(catalog_manifold("sphere2"), [30, 15], refine=False)
    torus = scan_equicurved(catalog_manifold("torus"), [30, 15], refine=False)
    ok = (np.max(np.abs(sphere.residual)) < 1e-10
          and len(torus.zero_set) == 0
          and np.min(np.abs(torus.residual)) > 0.05)
    return CheckResult("equicurvature-scans", ok,
                       f"sphere max = {np.max(np.abs(sphere.residual)):.1e}, "
                       f"torus min = {np.min(np.abs(torus.residual)):.2f}")


def _check_propositions() -> CheckResult:
    flat = check_propositions(synthetic_shape([0.0, 0.0, 0.0]))
    quadric = check_propositions(synthetic_shape([4.0, 1.0, 1.0]))
    ok = (flat.passed and all(c.status == "holds" for c in flat.checks)
          and quadric.passed
          and all(c.status == "not_applicable" for c in quadric.checks))
    return CheckResult("curvature-propositions", ok,
                       "flat holds, equicurved non-minimal not applicable")


def _check_error_cover() -> CheckResult:
    # the reference resolves the kernel down to eps = 2.5e-4: 2048 trapezoid
    # nodes on u put 2.4 nodes in the kernel's width sqrt(2 eps) there (512
    # put 0.6, and miss by 1e-3)
    M = catalog_manifold("torus")
    x, one = ChartPoint(0, [0.3, 0.0]), ConstField(1.0)
    ladder = eps_sweep(M, one, x, [0.004 * 2.0 ** -k for k in range(5)])
    reference = build_full_rule(M, axis_orders=(2048, 512))
    ok, worst = True, 0.0
    for s in ladder.samples:
        gap = abs(s.value - apply_operator(M, one, x, s.eps, reference)[0])
        ok = ok and gap <= s.tail_bound + s.quad_error + 1e-14
        worst = max(worst, gap)
    return CheckResult("tail-quad-error-cover", ok,
                       f"max |value - reference| = {worst:.1e}")


ALL_CHECKS: list[Callable[[], CheckResult]] = [
    _check_bell_generating,
    _check_bell_vanishing,
    _check_sphere_moment_monte_carlo,
    _check_cp_bound,
    _check_metric_frames,
    _check_gauss_consistency,
    _check_geodesic_speed,
    _check_chord_expansion,
    _check_volume_density,
    _check_sphere_operator,
    _check_engine_s3,
    _check_engine_vs_closed_form,
    _check_scans,
    _check_propositions,
    _check_error_cover,
]


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]


def format_table(results: list[CheckResult]) -> str:
    lines = [f"{'CHECK':<34} {'STATUS':<6} DETAIL"]
    for r in results:
        lines.append(f"{r.name:<34} {'PASS' if r.passed else 'FAIL':<6} "
                     f"{r.detail}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
