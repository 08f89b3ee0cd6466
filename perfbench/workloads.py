"""The benchmark's workloads: seeded op lists and each op's reference check.

An op is one user-visible unit of work.  Most ops are CLI invocations through
``ckl.cli.main``; the cases the CLI cannot express (a fit against a chosen
ladder, the exact coefficient engine) call the library directly.  Every ckl
function is looked up through its module at call time, so timing wrappers
installed by ``tracer.py`` see the calls.

Each op's check compares its output with an analytic reference and returns
the accuracy columns plus, for references with a fixed tolerance, the ratio
``error / tolerance`` that feeds the ``tol_headroom`` metric.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import ive

from ckl import catalog, cli, coeffs, fields, fit, manifold, operator

LADDER8 = [0.1 * 2.0 ** -k for k in range(8)]
# the acceptance suite's quadric ladder: ratio sqrt(2) down to the floor
QUADRIC_LADDER = [1.1313708498984761e-3 * 2.0 ** (-k / 2.0) for k in range(8)]

# tolerances of the acceptance suite (README "Install and test")
SPHERE_TOL = 1e-8
A0_TOL = 1e-6
A1_REL_TOL = 0.02
A1_ABS_TOL = 1e-3
ENGINE_TOL = 1e-9
POLE_TOL = 1e-6
KAPPA_TOL = 1e-8
MC_SIGMAS = 4.0
# |K_eps 1 - 1 - a1 eps| <= TORUS_EPS2 * eps^2 on the torus; over a 12-point
# grid in v the largest ratio is 0.87, so 2 leaves room without hiding a
# change of order
TORUS_EPS2 = 2.0
# a closed form computed by finite differences against the benchmark's own
# analytic formula
CLOSED_FORM_REL_TOL = 1e-6


class OpFailed(Exception):
    """The op ran but did not produce a usable result."""


@dataclass
class Checked:
    """Result of an op's reference check."""
    errors: dict[str, float] = field(default_factory=dict)
    ratios: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def bound(self, name: str, err: float, tol: float, headroom: bool = True):
        """Record ``err``; a value above ``tol`` (or not finite) is a miss."""
        self.errors[name] = max(self.errors.get(name, 0.0), float(err))
        if headroom:
            self.ratios[name] = max(self.ratios.get(name, 0.0), err / tol)
        if not err <= tol:
            self.failures.append(f"{name} {err:.3e} above {tol:.1e}")

    def require(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)


@dataclass(frozen=True)
class Op:
    """One op: ``run(out_path)`` is the timed work, ``output`` its bytes."""
    name: str
    kind: str                            # cli | library
    run: Callable[[str], object]
    output: Callable[[str, object], bytes]
    check: Callable[[bytes], Checked]


# ---------------------------------------------------------------------------
# Op kinds
# ---------------------------------------------------------------------------

def cli_op(name: str, argv: list[str], check: Callable[[bytes], Checked]) -> Op:
    def run(out: str):
        rc = cli.main(argv + ["--out", out])
        if rc != 0:
            raise OpFailed(f"ckl {' '.join(argv)} exited with {rc}")

    return Op(name, "cli", run, lambda out, _: Path(out).read_bytes(), check)


def library_op(name: str, fn: Callable[[], dict],
               check: Callable[[dict], Checked]) -> Op:
    def output(_out: str, result: dict) -> bytes:
        return json.dumps(result, sort_keys=True).encode()

    return Op(name, "library", lambda _out: fn(), output,
              lambda data: check(load_json(data)))


def load_json(data: bytes):
    """Parse JSON output, treating NaN or Infinity as a failed op."""
    def reject(token):
        raise OpFailed(f"non-finite number {token} in output")
    return json.loads(data, parse_constant=reject)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def s2_const(eps: float) -> float:
    """K_eps 1 on the unit 2-sphere, at any point."""
    return 1.0 - math.exp(-1.0 / eps)


def s3_const(eps: float) -> float:
    """K_eps 1 on the unit 3-sphere, at any point."""
    a = 1.0 / (2.0 * eps)
    return (4.0 * math.pi ** 2 * (4.0 * math.pi * eps) ** -1.5
            * float(ive(1, a)) / a)


def torus_a1(v: float) -> float:
    """a1 for f = 1 on the (2, 1) torus: |H|^2 - R/2 = ((k1 - k2)/2)^2."""
    return 1.0 / (2.0 + math.cos(v)) ** 2


def graph_height_a1(curv: np.ndarray, s: np.ndarray) -> tuple[float, float]:
    """(f, a1) for f = height on the graph of sum(curv_i s_i^2)/2.

    With A the shape operator, W = sqrt(1 + |grad P|^2): the Laplacian of the
    height is -tr(A)/W, d^2|H|^2 = tr(A)^2 and R = tr(A)^2 - tr(A^2).
    """
    height = 0.5 * float(np.sum(curv * s * s))
    grad = curv * s
    w = math.sqrt(1.0 + float(grad @ grad))
    metric = np.eye(s.size) + np.outer(grad, grad)
    shape = np.linalg.solve(metric, np.diag(curv) / w)
    tr, tr2 = float(np.trace(shape)), float(np.trace(shape @ shape))
    return height, tr / w + 0.25 * height * (2.0 * tr2 - tr * tr)


def a1_error(a1_fit: float, a1_ref: float) -> tuple[float, float]:
    """compare_closed_form's criterion: relative, absolute if a1 vanishes."""
    if abs(a1_ref) < 1e-6:
        return abs(a1_fit - a1_ref), A1_ABS_TOL
    return abs(a1_fit - a1_ref) / abs(a1_ref), A1_REL_TOL


# ---------------------------------------------------------------------------
# sweep: bandwidth ladders through `ckl operator`
# ---------------------------------------------------------------------------

def check_sphere_operator(closed_form):
    def check(data: bytes) -> Checked:
        out, c = load_json(data), Checked()
        c.require(len(out["samples"]) == len(LADDER8), "ladder length")
        for s in out["samples"]:
            c.bound("op_err", abs(s["value"] - closed_form(s["eps"])),
                    SPHERE_TOL)
            c.require(s["tail_bound"] >= 0.0, "negative tail bound")
        for row in out.get("monte_carlo", []):
            z = abs(row["estimate"] - closed_form(row["eps"])) / row["std_error"]
            c.bound("mc_z", z, MC_SIGMAS, headroom=False)
        return c
    return check


def check_torus_operator(v: float):
    def check(data: bytes) -> Checked:
        out, c = load_json(data), Checked()
        c.require(len(out["samples"]) == len(LADDER8), "ladder length")
        for s in out["samples"]:
            eps = s["eps"]
            resid = abs(s["value"] - 1.0 - torus_a1(v) * eps)
            c.bound("torus_resid", resid / eps ** 2, TORUS_EPS2, headroom=False)
        return c
    return check


def sweep_ops(rng: random.Random) -> list[Op]:
    u, v = round(rng.uniform(0, 2 * math.pi), 6), round(rng.uniform(0, 2 * math.pi), 6)
    mc_seed = rng.randrange(1, 2 ** 31)
    return [
        cli_op("operator-sphere3", ["operator", "--manifold", "sphere3"],
               check_sphere_operator(s3_const)),
        cli_op("operator-sphere2-mc",
               ["operator", "--manifold", "sphere2", "--mc", "20000",
                "--seed", str(mc_seed)],
               check_sphere_operator(s2_const)),
        cli_op("operator-torus",
               ["operator", "--manifold", "torus", "--point", f"{u!r},{v!r}"],
               check_torus_operator(v)),
    ]


# ---------------------------------------------------------------------------
# expand: coefficient extraction
# ---------------------------------------------------------------------------

def acceptance_case(manifold_id: str, f_spec: str, coords: list[float],
                    ladder: list[float], Q: int, order: int = 64):
    """eps_sweep -> fit_polynomial -> compare_closed_form, as the suite runs it."""
    def fn() -> dict:
        M = catalog.load_manifold(manifold_id)
        f = fields.parse_function(f_spec, M)
        x = manifold.ChartPoint(0, coords)
        ladder_out = operator.eps_sweep(M, f, x, ladder, order=order,
                                        f_id=f.field_id)
        report = fit.fit_polynomial(ladder_out, Q)
        cmp = fit.compare_closed_form(M, f, x, report)
        return {"values": [float(s.value) for s in ladder_out.samples],
                "tail_bounds": [float(s.tail_bound) for s in ladder_out.samples],
                "a": [float(a) for a in report.coefficients],
                "closed_form": [cmp.a0_reference, cmp.a1_reference],
                "passed": bool(cmp.passed)}
    return fn


def check_acceptance(a0_ref: float, a1_ref: float):
    def check(out: dict) -> Checked:
        c = Checked()
        a0_fit, a1_fit = out["a"][0], out["a"][1]
        c.bound("a0_err", abs(a0_fit - a0_ref), A0_TOL)
        c.bound("a1_err", *a1_error(a1_fit, a1_ref))
        c.require(out["passed"], "compare_closed_form reports passed=false")
        return c
    return check


QUADRIC_CURV = np.array([1.0, 1.0, 4.0])
DEFAULT_POINT = np.array([0.1, 0.0, -0.05])


def check_default_expand(data: bytes) -> Checked:
    """The CLI default quadric expand: its closed form must be right; its fit
    is a known gap (a1 relative error about 0.09), reported, not gated."""
    out, c = load_json(data), Checked()
    f0, a1_ref = graph_height_a1(QUADRIC_CURV, DEFAULT_POINT)
    c.bound("closed_form_a0", abs(out["closed_form"]["a0"] - f0), 1e-12)
    c.bound("closed_form_a1", abs(out["closed_form"]["a1"] - a1_ref) / a1_ref,
            CLOSED_FORM_REL_TOL)
    c.errors["a1_err_default"] = abs(out["a"][1] - a1_ref) / abs(a1_ref)
    return c


def engine_case() -> dict:
    td = coeffs.sphere_taylor_data(3, max_degree=10)
    return {"a": [float(a) for a in coeffs.expansion_from_taylor(td, 2).values]}


def check_engine(out: dict) -> Checked:
    c = Checked()
    for got, want in zip(out["a"], (1.0, -0.75, -0.46875), strict=True):
        c.bound("engine_err", abs(got - want), ENGINE_TOL)
    return c


def expand_ops(rng: random.Random) -> list[Op]:
    theta = round(rng.uniform(math.pi / 4, 3 * math.pi / 4), 6)
    phi = round(rng.uniform(0, 2 * math.pi), 6)
    u, v = round(rng.uniform(0, 2 * math.pi), 6), round(rng.uniform(0, 2 * math.pi), 6)
    z0 = math.cos(theta)
    return [
        library_op("expand-sphere2-const",
                   acceptance_case("sphere2", "const1", [math.pi / 2, 1.0],
                                   LADDER8, 3),
                   check_acceptance(1.0, 0.0)),
        library_op("expand-sphere2-z",
                   acceptance_case("sphere2", "ambient:3", [theta, phi],
                                   LADDER8, 3),
                   check_acceptance(z0, -2.0 * z0)),
        library_op("expand-torus-const",
                   acceptance_case("torus", "const1", [u, v], LADDER8, 3),
                   check_acceptance(1.0, torus_a1(v))),
        library_op("expand-quadric-origin",
                   acceptance_case("quadric411", "const1", [0.0, 0.0, 0.0],
                                   QUADRIC_LADDER, 4, order=96),
                   check_acceptance(1.0, 0.0)),
        cli_op("expand-quadric-default",
               ["expand", "--manifold", "quadric411", "--point", "0.1,0,-0.05",
                "--f", "ambient:4"],
               check_default_expand),
        library_op("engine-sphere3", engine_case, check_engine),
    ]


# ---------------------------------------------------------------------------
# scan: `ckl equicurved-scan`
# ---------------------------------------------------------------------------

def check_torus_scan(data: bytes) -> Checked:
    """No grid row may fall in the zero set |residual| <= 1e-6 (1 + e1^2)."""
    c = Checked()
    header = data[:data.index(b"\n")].decode().split(",")
    try:
        numbers = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1,
                             usecols=range(len(header) - 1), ndmin=2)
    except ValueError as exc:
        raise OpFailed(f"unparsable CSV: {exc}") from None
    if not np.all(np.isfinite(numbers)):
        raise OpFailed("non-finite number in output")
    c.require(numbers.shape[0] == 400 * 200,
              f"{numbers.shape[0]} rows, want 80000")
    e1 = numbers[:, header.index("e1")]
    residual = numbers[:, header.index("residual")]
    hits = int(np.sum(np.abs(residual) <= 1e-6 * (1.0 + e1 ** 2)))
    c.require(hits == 0, f"torus zero set has {hits} rows, want 0")
    c.require(data.count(b",generic\n") == numbers.shape[0],
              "torus row not classed generic")
    return c


def check_quadric_scan(data: bytes) -> Checked:
    out, c = load_json(data), Checked()
    hits = [r for r in out["zero_set"] if np.linalg.norm(r["coords"]) < 1e-12]
    c.require(len(hits) == 1, f"{len(hits)} zero-set hits at the origin, want 1")
    if hits:
        dev = float(np.max(np.abs(np.array(hits[0]["kappas"]) - [4.0, 1.0, 1.0])))
        c.bound("zero_err", dev, KAPPA_TOL)
    return c


def check_spheroid_scan(data: bytes) -> Checked:
    out, c = load_json(data), Checked()
    zeros = out["refined_zeros"]
    c.require(len(zeros) == 2, f"{len(zeros)} refined zeros, want 2")
    if len(zeros) == 2:
        thetas = sorted(z["coords"][0] for z in zeros)
        c.bound("zero_err", abs(thetas[0]), POLE_TOL)
        c.bound("zero_err", abs(thetas[1] - math.pi), POLE_TOL)
    return c


def scan_ops(rng: random.Random) -> list[Op]:
    del rng  # the scans have no seeded input
    return [
        cli_op("scan-torus-csv",
               ["equicurved-scan", "--manifold", "torus", "--grid", "400x200"],
               check_torus_scan),
        cli_op("scan-quadric-json",
               ["equicurved-scan", "--manifold", "quadric411",
                "--grid", "20x20x20", "--format", "json"],
               check_quadric_scan),
        cli_op("scan-spheroid-json",
               ["equicurved-scan", "--manifold", "spheroid", "--grid", "60x30",
                "--format", "json"],
               check_spheroid_scan),
    ]


WORKLOADS = {"sweep": sweep_ops, "expand": expand_ops, "scan": scan_ops}


def make_ops(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(seed))
