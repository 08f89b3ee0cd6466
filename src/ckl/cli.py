"""Command-line front end.

Subcommands: ``catalog``, ``curvature``, ``operator``, ``expand``,
``equicurved-scan``, ``verify``.  Structured output is JSON (default) or CSV;
``--out -`` writes to stdout.  Outputs are byte-identical across runs for a
fixed configuration and seed.  Exit codes: 0 success, 1 validation error,
2 numerical failure; errors are reported as one-line JSON on stderr.  Each
subcommand runs with numpy overflow and invalid operations raised, and JSON
is written without NaN or Infinity; either failure exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .catalog import CATALOG, load_manifold
from .errors import CklError, NumericsError, ValidationError
from .fields import parse_function
from .fit import compare_closed_form, fit_polynomial, richardson_sequence
from .hypersurface import scan_equicurved, shape_at
from .manifold import ChartPoint, EmbeddedManifold, curvature_at
from .operator import (MC_SAMPLES, default_eps_ladder, eps_sweep,
                       max_axis_order, monte_carlo_operator)
from . import verify as verify_module


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _fmt(x) -> str:
    return f"{float(x):.17g}"


# CSV rows per formatted block: the table never sits in memory as one string
_CSV_BLOCK_ROWS = 4096


def _emit(text, out: str):
    """Write a string, or an iterable of strings as it yields them."""
    chunks = [text] if isinstance(text, str) else text
    if out == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _json_dump(obj) -> str:
    def np_scalar(o):
        if isinstance(o, np.generic):
            return o.item()
        raise TypeError(f"not JSON serializable: {type(o)}")
    try:
        return json.dumps(obj, indent=2, sort_keys=True, default=np_scalar,
                          allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericsError(f"output is not finite: {exc}") from None


def _parse_point(spec: str | None, M: EmbeddedManifold) -> ChartPoint:
    if spec is None:
        chart = M.charts[0]
        return ChartPoint(0, 0.5 * (chart.lo + chart.hi))
    chart_index = 0
    body = spec
    if ":" in spec:
        head, body = spec.split(":", 1)
        try:
            chart_index = int(head)
        except ValueError:
            raise ValidationError(f"bad chart index in point {spec!r}") from None
    try:
        coords = np.array([float(t) for t in body.split(",")])
    except ValueError:
        raise ValidationError(f"bad coordinates in point {spec!r}") from None
    if coords.size != M.dim:
        raise ValidationError(
            f"point has {coords.size} coordinates, manifold needs {M.dim}")
    if not np.all(np.isfinite(coords)):
        raise ValidationError(f"point coordinates must be finite, got {spec!r}")
    point = ChartPoint(chart_index, coords)
    M.chart(chart_index).jet(coords)     # wraps and checks the box
    return point


def _load_inputs(args):
    """Manifold, point and field of ``operator``/``expand``; --order in range."""
    M = load_manifold(args.manifold)
    cap = max_axis_order(M.dim)
    if not 2 <= args.order <= cap:
        raise ValidationError(f"--order must lie in [2, {cap}] in dimension "
                              f"{M.dim}, got {args.order}")
    return M, _parse_point(args.point, M), parse_function(args.f, M)


def _parse_eps_list(text: str) -> list[float]:
    try:
        eps = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValidationError(f"bad eps list {text!r}") from None
    if not eps or not all(0 < e < np.inf for e in eps):
        raise ValidationError("eps values must be positive and finite")
    if len(set(eps)) < len(eps):
        raise ValidationError("eps values must be distinct")
    return sorted(eps, reverse=True)


def _parse_grid(text: str, dim: int) -> list[int]:
    try:
        counts = [int(t) for t in text.lower().split("x")]
    except ValueError:
        raise ValidationError(f"bad grid spec {text!r}") from None
    if len(counts) != dim:
        raise ValidationError(f"grid needs {dim} axis counts, got {len(counts)}")
    if any(c < 2 for c in counts):
        raise ValidationError("grid dims must be at least 2")
    return counts


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_catalog(args) -> int:
    rows = []
    for name in sorted(CATALOG):
        M = load_manifold(name)
        rows.append({"id": name, "description": CATALOG[name][1],
                     "dim": M.dim, "ambient_dim": M.ambient_dim,
                     "delta": M.delta})
    _emit(_json_dump(rows), args.out)
    return 0


def _cmd_curvature(args) -> int:
    M = load_manifold(args.manifold)
    point = _parse_point(args.point, M)
    rep = curvature_at(M, point)
    payload = {
        "point": {"chart": point.chart, "coords": [float(c) for c in point.coords]},
        "metric": [[float(v) for v in row] for row in rep.metric],
        "mean_curvature_norm_sq": rep.mean_curvature_norm_sq,
        "scalar_curvature": rep.scalar_curvature,
    }
    sd = shape_at(M, point)
    payload["principal_curvatures"] = [float(k) for k in sd.principal_curvatures]
    payload["e1"] = sd.e1
    payload["e2"] = sd.e2
    payload["equicurvature_residual"] = sd.e1 ** 2 - 4.0 * sd.e2
    _emit(_json_dump(payload), args.out)
    return 0


def _cmd_operator(args) -> int:
    if args.seed < 0:
        raise ValidationError("--seed must be >= 0")
    if args.mc is not None and args.mc not in MC_SAMPLES:
        raise ValidationError(f"--mc must be in [{MC_SAMPLES[0]}, {MC_SAMPLES[-1]}]")
    if args.mc is not None and args.format == "csv":
        raise ValidationError("--mc needs --format json: the CSV table has no "
                              "Monte Carlo column")
    M, point, f = _load_inputs(args)
    eps_list = (_parse_eps_list(args.eps) if args.eps
                else default_eps_ladder())
    ladder = eps_sweep(M, f, point, eps_list, order=args.order,
                       f_id=f.field_id)
    mc_rows = None
    if args.mc is not None:
        mc_rows = [monte_carlo_operator(M, f, point, e, args.mc, seed=args.seed)
                   for e in eps_list]
    if args.format == "csv":
        lines = ["eps,value,tail_bound"]
        lines += [f"{_fmt(s.eps)},{_fmt(s.value)},{_fmt(s.tail_bound)}"
                  for s in ladder.samples]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "manifold": args.manifold, "f": f.field_id,
            "point": {"chart": point.chart,
                      "coords": [float(c) for c in point.coords]},
            "samples": [{"eps": s.eps, "value": s.value,
                         "tail_bound": s.tail_bound} for s in ladder.samples],
        }
        if mc_rows is not None:
            payload["monte_carlo"] = [
                {"eps": e, "estimate": est, "std_error": se, "n": args.mc,
                 "seed": args.seed}
                for e, (est, se) in zip(eps_list, mc_rows)]
        _emit(_json_dump(payload), args.out)
    return 0


def _cmd_expand(args) -> int:
    if not 0 < args.eps0 < np.inf:
        raise ValidationError("--eps0 must be finite and > 0")
    M, point, f = _load_inputs(args)
    eps_list = default_eps_ladder(args.eps0, args.eps_count)
    ladder = eps_sweep(M, f, point, eps_list, order=args.order,
                       f_id=f.field_id)
    fit_fn = richardson_sequence if args.method == "richardson" \
        else fit_polynomial
    report = fit_fn(ladder, args.Q)
    comparison = compare_closed_form(M, f, point, report)
    payload = {
        "a": [float(c) for c in report.coefficients],
        "sensitivity": [float(s) for s in report.covariance_diag],
        "method": report.method,
        "max_residual": report.max_residual,
        "closed_form": {"a0": comparison.a0_reference,
                        "a1": comparison.a1_reference},
        "rel_err": [comparison.a0_abs_error, comparison.a1_error],
        "a1_criterion": comparison.a1_criterion,
        "passed": comparison.passed,
    }
    _emit(_json_dump(payload), args.out)
    return 0


def _cmd_scan(args) -> int:
    if args.tol_eq is not None and not 0 <= args.tol_eq < np.inf:
        raise ValidationError("--tol-eq must be finite and >= 0")
    M = load_manifold(args.manifold)
    grid = _parse_grid(args.grid, M.dim)
    # only the JSON form prints refined zeros
    scan = scan_equicurved(M, grid, tol_eq=args.tol_eq,
                           refine=args.format == "json")
    if args.format == "csv":
        d = M.dim
        header = (["chart"] + [f"s{i + 1}" for i in range(d)]
                  + [f"kappa_{i + 1}" for i in range(d)]
                  + ["e1", "e2", "residual", "spread", "class"])
        # object rows: Python floats for %.17g, then the class label
        table = np.column_stack([scan.coords, scan.kappas, scan.e1, scan.e2,
                                 scan.residual, scan.umbilic_spread,
                                 np.array(scan.classification, dtype=object)])
        row_fmt = "0," + "%.17g," * (table.shape[1] - 1) + "%s\n"

        def blocks():
            yield ",".join(header) + "\n"
            for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
                block = table[start:start + _CSV_BLOCK_ROWS]
                yield row_fmt * block.shape[0] % tuple(block.ravel())
        _emit(blocks(), args.out)
    else:
        def res_to_dict(r):
            return {"chart": r.point.chart,
                    "coords": [float(c) for c in r.point.coords],
                    "kappas": [float(k) for k in r.kappas],
                    "e1": r.e1, "e2": r.e2, "residual": r.residual,
                    "spread": r.umbilic_spread, "class": r.classification}
        payload = {
            "manifold": args.manifold,
            "grid": grid,
            "nodes": int(scan.coords.shape[0]),
            "zero_set": [res_to_dict(r) for r in scan.zero_set],
            "refined_zeros": [dict(res_to_dict(r), bracket=r.bracket)
                              for r in scan.refined_zeros],
            "residual_min": float(np.min(np.abs(scan.residual))),
            "residual_max": float(np.max(np.abs(scan.residual))),
        }
        _emit(_json_dump(payload), args.out)
    return 0


def _cmd_verify(args) -> int:
    results = verify_module.run_all()
    _emit(verify_module.format_table(results), args.out)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="ckl",
                     description="Gaussian-kernel operators on embedded "
                                 "submanifolds: curvature, bandwidth "
                                 "expansions, equicurvature scans")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="-",
                       help="output path, or - for stdout (default)")

    p = sub.add_parser("catalog", help="list built-in manifolds")
    common(p)

    p = sub.add_parser("curvature", help="curvature report at a point")
    p.add_argument("--manifold", required=True)
    p.add_argument("--point", help="[0:]c1,c2,... (default: box center)")
    common(p)

    p = sub.add_parser("operator", help="kernel-operator values over bandwidths")
    p.add_argument("--manifold", required=True)
    p.add_argument("--point")
    p.add_argument("--f", default="const1", help="const:<c> | ambient:<i> | "
                                                 "poly:<monomials> | const1")
    p.add_argument("--eps", help="comma-separated bandwidths "
                                 "(default 0.1*2^-k, k=0..7)")
    p.add_argument("--order", type=int, default=64)
    p.add_argument("--mc", type=int, help="Monte Carlo samples per bandwidth")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)

    p = sub.add_parser("expand", help="fit expansion coefficients from a sweep")
    p.add_argument("--manifold", required=True)
    p.add_argument("--point")
    p.add_argument("--f", default="const1")
    p.add_argument("--eps0", type=float, default=0.1)
    p.add_argument("--eps-count", type=int, default=8)
    p.add_argument("--Q", type=int, default=2)
    p.add_argument("--order", type=int, default=64)
    p.add_argument("--method", choices=("least_squares", "richardson"),
                   default="least_squares")
    common(p)

    p = sub.add_parser("equicurved-scan", help="equicurvature residual scan")
    p.add_argument("--manifold", required=True)
    p.add_argument("--grid", required=True, help="cells per axis, e.g. 200x100")
    p.add_argument("--tol-eq", type=float, dest="tol_eq",
                   help="absolute residual threshold (default: relative)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    common(p)

    p = sub.add_parser("verify", help="run the invariant suite")
    common(p)
    return parser


_DISPATCH = {
    "catalog": _cmd_catalog,
    "curvature": _cmd_curvature,
    "operator": _cmd_operator,
    "expand": _cmd_expand,
    "equicurved-scan": _cmd_scan,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        try:
            with np.errstate(over="raise", invalid="raise"):
                return _DISPATCH[args.command](args)
        except FloatingPointError as exc:
            raise NumericsError(str(exc)) from None
        except OverflowError as exc:      # Python float arithmetic
            raise NumericsError(f"overflow: {exc.args[-1]}") from None
    except ValidationError as exc:
        sys.stderr.write(json.dumps(
            {"error": {"type": "validation", "message": str(exc)}}) + "\n")
        return 1
    except CklError as exc:
        sys.stderr.write(json.dumps(
            {"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
