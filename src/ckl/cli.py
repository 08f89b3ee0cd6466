"""Command-line front end.

Subcommands: ``catalog``, ``curvature``, ``operator``, ``expand``,
``equicurved-scan``, ``verify``.  Structured output is JSON (default) or CSV;
``--out -`` writes to stdout, and an ``--out`` path that cannot be opened is
a validation error.  Outputs are byte-identical across runs for a fixed
configuration and seed.  Exit codes: 0 success, 1 validation error, 2
numerical failure; errors are reported as one-line JSON on stderr.  Each
subcommand runs with numpy overflow and invalid operations raised, and JSON
is written without NaN or Infinity; either failure exits 2.

One row writer, :func:`_row_blocks`, prints every table: the scan and
operator CSVs and the scan JSON's ``zero_set`` and ``refined_zeros`` lists.
The rest of the JSON is laid out by :func:`_json_parts`, which prints each
scalar with ``json.dumps``.  Each input is checked once, by the library
function that owns it; the CLI parses text and adds the rules of its own
options, such as the per-dimension ``--order`` cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain

import numpy as np

from .catalog import CATALOG, load_manifold
from .errors import CklError, NumericsError, ValidationError
from .fields import parse_function
from .fit import compare_closed_form, fit_polynomial, richardson_sequence
from .hypersurface import (CLASS_NAMES, equicurvature_residual,
                           scan_equicurved, shape_at)
from .manifold import ChartPoint, EmbeddedManifold, curvature_at
from .operator import (default_eps_ladder, eps_sweep, max_axis_order,
                       monte_carlo_operator)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


# rows per formatted block of a row table: the output never sits in memory
# as one string
_CSV_BLOCK_ROWS = 4096


# a float column goes through a table of its distinct values when they number
# at most this share of its rows.  On 80,000-row columns the table is faster
# than formatting block by block up to a share of about 0.8, but it holds
# every distinct cell for the whole write where a block holds 4,096 rows, so
# the cap stays low to bound the memory of large grids
_CSV_TABLE_MAX_SHARE = 0.4


def _byte_table(strings) -> np.ndarray:
    """ASCII strings as the rows of a ``(k, width)`` uint8 matrix, each
    padded with NUL bytes to the longest."""
    table = np.array(strings, dtype=np.bytes_)
    return table.view(np.uint8).reshape(table.size, table.itemsize)


def _row_blocks(head: str, row: list, fmt: str):
    """The text ``head``, then the text of each row, as ASCII bytes in
    blocks of ``_CSV_BLOCK_ROWS`` rows.

    ``row`` lists a row's pieces in order: text every row prints alike; a
    float array, row i printing ``fmt % values[i]``; or a label ``(names,
    codes)``, row i printing ``names[codes[i]]``.  Every piece comes from a
    byte table (:func:`_byte_table`), which a text holds once and a label
    once per name.  A float array with few distinct bit patterns (bits keep
    -0.0 apart from 0.0) is formatted once per pattern, and its rows index
    that table by the codes one argsort of the bits gives; any other float
    array is formatted a block at a time.  A block is the byte matrix of its
    rows' padded pieces, gathered with ``take``; one mask drops the padding.
    """
    count = len(next(p if isinstance(p, np.ndarray) else p[1]
                     for p in row if not isinstance(p, str)))
    pieces = []     # (byte table, row codes), or (values, None)
    for piece in row:
        if isinstance(piece, str):
            # a zero-stride index picks the one row of every row's text
            pieces.append((_byte_table([piece]),
                           np.broadcast_to(np.intp(0), (count,))))
        elif isinstance(piece, tuple):
            names, codes = piece
            pieces.append((_byte_table(names), codes))
        else:
            piece = np.asarray(piece, dtype=np.float64)
            bits = piece.view(np.int64)
            order = np.argsort(bits)
            ordered = bits[order]
            first = np.empty(ordered.size, dtype=bool)
            first[:1] = True
            np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
            if np.count_nonzero(first) <= _CSV_TABLE_MAX_SHARE * count:
                # a grid has at most 2^21 rows, so 32-bit codes halve their size
                rank = np.empty(ordered.size, dtype=np.int32)
                rank[order] = np.cumsum(first, dtype=np.int32) - 1
                distinct = ordered[first].view(np.float64).tolist()
                pieces.append((_byte_table([fmt % v for v in distinct]), rank))
            else:
                pieces.append((piece, None))
    yield head.encode("ascii")
    for start in range(0, count, _CSV_BLOCK_ROWS):
        yield _row_block(pieces, fmt, slice(start, start + _CSV_BLOCK_ROWS))


def _row_block(pieces, fmt: str, rows: slice) -> bytes:
    """The bytes of rows ``rows`` from the pieces of :func:`_row_blocks`, in
    a call of its own so that no temporary of one block stays alive while
    the next is built."""
    block = np.concatenate(
        [_byte_table([fmt % v for v in table[rows].tolist()]) if index is None
         else np.take(table, index[rows], axis=0)
         for table, index in pieces], axis=1).ravel()
    return block[block != 0].tobytes()


def _csv(header: list[str], fields: list):
    """A CSV table: the ``header`` line, then rows of ``fields``, the pieces
    of :func:`_row_blocks` with a comma between two, floats printed
    ``%.17g``."""
    row = [","] * (2 * len(fields))
    row[::2] = fields
    row[-1] = "\n"
    return _row_blocks(",".join(header) + "\n", row, "%.17g")


def _emit(chunks, out: str):
    """Write bytes, or the bytes an iterable yields as it yields them, to the
    file ``out`` or, for ``-``, to standard output."""
    if isinstance(chunks, bytes):
        chunks = [chunks]
    if out != "-":
        try:
            fh = open(out, "wb")
        except OSError as exc:
            raise ValidationError(
                f"cannot open --out {out!r}: {exc.strerror}") from None
        with fh:
            fh.writelines(chunks)
        return
    sys.stdout.flush()
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:      # a text-only stream, such as io.StringIO
        sys.stdout.writelines(chunk.decode() for chunk in chunks)
    else:
        binary.writelines(chunks)
        binary.flush()


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

class _Rows:
    """A JSON list of objects built from arrays, one object per row.

    ``columns`` maps a key to float values: an (N,) array prints a number
    per row, an (N, k) array a list of k numbers.  ``label`` is ``(key,
    codes, names)``: row i prints the string ``names[codes[i]]``.
    ``shared`` maps a key to a value every row prints alike.
    """

    def __init__(self, columns: dict, label: tuple, shared: dict):
        self.columns, self.label, self.shared = columns, label, shared

    def chunks(self, level: int):
        """The list's text at nesting ``level``, as an iterator of ASCII bytes.

        Every float column is checked finite before this returns.  The rows
        come from :func:`_row_blocks`, each but the first opened by a comma.
        """
        key, codes, names = self.label
        if not len(codes):
            return iter([b"[]"])
        pad = "\n" + "  " * (level + 1)
        row = [(["", ","], np.arange(len(codes)) > 0), pad + "{"]
        for i, name in enumerate(sorted([*self.columns, key, *self.shared])):
            row.append("," * (i > 0) + pad + "  " + json.dumps(name) + ": ")
            if name in self.shared:
                row.append("".join(_json_parts(self.shared[name], level + 2,
                                               [])))
            elif name == key:
                row.append(([json.dumps(n) for n in names], codes))
            else:
                values = self.columns[name]
                bad = ~np.isfinite(values)
                if bad.any():
                    raise NumericsError(
                        f"output is not finite: {values[bad][0]!r}")
                if values.ndim == 1:
                    row.append(values)
                    continue
                for j, column in enumerate(values.T):
                    row += [("," if j else "[") + pad + "    ", column]
                row.append(pad + "  ]" if values.shape[1] else "[]")
        row.append(pad + "}")
        return chain(_row_blocks("[", row, "%r"),
                     [("\n" + "  " * level + "]").encode("ascii")])


def _json_parts(obj, level: int, parts: list) -> list:
    """Append the JSON text of ``obj``, nested ``level`` deep, to ``parts``:
    strings, and one iterator of ASCII bytes per :class:`_Rows`.  Returns
    ``parts``."""
    if isinstance(obj, _Rows):
        parts.append(obj.chunks(level))
    elif isinstance(obj, (dict, list, tuple)) and obj:
        is_dict = isinstance(obj, dict)
        opening, closing = "{}" if is_dict else "[]"
        pad = "\n" + "  " * (level + 1)
        items = sorted(obj.items()) if is_dict else enumerate(obj)
        for i, (key, value) in enumerate(items):
            parts.append((opening if i == 0 else ",") + pad
                         + (json.dumps(key) + ": " if is_dict else ""))
            _json_parts(value, level + 1, parts)
        parts.append("\n" + "  " * level + closing)
    else:
        try:
            parts.append(json.dumps(
                obj.item() if isinstance(obj, np.generic) else obj,
                allow_nan=False))
        except ValueError:
            raise NumericsError(f"output is not finite: {obj!r}") from None
    return parts


def _json(obj):
    """The bytes of ``json.dumps(obj, indent=2, sort_keys=True,
    allow_nan=False) + "\\n"`` as an iterator, with numpy scalars as their
    Python values and each :class:`_Rows` as its list of objects.  A
    non-finite number anywhere raises :class:`NumericsError` before this
    returns."""
    parts = _json_parts(obj, 0, [])
    parts.append("\n")
    return chain.from_iterable([part.encode("ascii")] if isinstance(part, str)
                               else part for part in parts)


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
    if not eps:
        raise ValidationError(f"bad eps list {text!r}")
    if len(set(eps)) < len(eps):
        raise ValidationError("eps values must be distinct")
    return sorted(eps, reverse=True)


def _parse_grid(text: str) -> list[int]:
    """The cell counts of ``--grid``; :func:`scan_equicurved` checks them."""
    try:
        return [int(t) for t in text.lower().split("x")]
    except ValueError:
        raise ValidationError(f"bad grid spec {text!r}") from None


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
    _emit(_json(rows), args.out)
    return 0


def _cmd_curvature(args) -> int:
    M = load_manifold(args.manifold)
    point = _parse_point(args.point, M)
    rep, sd = curvature_at(M, point), shape_at(M, point)
    _emit(_json({
        "point": {"chart": point.chart, "coords": [float(c) for c in point.coords]},
        "metric": [[float(v) for v in row] for row in rep.metric],
        "mean_curvature_norm_sq": rep.mean_curvature_norm_sq,
        "scalar_curvature": rep.scalar_curvature,
        "principal_curvatures": [float(k) for k in sd.principal_curvatures],
        "e1": sd.e1, "e2": sd.e2,
        "equicurvature_residual": equicurvature_residual(sd),
    }), args.out)
    return 0


def _cmd_operator(args) -> int:
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
        mc_rows = monte_carlo_operator(M, f, point, eps_list, args.mc,
                                       seed=args.seed)
    if args.format == "csv":
        names = ["eps", "value", "tail_bound", "quad_error"]
        _emit(_csv(names, [np.array([getattr(s, name) for s in ladder.samples],
                                    dtype=float) for name in names]), args.out)
    else:
        payload = {
            "manifold": args.manifold, "f": f.field_id,
            "point": {"chart": point.chart,
                      "coords": [float(c) for c in point.coords]},
            "samples": [{"eps": s.eps, "value": s.value,
                         "tail_bound": s.tail_bound, "quad_error": s.quad_error}
                        for s in ladder.samples],
        }
        if mc_rows is not None:
            payload["monte_carlo"] = [
                {"eps": e, "estimate": est, "std_error": se, "n": args.mc,
                 "seed": args.seed}
                for e, (est, se) in zip(eps_list, mc_rows)]
        _emit(_json(payload), args.out)
    return 0


def _cmd_expand(args) -> int:
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
    _emit(_json(payload), args.out)
    return 0


def _cmd_scan(args) -> int:
    M = load_manifold(args.manifold)
    grid = _parse_grid(args.grid)
    # only the JSON form prints refined zeros
    scan = scan_equicurved(M, grid, tol_eq=args.tol_eq,
                           refine=args.format == "json")
    if args.format == "csv":
        d = M.dim
        header = (["chart"] + [f"s{i + 1}" for i in range(d)]
                  + [f"kappa_{i + 1}" for i in range(d)]
                  + ["e1", "e2", "residual", "spread", "class"])
        _emit(_csv(header, ["0", *scan.coords.T, *scan.kappas.T, scan.e1,
                            scan.e2, scan.residual, scan.umbilic_spread,
                            (CLASS_NAMES, scan.class_codes)]), args.out)
    else:
        payload = {
            "manifold": args.manifold,
            "grid": grid,
            "nodes": int(scan.coords.shape[0]),
            "zero_set": _scan_rows(scan, scan.zero_index),
            "refined_zeros": _scan_rows(scan.refined,
                                        bracket=scan.refined.bracket),
            "residual_min": float(np.min(np.abs(scan.residual))),
            "residual_max": float(np.max(np.abs(scan.residual))),
        }
        _emit(_json(payload), args.out)
    return 0


def _scan_rows(rows, index=slice(None), **extra) -> _Rows:
    """JSON rows of scan points ``index`` of ``rows``, a
    :class:`~ckl.hypersurface.ScanResult` or its ``refined`` zeros, with the
    float columns ``extra``."""
    return _Rows({"coords": rows.coords[index], "kappas": rows.kappas[index],
                  "e1": rows.e1[index], "e2": rows.e2[index],
                  "residual": rows.residual[index],
                  "spread": rows.umbilic_spread[index], **extra},
                 ("class", rows.class_codes[index], CLASS_NAMES),
                 {"chart": 0})


def _cmd_verify(args) -> int:
    # imported here: the check table is loaded only by the command that runs it
    from . import verify

    results = verify.run_all()
    _emit(verify.format_table(results).encode(), args.out)
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
