"""ckl benchmark: closed-loop workloads with accuracy checks and a layer trace.

Run from the root of a checkout (``src/ckl`` must be there)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

One client runs the workload's ops one at a time, in a fixed order, and
repeats the pass until ``--seconds`` have gone by (at least three passes).
Each op runs in a child forked from this process, which has only imported
ckl, so no cache carries over from one op to the next.  Each child first
and last takes a calibration sample (``calibrate.py``), by whose mean its op
time is scaled to a reference machine speed.  ``--trace 1`` adds
passes with timing spans installed in the children and reports per-layer
metrics instead of end-to-end ones.

The last line of stdout is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The line before it is the full record (per-op times,
digests, accuracy columns, environment), also written to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

# One BLAS thread, set before numpy loads (tracer imports it) and inherited by
# every child.  OpenBLAS otherwise starts a thread per core, and on a machine
# of two shared cores those threads wait on co-tenants: with the default, ops
# ran slower and their wall time exceeded their CPU time by up to 1.2 s.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import tracer  # noqa: E402
from calibrate import REFERENCE_S, calibrate  # noqa: E402

MIN_PASSES = 3
MIN_COVERAGE = 0.9
SETUP_REPEATS = 3
OP_TIMEOUT_S = 60.0
OP_EXIT_S = 10.0
OUT_DIR = ".bench_out"
CAVEATS = ("CPU frequency scaling and co-tenant load are not controlled; "
           "times are wall-clock on a shared machine, and setup_s and pass_s "
           "are scaled by calibration samples taken in the same process.")


# timed inside the fresh interpreter, then sampled by calibrate() there
SETUP_CODE = """\
import time
start = time.perf_counter()
import ckl
elapsed = time.perf_counter() - start
from calibrate import calibrate
print(elapsed, calibrate())
"""


def measure_setup(root: Path) -> tuple[list[float], list[float]]:
    """Wall times of ``import ckl`` in fresh interpreters, and the
    calibration sample each interpreter took after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), str(Path(__file__).resolve().parent),
                    env.get("PYTHONPATH")) if p)
    times, samples = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                             cwd=root, check=True, capture_output=True,
                             text=True).stdout
        elapsed, sample = (float(x) for x in out.split())
        times.append(elapsed)
        samples.append(sample)
    return times, samples


# ---------------------------------------------------------------------------
# One op in a forked child
# ---------------------------------------------------------------------------

def _execute(op, traced: bool, out: str) -> dict:
    record = {"op": op.name, "kind": op.kind, "failures": []}
    before = calibrate()
    spans = None
    if traced:
        spans = tracer.Tracer()
        spans.install()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            result = op.run(out)
        except Exception as exc:
            result = None
            record["failures"].append(f"{type(exc).__name__}: {exc}")
        record["op_s"] = time.perf_counter() - start
        record["cpu_s"] = time.process_time() - cpu_start
    record["calibration_s"] = [before, calibrate()]
    record["peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["failures"] += [f"warning: {w.category.__name__}: {w.message}"
                           for w in caught]
    if spans is not None:
        record["spans"] = spans.snapshot()
        record["coverage"] = spans.top_s / record["op_s"]
    if record["failures"]:
        return record
    try:
        data = op.output(out, result)
        record["digest"] = hashlib.sha256(data).hexdigest()
        record["out_bytes"] = len(data)
        checked = op.check(data)
    except Exception as exc:   # any unreadable output is a failed op
        record["failures"].append(f"check: {type(exc).__name__}: {exc}")
        return record
    record["errors"] = checked.errors
    record["ratios"] = checked.ratios
    record["failures"] += checked.failures
    return record


def _child(op, traced: bool, out: str, conn):
    try:
        record = _execute(op, traced, out)
    except Exception:
        record = {"op": op.name, "failures": [traceback.format_exc()]}
    conn.send(record)
    conn.close()


def run_op(op, traced: bool, out: str) -> dict:
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(op, traced, out, sender))
    proc.start()
    sender.close()
    try:
        if receiver.poll(OP_TIMEOUT_S):
            record = receiver.recv()
        else:
            record = {"op": op.name, "failures": ["timed out"]}
    except EOFError:
        record = {"op": op.name, "failures": ["child exited without a result"]}
    finally:
        receiver.close()
        proc.join(OP_EXIT_S)
        if proc.is_alive():
            proc.kill()
            proc.join()
    if proc.exitcode not in (0, None) and not record["failures"]:
        record["failures"].append(f"child exit code {proc.exitcode}")
    return record


def run_pass(ops, traced: bool, tmp: Path) -> list[dict]:
    records = []
    for i, op in enumerate(ops):
        out = tmp / f"op{i}.out"
        records.append(run_op(op, traced, str(out)))
        out.unlink(missing_ok=True)
    return records


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def pass_seconds(records: list[dict], key: str = "op_s") -> float:
    return sum(r.get(key, 0.0) for r in records)


def mark_digest_changes(passes: list[list[dict]]):
    """Fail every op execution whose digest differs from the op's digest in
    the first pass (an untraced one)."""
    first = {}
    for records in passes:
        for r in records:
            if "digest" not in r:
                continue
            want = first.setdefault(r["op"], r["digest"])
            if r["digest"] != want:
                r["failures"].append("output digest differs between passes")


def accuracy_columns(records: list[dict]) -> dict:
    cols = {}
    for r in records:
        for name, err in r.get("errors", {}).items():
            cols[name] = max(cols.get(name, 0.0), err)
    return cols


def tol_headroom(records: list[dict]) -> float:
    worst = max((v for r in records for v in r.get("ratios", {}).values()),
                default=0.0)
    return 1.0 - worst


def layer_metrics(traced: list[list[dict]], untraced: list[list[dict]],
                  workload: str) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes, and the span self-check."""
    problems = []
    by_pass = []
    for records in traced:
        totals = {}
        for r in records:
            for name, entry in r.get("spans", {}).items():
                acc = totals.setdefault(name, {})
                for key, value in entry.items():
                    acc[key] = acc.get(key, 0) + value
        by_pass.append(totals)
    metrics = {}
    for span in tracer.SPANS:
        keys = set().union(*(p.get(span.name, {}).keys() for p in by_pass))
        for key in sorted(keys):
            values = [p.get(span.name, {}).get(key, 0) for p in by_pass]
            metrics[f"{span.name}.{key}"] = statistics.median(values)
        calls = metrics.get(f"{span.name}.calls", 0)
        if workload in span.fires_on and not calls:
            problems.append(f"span {span.name} did not fire on {workload}")
        node_sets = metrics.pop(f"{span.name}.node_sets", None)
        if node_sets is not None:
            metrics[f"{span.name}.distinct_ratio"] = (
                node_sets / calls if calls else 0.0)
    metrics["cli.out_bytes"] = sum(
        r.get("out_bytes", 0) for r in traced[0] if r.get("kind") == "cli")
    metrics["trace.overhead_s"] = (
        statistics.median(pass_seconds(p) for p in traced)
        - statistics.median(pass_seconds(p) for p in untraced))
    coverage = [r.get("coverage", 0.0) for p in traced for r in p]
    metrics["trace.coverage"] = min(coverage)
    if min(coverage) < MIN_COVERAGE:
        problems.append(f"trace coverage {min(coverage):.3f} below "
                        f"{MIN_COVERAGE}")
    return metrics, problems


def environment() -> dict:
    import numpy
    import scipy
    import sympy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "CKL_THREADS": os.environ.get("CKL_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "caveats": CAVEATS,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_passes(ops, seconds: float, trace: bool, tmp: Path):
    """Untraced passes (alternating with traced ones when ``trace``) until
    ``seconds`` have gone by and at least MIN_PASSES have run."""
    untraced, traced = [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(untraced) + len(traced) < MIN_PASSES):
        traced_pass = trace and len(traced) < len(untraced)
        (traced if traced_pass else untraced).append(
            run_pass(ops, traced_pass, tmp))
    return untraced, traced


def scaled(seconds: float, samples: list[float]) -> float:
    """A time taken in one process, at the speed where calibrate() takes
    REFERENCE_S, by the calibration samples taken in the same process."""
    return seconds * REFERENCE_S / statistics.fmean(samples)


def end_to_end_metrics(setup: list[float], setup_samples: list[float],
                       untraced: list[list[dict]]) -> dict:
    return {
        "setup_s": statistics.median(
            scaled(t, [sample]) for t, sample in zip(setup, setup_samples)),
        "pass_s": statistics.median(
            sum(scaled(r.get("op_s", 0.0),
                       r.get("calibration_s", [REFERENCE_S])) for r in p)
            for p in untraced),
        "peak_rss_mb": statistics.median(
            max(r.get("peak_mb", 0.0) for r in p) for p in untraced),
        "tol_headroom": tol_headroom([r for p in untraced for r in p]),
    }


def summarize_ops(untraced, traced) -> list[dict]:
    out = []
    for i, first in enumerate(untraced[0]):
        runs = [p[i] for p in untraced]
        entry = {"op": first["op"],
                 "op_s": [r.get("op_s") for r in runs],
                 "cpu_s": [r.get("cpu_s") for r in runs],
                 "calibration_s": [r.get("calibration_s") for r in runs],
                 "peak_mb": max(r.get("peak_mb", 0.0) for r in runs),
                 "digest": first.get("digest"),
                 "errors": first.get("errors", {}),
                 "failures": sorted({f for r in runs for f in r["failures"]})}
        if traced:
            entry["traced_op_s"] = [p[i].get("op_s") for p in traced]
            entry["coverage"] = min(p[i].get("coverage", 0.0) for p in traced)
            entry["spans"] = traced[0][i].get("spans", {})
        out.append(entry)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ckl" / "__init__.py").is_file():
        sys.stderr.write(f"no ckl sources under {root / 'src'}; run from the "
                         "root of a ckl checkout\n")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"unknown workload {args.workload!r}\n")
        return 2

    setup, setup_samples = ([], []) if args.trace else measure_setup(root)
    sys.path.insert(0, str(root / "src"))
    import ckl  # noqa: F401  (the idle parent every op is forked from)
    import workloads

    if args.trace:
        tracer.check_targets()
    ops = workloads.make_ops(args.workload, args.seed)
    (root / OUT_DIR).mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / OUT_DIR) as tmp:
        untraced, traced = run_passes(ops, args.seconds, bool(args.trace),
                                      Path(tmp))
    mark_digest_changes(untraced + traced)

    problems = []
    if args.trace:
        metrics, problems = layer_metrics(traced, untraced, args.workload)
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end_metrics(setup, setup_samples, untraced)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: "
                       f"{missing}")

    executions = [r for p in untraced + traced for r in p]
    failed = sum(1 for r in executions if r["failures"])
    for r in executions:
        for failure in r["failures"]:
            sys.stderr.write(f"{r['op']}: {failure}\n")
    for problem in problems:
        sys.stderr.write(f"self-check: {problem}\n")

    accuracy = accuracy_columns(executions)
    accuracy["fail_frac"] = failed / len(executions)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": {"untraced": [pass_seconds(p) for p in untraced],
                   "untraced_cpu": [pass_seconds(p, "cpu_s") for p in untraced],
                   "traced": [pass_seconds(p) for p in traced]},
        "setup_s": setup,
        "setup_calibration_s": setup_samples,
        "ops": summarize_ops(untraced, traced),
        "accuracy": accuracy,
        "metrics": metrics,
        "self_check": problems,
        "environment": environment(),
    }
    text = json.dumps(record, sort_keys=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (root / OUT_DIR / name).write_text(text + "\n")
    print(text)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
