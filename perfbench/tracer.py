"""Timing spans around ckl's layer entry points, installed from outside the package.

``Tracer.install`` replaces each function named in ``SPANS`` with a wrapper,
in every ``ckl`` module that bound it (``ckl.cli`` binds ``eps_sweep`` and
``scan_equicurved`` itself, ``ckl.fit`` binds ``a1_closed_form``) and on the
class for methods.  A wrapper calls the original and returns its result
unchanged; it adds the call's wall time to its span and to the enclosing
span's child time, and counts work from the arguments and the result.

A span's self time is its duration minus the durations of the spans it
directly encloses.  Spans are kept in memory per process; the benchmark
installs them in the op's child process only, so the parent stays clean.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _rows(coords) -> int:
    shape = np.shape(coords)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _rows_of(arg: str):
    return lambda a, result: {"rows": _rows(a[arg])}


def _node_set(a, result):
    coords = np.ascontiguousarray(a["coords"], dtype=float)
    key = (int(a["ci"]), coords.shape,
           hashlib.blake2b(coords.tobytes(), digest_size=16).digest())
    return {"rows": _rows(coords), "node_sets": {key}}


def _rule_decision(a, result):
    order, dim = a["order"], a["M"].dim
    nodes = result.node_count()
    if not result.covers_atlas:
        decision = "windowed"
    elif nodes == order ** dim * len(a["M"].charts):
        decision = "full"
    else:
        decision = "escalated"
    return {"nodes": nodes, decision: 1}


def _rule_nodes(a, result):
    return {"nodes": a["rule"].node_count() if a["rule"] is not None else 0}


def _scan_counts(a, result):
    return {"rows": int(result.coords.shape[0]),
            "zero_set": len(result.zero_set),
            "refined_zeros": len(result.refined_zeros)}


@dataclass(frozen=True)
class Span:
    """A span name, the functions it wraps (``module:Qualified.name``), the
    workloads it must fire on, and how its work is counted: ``count`` maps
    the bound arguments and the result to increments of ``counters``."""
    name: str
    targets: tuple[str, ...]
    fires_on: tuple[str, ...] = ()
    count: Callable[[dict, object], dict] | None = None
    counters: tuple[str, ...] = ()


ALL = ("sweep", "expand", "scan")
GEOMETRY = ("sweep", "expand")

SPANS = (
    Span("catalog.load_manifold", ("ckl.catalog:load_manifold",), ALL),
    Span("manifold.embed", ("ckl.manifold:EmbeddedManifold.embed",), GEOMETRY,
         _rows_of("coords"), ("rows",)),
    Span("manifold.jacobian", ("ckl.manifold:EmbeddedManifold.jacobian",),
         GEOMETRY, _rows_of("coords"), ("rows",)),
    Span("manifold.hessian", ("ckl.manifold:EmbeddedManifold.hessian",),
         ("scan",), _rows_of("coords"), ("rows",)),
    Span("manifold.metric", ("ckl.manifold:EmbeddedManifold.metric",),
         ("scan",)),
    Span("manifold.sqrt_det_metric",
         ("ckl.manifold:EmbeddedManifold.sqrt_det_metric",), GEOMETRY, _node_set,
         ("rows", "node_sets")),
    Span("manifold.volume", ("ckl.manifold:EmbeddedManifold.volume",), GEOMETRY),
    Span("manifold.curvature_at", ("ckl.manifold:curvature_at",), ("expand",)),
    Span("manifold.laplace_beltrami", ("ckl.manifold:laplace_beltrami",),
         ("expand",)),
    Span("fields.call", ("ckl.fields:ConstField.__call__",
                         "ckl.fields:AmbientCoordField.__call__",
                         "ckl.fields:ChartPolyField.__call__"), ("sweep",)),
    Span("operator.k_eps", ("ckl.operator:k_eps",), GEOMETRY, _rows_of("y"),
         ("rows",)),
    Span("operator.build_full_rule", ("ckl.operator:build_full_rule",), GEOMETRY),
    Span("operator.build_localized_rule", ("ckl.operator:build_localized_rule",),
         GEOMETRY, _rule_decision, ("nodes", "windowed", "full", "escalated")),
    Span("operator.tail_estimate", ("ckl.operator:tail_estimate",), GEOMETRY),
    Span("operator.apply_operator", ("ckl.operator:apply_operator",), GEOMETRY,
         _rule_nodes, ("nodes",)),
    Span("operator.eps_sweep", ("ckl.operator:eps_sweep",)),
    Span("operator.monte_carlo_operator", ("ckl.operator:monte_carlo_operator",),
         ("sweep",), lambda a, result: {"samples": int(a["n_samples"])},
         ("samples",)),
    Span("fit.fit_polynomial", ("ckl.fit:fit_polynomial",), ("expand",)),
    Span("fit.compare_closed_form", ("ckl.fit:compare_closed_form",),
         ("expand",)),
    Span("coeffs.a1_closed_form", ("ckl.coeffs:a1_closed_form",), ("expand",)),
    Span("coeffs.sphere_taylor_data", ("ckl.coeffs:sphere_taylor_data",)),
    Span("coeffs.expansion_from_taylor", ("ckl.coeffs:expansion_from_taylor",),
         ("expand",)),
    Span("moments.bell_partial", ("ckl.moments:bell_partial",), ("expand",)),
    Span("hypersurface.scan_equicurved", ("ckl.hypersurface:scan_equicurved",),
         ("scan",), _scan_counts, ("rows", "zero_set", "refined_zeros")),
    Span("cli.main", ("ckl.cli:main",), ALL),
)


class TargetMissing(Exception):
    """A function named in SPANS no longer exists."""


def resolve(target: str):
    """Return (owner, attribute name, function) for ``module:Qual.name``."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    except (AttributeError, KeyError):
        raise TargetMissing(f"span target {target} does not exist") from None
    if not callable(fn):
        raise TargetMissing(f"span target {target} is not callable")
    return owner, attr, fn


def check_targets():
    """Raise TargetMissing unless every span target resolves."""
    for span in SPANS:
        for target in span.targets:
            resolve(target)


class _Stat:
    __slots__ = ("calls", "self_s", "counts")

    def __init__(self, counters: tuple[str, ...]):
        self.calls = 0
        self.self_s = 0.0
        self.counts: dict = {key: set() if key == "node_sets" else 0
                             for key in counters}

    def add_counts(self, counts: dict):
        for key, value in counts.items():
            if isinstance(value, set):
                self.counts[key].update(value)
            else:
                self.counts[key] += value


class Tracer:
    """Collects span statistics for one process."""

    def __init__(self):
        self.stats = {span.name: _Stat(span.counters) for span in SPANS}
        self.top_s = 0.0
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, span: Span, fn):
        stat = self.stats[span.name]
        signature = inspect.signature(fn) if span.count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]                  # child time of this call
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_s += duration
            if signature is not None:
                start = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                stat.add_counts(span.count(bound.arguments, result))
                if stack:   # counting is tracer cost: keep it out of self time
                    stack[-1][0] += time.perf_counter() - start
            return result

        return wrapper

    def install(self):
        """Wrap every span target wherever a ckl module bound it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ckl" or name.startswith("ckl."))]
        for span in SPANS:
            for target in span.targets:
                owner, attr, fn = resolve(target)
                wrapper = self._wrap(span, fn)
                setattr(owner, attr, wrapper)
                if isinstance(owner, type):
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, name, wrapper)

    def snapshot(self) -> dict:
        """Plain per-span numbers: calls, self_s and counters."""
        out = {}
        for name, stat in self.stats.items():
            entry = {"calls": stat.calls, "self_s": stat.self_s}
            for key, value in stat.counts.items():
                entry[key] = len(value) if isinstance(value, set) else value
            out[name] = entry
        return out
