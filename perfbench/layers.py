"""Per-layer tracing from outside the program.

The traced run wraps the public entry point of each layer of
``src/repro`` (listed in :data:`LAYER_POINTS`) in a timing shim, records
one span per call, and restores the originals afterwards.  The
program's own spans, ``PassTiming`` and ``compile_seconds`` are not
used: the benchmark measures every layer with one clock, at the call
boundary.

A span records its name, start, end, parent span and request id.  Spans
are kept in memory and written out when the run ends.  A layer's self
time is its spans' durations minus the part their child spans cover;
the root ``request`` span's self time is the time no wrapped layer
accounts for (``trace.unattributed_s``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Optional

#: (module, attribute path, span name).  A dotted attribute path is a
#: method on a class; a plain one is a module-level function, which is
#: replaced in every loaded ``repro`` module that imported it by name.
LAYER_POINTS: list[tuple[str, str, str]] = [
    ("repro.service.service", "CompilationService.compile_job",
     "service.compile_job"),
    ("repro.service.cache", "CompileCache.get", "service.lookup"),
    ("repro.service.cache", "CompileCache.put", "service.store"),
    ("repro.frontend.parser", "parse_program", "frontend.parse"),
    ("repro.frontend.lower", "lower_program", "frontend.lower"),
    ("repro.ir.parser", "parse_module", "ir.parse"),
    ("repro.ir.printer", "print_module", "ir.print"),
    ("repro.opt.passmanager", "PassManager.run_function", "opt.pipeline"),
    ("repro.robustness.guard", "PassGuard.run_pass", "robustness.guard"),
    ("repro.robustness.guard", "DifferentialOracle.check",
     "robustness.oracle"),
    ("repro.slp.vectorizer", "SLPVectorizer.run_function",
     "slp.vectorize"),
    ("repro.slp.vectorizer", "ModuleVectorizationDriver.plan_function",
     "slp.vectorize"),
    ("repro.slp.vectorizer", "ModuleVectorizationDriver.select",
     "slp.vectorize"),
    ("repro.slp.vectorizer", "ModuleVectorizationDriver.apply_function",
     "slp.vectorize"),
    ("repro.backend.emit", "emit_module", "backend.emit"),
    ("repro.backend.validate", "cross_check", "backend.validate"),
    ("repro.backend.runtime", "load_compiled", "backend.load"),
    ("repro.backend.runtime", "CompiledModule.bind", "backend.bind"),
    ("repro.backend.runtime", "BoundFunction.run", "backend.exec"),
    ("repro.backend.tiers", "TieredExecutor.run", "backend.tier"),
    ("repro.interp.interpreter", "Interpreter.run", "interp.run"),
]

#: the span every pass function added to a ``PassManager`` runs under
PASS_SPAN = "opt.pass"

#: per-layer metric -> span names whose self times it sums
TIME_METRICS: dict[str, tuple[str, ...]] = {
    "frontend.parse_s": ("frontend.parse",),
    "frontend.lower_s": ("frontend.lower",),
    "opt.passes_s": ("opt.pipeline", PASS_SPAN),
    "robustness.guard_self_s": ("robustness.guard",),
    "robustness.oracle_s": ("robustness.oracle",),
    "slp.vectorize_s": ("slp.vectorize",),
    "service.self_s": ("service.compile_job",),
    "service.lookup_s": ("service.lookup",),
    "service.store_s": ("service.store",),
    "ir.print_s": ("ir.print",),
    "ir.parse_s": ("ir.parse",),
    "backend.emit_s": ("backend.emit",),
    "backend.validate_s": ("backend.validate",),
    "backend.load_s": ("backend.load",),
    "backend.bind_s": ("backend.bind",),
    "backend.exec_s": ("backend.exec",),
    "backend.tier_s": ("backend.tier",),
    "interp.run_s": ("interp.run",),
    "trace.unattributed_s": ("request",),
}

#: per-layer metric -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    **{name: ("s", "lower") for name in TIME_METRICS},
    "opt.pass_runs": ("count", "lower"),
    "robustness.rollbacks": ("count", "lower"),
    "ir.clones": ("count", "lower"),
    "slp.trees_built": ("count", "lower"),
    "slp.lookahead_evals": ("count", "lower"),
    "slp.plan_candidates": ("count", "lower"),
    "slp.plan_selected": ("count", "higher"),
    "slp.plan_useful_frac": ("frac", "higher"),
    "service.cache_hits": ("count", "higher"),
    "service.cache_misses": ("count", "lower"),
    "service.cache_hit_frac": ("frac", "higher"),
    "backend.loads": ("count", "lower"),
    "backend.fallbacks": ("count", "lower"),
    "interp.instructions": ("count", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

#: which end-to-end metric, on which workload, each per-layer metric
#: should move (printed with every traced run)
MOVES: dict[str, str] = {
    "frontend.parse_s": "latency_ms_p50 on catalog-cold (small share)",
    "frontend.lower_s": "latency_ms_p50 on catalog-cold (small share)",
    "opt.passes_s": "latency_ms_p50 on suite-cold; a small share on "
                    "catalog-cold",
    "opt.pass_runs": "latency_ms_p50 on suite-cold; a small share on "
                     "catalog-cold",
    "robustness.guard_self_s":
        "latency_ms_p50, requests_per_s, peak_rss_mb on catalog-cold "
        "and suite-cold",
    "robustness.oracle_s": "latency_ms_p50 on catalog-cold",
    "robustness.rollbacks": "failed requests on every workload",
    "ir.clones": "latency_ms_p50 and peak_rss_mb on catalog-cold and "
                 "suite-cold",
    "slp.vectorize_s": "latency_ms_p50 on catalog-cold, less on "
                       "suite-cold",
    "slp.trees_built": "latency_ms_p50 on catalog-cold",
    "slp.lookahead_evals": "latency_ms_p50 on catalog-cold",
    "slp.plan_candidates": "latency_ms_p50 on catalog-cold",
    "slp.plan_selected": "latency_ms_p50 on catalog-cold",
    "slp.plan_useful_frac": "latency_ms_p50 on catalog-cold",
    "service.self_s": "latency_ms_p50 on catalog-cold and warm-exec",
    "service.lookup_s": "latency_ms_p50 on warm-exec",
    "service.store_s": "latency_ms_p50 on catalog-cold",
    "service.cache_hits": "latency_ms_p50 on warm-exec",
    "service.cache_misses": "latency_ms_p50 on catalog-cold",
    "service.cache_hit_frac": "latency_ms_p50 on warm-exec",
    "ir.print_s": "latency_ms_p50 on catalog-cold",
    "ir.parse_s": "latency_ms_p50 on warm-exec",
    "backend.emit_s": "latency_ms_p50 on catalog-cold",
    "backend.validate_s": "latency_ms_p50 on catalog-cold",
    "backend.load_s": "latency_ms_p50 on warm-exec",
    "backend.bind_s": "latency_ms_p50 on warm-exec",
    "backend.exec_s": "exec_runs_per_s on warm-exec",
    "backend.tier_s": "exec_runs_per_s on warm-exec",
    "backend.loads": "latency_ms_p50 on warm-exec",
    "backend.fallbacks": "exec_runs_per_s on catalog-cold",
    "interp.run_s": "latency_ms_p50 on catalog-cold (oracle and backend "
                    "cross-check) and suite-cold",
    "interp.instructions": "latency_ms_p50 on catalog-cold and "
                           "suite-cold",
    "trace.unattributed_s": "none: time outside every wrapped layer",
    "trace.overhead_frac": "none: traced vs untraced requests_per_s",
}


class SpanRecorder:
    """In-memory span store with a live stack for self-time accounting.

    Each span is ``[name, start, end, parent, request, child_seconds]``;
    ``parent`` is the index of the enclosing span or ``-1``.
    """

    def __init__(self):
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.request = -1
        #: wrappers record only while set, so the benchmark's own checks
        #: between requests stay out of the trace
        self.enabled = False

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.request, 0.0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {span[0]!r} closed out of order"
            )
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str, fn: Callable, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # ---- summaries ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, child spans excluded."""
        totals: dict[str, float] = {}
        for name, start, end, _, _, child in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start - child)
        return totals

    def span_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span[0]] = counts.get(span[0], 0) + 1
        return counts

    def dump(self, path, extra: Optional[dict] = None) -> None:
        """Write every span (times relative to the first) as JSON."""
        base = self.spans[0][1] if self.spans else 0.0
        document = dict(extra or {})
        document["fields"] = ["name", "start_s", "end_s", "parent",
                              "request"]
        document["spans"] = [
            [name, round(start - base, 9), round(end - base, 9), parent,
             request]
            for name, start, end, parent, request, _ in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(document, handle)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class LayerTrace:
    """Context manager installing the layer shims on a recorder."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[Any, str, Any]] = []

    def _replace(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _replace_everywhere(self, original, replacement) -> None:
        """Swap a module-level function in every ``repro`` module that
        holds it, so ``from x import f`` call sites are traced too."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, replacement)

    def _spanned(self, fn: Callable, span_name: str) -> Callable:
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            index = recorder.open(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(index)
        return wrapper

    def __enter__(self) -> "LayerTrace":
        recorder = self.recorder
        for module_name, path, span_name in LAYER_POINTS:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapped = self._spanned(original, span_name)
            if isinstance(owner, type):
                self._replace(owner, attr, wrapped)
            else:
                self._replace_everywhere(original, wrapped)

        # Counted, not spanned: a snapshot clone is guard work.
        from repro.ir import cloning

        clone = cloning.clone_function

        def counted_clone(*args, **kwargs):
            if recorder.enabled:
                recorder.count("ir.clones")
            return clone(*args, **kwargs)
        self._replace_everywhere(clone, counted_clone)

        # Retired instructions of top-level interpreter runs (callee
        # runs are already folded into their caller's result).
        from repro.interp.interpreter import Interpreter

        run = Interpreter.run

        def counted_run(interp, *args, **kwargs):
            result = run(interp, *args, **kwargs)
            if recorder.enabled and not kwargs.get("_depth"):
                recorder.count("interp.instructions",
                               result.instructions_retired)
            return result
        self._replace(Interpreter, "run", functools.wraps(run)(counted_run))

        # Every pass a PassManager registers runs under its own span.
        from repro.opt.passmanager import PassManager

        add = PassManager.add
        spanned = self._spanned

        def traced_add(manager, name, pass_fn):
            return add(manager, name, spanned(pass_fn, PASS_SPAN))
        self._replace(PassManager, "add", traced_add)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


__all__ = ["LAYER_POINTS", "LayerTrace", "MOVES", "PASS_SPAN", "PER_LAYER",
           "SpanRecorder", "TIME_METRICS"]
