"""Named counters/gauges/histograms: pillar 2 of the observability layer.

An LLVM ``-stats``-style registry: every subsystem publishes into one
process-wide :class:`MetricsRegistry` under dotted names
(``slp.trees_built``, ``lookahead.evals``, ``cache.disk_hits``,
``interp.cycles``...), and the CLI renders the whole registry as text or
canonical JSON after a command.

Publication is **off by default** and guarded by one module-level flag:
the :func:`add`/:func:`set_gauge`/:func:`observe` helpers that
instrumented code calls are a single flag check when disabled.  The
registry itself always exists, so tests can drive it directly; call
:func:`reset` between compiles for isolation (the test suite does this
automatically).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Union


def _canonical_json(data: Any) -> str:
    """Sorted keys, compact separators (mirrors service.serde, kept
    local so ``repro.obs`` stays import-cycle-free below the SLP layer)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass
class Counter:
    """A monotonically increasing tally."""

    name: str
    value: int = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> int:
        return self.value


@dataclass
class Gauge:
    """A last-write-wins value."""

    name: str
    value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> float:
        return self.value


#: the fixed bucket upper bounds of every histogram that names no bounds
#: of its own, so cross-process merges are bucket-for-bucket additive and
#: the Prometheus exposition is stable.  Spans sub-millisecond cache
#: lookups through thousand-second batch walls.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)


def format_bound(bound: float) -> str:
    """One stable text rendering per bucket bound (``0.001``, ``10``,
    ``+Inf``) — the exposition and the golden tests both use it."""
    if bound == float("inf"):
        return "+Inf"
    text = repr(bound)
    return text[:-2] if text.endswith(".0") else text


@dataclass
class Histogram:
    """Observed-sample distribution with **fixed, stable bucket
    bounds**: ``bounds`` (default :data:`DEFAULT_BUCKETS`) is set when
    the histogram is made and never changes.  Bucket counts are kept
    per-bound and rendered *cumulatively* (Prometheus ``le`` semantics,
    the implicit ``+Inf`` bucket equalling ``count``), and summary stats
    (count/sum/min/max) ride along."""

    name: str
    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))
    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    #: per-bucket (non-cumulative) sample counts, one per bound plus a
    #: final overflow slot for samples above the largest bound
    bucket_counts: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # bisect_left keeps Prometheus ``le`` semantics inclusive: a
        # sample exactly on a bound counts in that bound's bucket.
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    def buckets(self) -> dict[str, int]:
        """Cumulative counts keyed by the stable bound text, in bound
        order, ending with ``+Inf`` == ``count``."""
        cumulative = 0
        out: dict[str, int] = {}
        for bound, slot in zip(self.bounds, self.bucket_counts):
            cumulative += slot
            out[format_bound(bound)] = cumulative
        out["+Inf"] = self.count
        return out

    def snapshot(self) -> dict[str, Any]:
        if self.count == 0:
            return {"count": 0, "sum": 0, "min": 0, "max": 0,
                    "buckets": self.buckets()}
        return {"count": self.count, "sum": self.total,
                "min": self.min, "max": self.max,
                "buckets": self.buckets()}

    def merge_counts(self, snapshot: dict[str, Any]) -> None:
        """Fold another histogram's snapshot into this one (the
        cross-process stitch).  Both sides must have the same bounds
        (:meth:`MetricsRegistry.merge_typed` checks them), so cumulative
        counts de-accumulate and add exactly."""
        if not snapshot.get("count"):
            return
        self.count += snapshot["count"]
        self.total += snapshot["sum"]
        self.min = min(self.min, snapshot["min"])
        self.max = max(self.max, snapshot["max"])
        previous = 0
        merged = list(snapshot["buckets"].values())
        for index, cumulative in enumerate(merged[:-1]):
            self.bucket_counts[index] += cumulative - previous
            previous = cumulative
        self.bucket_counts[-1] += merged[-1] - previous


def _snapshot_bounds(snapshot: dict[str, Any]) -> tuple[float, ...]:
    """The bucket bounds a histogram snapshot was taken with (its bucket
    keys, less the final ``+Inf``)."""
    return tuple(float(text) for text in list(snapshot["buckets"])[:-1])


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """All named metrics of one process (or one CLI invocation)."""

    def __init__(self):
        self._metrics: dict[str, Metric] = {}

    # ------------------------------------------------------------------

    def _get(self, name: str, cls, **fields) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, **fields)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        """The histogram ``name``, made with ``bounds`` on first use;
        asking for it with other bounds later is an error."""
        metric = self._get(name, Histogram, bounds=bounds)
        if metric.bounds != bounds:
            raise ValueError(f"histogram {name!r} has other bounds")
        return metric

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def reset(self) -> None:
        self._metrics.clear()

    def snapshot(self) -> dict[str, Any]:
        """Name-sorted view of every metric's current value."""
        return {
            name: self._metrics[name].snapshot()
            for name in sorted(self._metrics)
        }

    def typed_snapshot(self) -> dict[str, dict[str, Any]]:
        """Like :meth:`snapshot`, but each entry also names its metric
        type — the picklable form :meth:`merge_typed` consumes when a
        worker's registry is stitched into the parent's."""
        kinds = {Counter: "counter", Gauge: "gauge",
                 Histogram: "histogram"}
        return {
            name: {"kind": kinds[type(self._metrics[name])],
                   "value": self._metrics[name].snapshot()}
            for name in sorted(self._metrics)
        }

    def merge_typed(self, snapshot: dict[str, dict[str, Any]]) -> None:
        """Fold a :meth:`typed_snapshot` from another process into this
        registry: counters and histogram buckets add, gauges take the
        incoming value (last write wins, as everywhere)."""
        for name, entry in snapshot.items():
            kind, value = entry["kind"], entry["value"]
            if kind == "counter":
                self.counter(name).inc(value)
            elif kind == "gauge":
                self.gauge(name).set(value)
            else:
                self.histogram(name, _snapshot_bounds(value)).merge_counts(
                    value)

    def render(self) -> str:
        """LLVM ``-stats``-style text block, name-sorted.  Histogram
        lines carry the stable bucket bounds with *cumulative* counts
        (only buckets a sample landed in, plus ``+Inf``)."""
        lines = ["== lslp stats =="]
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                value = metric.snapshot()
                detail = (f"count={value['count']} sum={value['sum']} "
                          f"min={value['min']} max={value['max']}")
                shown = []
                previous = 0
                for bound, cumulative in value["buckets"].items():
                    if cumulative != previous or bound == "+Inf":
                        shown.append(f"le{bound}={cumulative}")
                        previous = cumulative
                lines.append(f"{name}: {detail} | {' '.join(shown)}")
            else:
                lines.append(f"{metric.snapshot():>12} {name}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """One canonical-JSON line (sorted keys, compact separators)."""
        return _canonical_json(self.snapshot())


#: the process-wide registry; always present, published-into on demand
_REGISTRY = MetricsRegistry()

#: one module-level flag guards all instrumented-code publication
_PUBLISH = False


def registry() -> MetricsRegistry:
    return _REGISTRY


def swap_registry(new: MetricsRegistry) -> MetricsRegistry:
    """Install ``new`` as the process-wide registry, returning the
    previous one.  Pool workers swap in a fresh registry per telemetry-
    captured job so each :class:`~repro.service.jobs.JobOutcome`
    carries exactly that job's metrics; the parent merges them back
    with :meth:`MetricsRegistry.merge_typed`."""
    global _REGISTRY
    previous, _REGISTRY = _REGISTRY, new
    return previous


def publishing() -> bool:
    return _PUBLISH


def set_publishing(on: bool) -> None:
    global _PUBLISH
    _PUBLISH = bool(on)


def reset() -> None:
    """Drop every metric (between-compile/test isolation)."""
    _REGISTRY.reset()


# ---------------------------------------------------------------------------
# Guarded publication helpers for instrumented code (hot-path safe)
# ---------------------------------------------------------------------------


def add(name: str, n: int = 1) -> None:
    if _PUBLISH:
        _REGISTRY.counter(name).inc(n)


def set_gauge(name: str, value: float) -> None:
    if _PUBLISH:
        _REGISTRY.gauge(name).set(value)


def observe(name: str, value: float,
            bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
    if _PUBLISH:
        _REGISTRY.histogram(name, bounds).observe(value)


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "add",
    "format_bound",
    "observe",
    "publishing",
    "registry",
    "reset",
    "set_gauge",
    "set_publishing",
    "swap_registry",
]
