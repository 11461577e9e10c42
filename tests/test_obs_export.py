"""Telemetry export: Prometheus/JSON exposition, histogram buckets,
and the cross-process trace stitcher (``repro.obs.export``)."""

from __future__ import annotations

import json

import pytest

from repro.obs import metrics, tracing
from repro.obs.export import (
    BREAKER_STATE_VALUES,
    JOB_TRACK_TID,
    SERVICE_PID,
    TraceStitcher,
    prometheus_name,
    render_metrics_json,
    render_prometheus,
    spans_to_payload,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    format_bound,
)
from repro.obs.validate import (
    validate_chrome_trace,
    validate_prometheus_text,
)


# ---------------------------------------------------------------------------
# Histogram buckets (satellite: stable bounds, golden-text pinned)
# ---------------------------------------------------------------------------


def test_default_buckets_are_sorted_and_stable():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
    assert DEFAULT_BUCKETS[0] == 0.001
    assert DEFAULT_BUCKETS[-1] == 1000.0


def test_format_bound():
    assert format_bound(0.001) == "0.001"
    assert format_bound(1.0) == "1"
    assert format_bound(2.5) == "2.5"
    assert format_bound(float("inf")) == "+Inf"


def test_histogram_buckets_are_cumulative_with_inclusive_bounds():
    hist = Histogram("h")
    for value in (0.5, 1.0, 3.0):
        hist.observe(value)
    buckets = hist.buckets()
    # ``le`` is inclusive: a sample exactly on a bound counts there.
    assert buckets["0.5"] == 1
    assert buckets["1"] == 2
    assert buckets["2.5"] == 2
    assert buckets["5"] == 3
    assert buckets["1000"] == 3
    assert buckets["+Inf"] == 3
    assert list(buckets)[-1] == "+Inf"
    values = list(buckets.values())
    assert values == sorted(values)  # cumulative => non-decreasing


def test_histogram_overflow_lands_only_in_inf():
    hist = Histogram("h")
    hist.observe(5000.0)
    buckets = hist.buckets()
    assert buckets["1000"] == 0
    assert buckets["+Inf"] == 1


def test_histogram_render_golden_text():
    """The pinned ``render()`` line: summary stats plus only the
    buckets a sample moved, cumulative, ending at ``+Inf``."""
    registry = MetricsRegistry()
    hist = registry.histogram("lat")
    for value in (0.5, 1.0, 3.0):
        hist.observe(value)
    assert registry.render() == (
        "== lslp stats ==\n"
        "lat: count=3 sum=4.5 min=0.5 max=3.0 "
        "| le0.5=1 le1=2 le5=3 le+Inf=3"
    )


def test_histogram_merge_counts_doubles_everything():
    hist = Histogram("h")
    for value in (0.002, 0.3, 2000.0):
        hist.observe(value)
    snapshot = hist.snapshot()
    hist.merge_counts(snapshot)
    assert hist.count == 6
    assert hist.buckets()["0.0025"] == 2
    assert hist.buckets()["+Inf"] == 6
    assert hist.min == 0.002
    assert hist.max == 2000.0


def test_histogram_with_own_bounds_is_additive_and_checked():
    registry = MetricsRegistry()
    bounds = (1.0, 2.0, 4.0, 8.0)
    hist = registry.histogram("ulp", bounds)
    for value in (1, 3, 3, 100):
        hist.observe(value)
    assert hist.buckets() == {"1": 1, "2": 1, "4": 3, "8": 3, "+Inf": 4}
    assert registry.histogram("ulp", bounds) is hist
    with pytest.raises(ValueError):
        registry.histogram("ulp")  # made with other bounds

    target = MetricsRegistry()
    target.merge_typed(registry.typed_snapshot())
    target.merge_typed(registry.typed_snapshot())
    merged = target.histogram("ulp", bounds)
    assert merged.bucket_counts == [2 * n for n in hist.bucket_counts]
    other = MetricsRegistry()
    other.histogram("ulp")  # made with the default bounds
    with pytest.raises(ValueError):
        other.merge_typed(registry.typed_snapshot())


def test_registry_merge_typed_round_trip():
    source = MetricsRegistry()
    source.counter("slp.trees_built").inc(4)
    source.gauge("service.workers").set(2)
    source.histogram("service.job_latency_seconds").observe(0.25)
    payload = source.typed_snapshot()

    target = MetricsRegistry()
    target.merge_typed(payload)
    target.merge_typed(payload)
    snap = target.snapshot()
    assert snap["slp.trees_built"] == 8          # counters add
    assert snap["service.workers"] == 2          # gauges last-write-win
    assert snap["service.job_latency_seconds"]["count"] == 2
    assert snap["service.job_latency_seconds"]["buckets"]["0.25"] == 2


# ---------------------------------------------------------------------------
# Prometheus / JSON exposition
# ---------------------------------------------------------------------------


def test_prometheus_name_mangling():
    assert (prometheus_name("service.job_latency_seconds")
            == "lslp_service_job_latency_seconds")
    assert prometheus_name("a-b/c") == "lslp_a_b_c"
    assert prometheus_name("9lives").startswith("lslp__9")


def test_render_prometheus_golden_text():
    registry = MetricsRegistry()
    registry.counter("cache.hits").inc(3)
    registry.gauge("service.workers").set(2)
    assert render_prometheus(registry) == (
        "# HELP lslp_cache_hits_total cache.hits\n"
        "# TYPE lslp_cache_hits_total counter\n"
        "lslp_cache_hits_total 3\n"
        "# HELP lslp_service_workers service.workers\n"
        "# TYPE lslp_service_workers gauge\n"
        "lslp_service_workers 2\n"
    )


def test_render_prometheus_histogram_and_breaker_validate():
    registry = MetricsRegistry()
    hist = registry.histogram("service.job_latency_seconds")
    for value in (0.004, 0.02, 7.5):
        hist.observe(value)
    text = render_prometheus(
        registry,
        breaker_states={"lslp": {"state": "open"},
                        "slp": {"state": "closed"}},
    )
    assert validate_prometheus_text(
        text,
        require_metrics=["lslp_service_job_latency_seconds",
                         "lslp_service_breaker_state"],
    ) == []
    assert ('lslp_service_job_latency_seconds_bucket{le="+Inf"} 3'
            in text)
    assert "lslp_service_job_latency_seconds_count 3" in text
    assert ('lslp_service_breaker_state{shard="lslp"} '
            f"{BREAKER_STATE_VALUES['open']}") in text
    assert ('lslp_service_breaker_state{shard="slp"} '
            f"{BREAKER_STATE_VALUES['closed']}") in text


def test_validate_prometheus_rejects_untyped_and_non_cumulative():
    assert validate_prometheus_text("lslp_orphan 1\n") != []
    broken = (
        "# TYPE lslp_h histogram\n"
        'lslp_h_bucket{le="1"} 5\n'
        'lslp_h_bucket{le="+Inf"} 3\n'
        "lslp_h_count 3\n"
    )
    errors = validate_prometheus_text(broken)
    assert any("cumulative" in error for error in errors)
    no_inf = (
        "# TYPE lslp_h histogram\n"
        'lslp_h_bucket{le="1"} 1\n'
    )
    assert any("+Inf" in error
               for error in validate_prometheus_text(no_inf))


def test_render_metrics_json_is_canonical():
    registry = MetricsRegistry()
    registry.counter("b").inc(1)
    registry.counter("a").inc(2)
    text = render_metrics_json(registry)
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              separators=(",", ":"))
    assert list(json.loads(text)) == ["a", "b"]


# ---------------------------------------------------------------------------
# Span payloads and the trace stitcher
# ---------------------------------------------------------------------------


def test_spans_to_payload_rebases_to_epoch():
    tracer = tracing.install()
    try:
        with tracing.span("unit.outer", k=1):
            with tracing.span("unit.inner"):
                pass
        payload = spans_to_payload(tracer)
    finally:
        tracing.uninstall()
    assert [span["name"] for span in payload] == \
        ["unit.outer", "unit.inner"]
    outer = payload[0]
    assert outer["attrs"] == {"k": 1}
    assert 0.0 <= outer["start"] < 60.0  # epoch-relative, not absolute
    assert outer["wall"] >= 0.0


def _payload(name, start=0.001, attrs=None):
    return {"name": name, "index": 0, "depth": 0, "parent": -1,
            "start": start, "wall": 0.002, "cpu": 0.001,
            "attrs": attrs or {}}


def test_stitcher_lanes_are_first_appearance_stable():
    stitcher = TraceStitcher(base_wall=1000.0)
    assert stitcher.lane_for(4321) == SERVICE_PID + 1
    assert stitcher.lane_for(99) == SERVICE_PID + 2
    assert stitcher.lane_for(4321) == SERVICE_PID + 1
    assert stitcher.worker_lanes == {4321: 2, 99: 3}
    names = [event["args"]["name"] for event in stitcher.events
             if event.get("name") == "process_name"]
    assert names == ["service", "worker-1 (pid 4321)",
                     "worker-2 (pid 99)"]


def test_stitcher_document_validates_and_places_spans():
    stitcher = TraceStitcher(base_wall=1000.0)
    lane = stitcher.lane_for(4321)
    stitcher.add_spans(lane, [_payload("job.attempt",
                                       attrs={"attempt": 1})],
                       wall_base=1000.5,
                       extra_attrs={"job_index": 7})
    stitcher.job_begin(7, "job:k/lslp", 1000.0, 0.1)
    stitcher.job_point(7, "job:k/lslp", "dispatched", 1000.0, 0.2)
    stitcher.job_end(7, "job:k/lslp", 1000.0, 0.9)
    text = stitcher.to_chrome()
    assert validate_chrome_trace(text) == []

    events = json.loads(text)["traceEvents"]
    spans = [event for event in events if event["ph"] == "X"]
    assert len(spans) == 1
    # 0.5s wall skew + 0.001s span offset => 501000us on the timeline
    assert spans[0]["ts"] == pytest.approx(501000.0)
    assert spans[0]["pid"] == lane
    assert spans[0]["args"]["attempt"] == 1
    assert spans[0]["args"]["job_index"] == 7

    arrows = [event for event in events
              if event["ph"] in ("b", "n", "e")]
    assert [event["ph"] for event in arrows] == ["b", "n", "e"]
    assert all(event["id"] == "0x7" for event in arrows)
    assert all(event["pid"] == SERVICE_PID
               and event["tid"] == JOB_TRACK_TID for event in arrows)
    assert arrows[1]["args"]["point"] == "dispatched"


def test_stitcher_metadata_only_trace_counts_as_empty():
    stitcher = TraceStitcher(base_wall=0.0)
    stitcher.lane_for(1234)
    errors = validate_chrome_trace(stitcher.to_chrome())
    assert any("empty" in error for error in errors)
