"""Unit tests for the repro.obs.metrics registry.

The registry is the single schema every layer reports into, so its
edge behaviour — bucket boundaries, quantile interpolation, label
cardinality limits, thread safety, and the disabled (None-registry)
mode the overhead benchmark relies on — is pinned here.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Bound,
    CardinalityError,
    MetricsRegistry,
    counter_inc,
    gauge_set,
    observe,
    registry,
    set_registry,
)


class TestCountersAndGauges:
    def test_counter_accumulates_per_label_set(self) -> None:
        reg = MetricsRegistry()
        reg.counter("frames_total", kind="echo").inc()
        reg.counter("frames_total", kind="echo").inc(3)
        reg.counter("frames_total", kind="ready").inc()
        snap = reg.snapshot()["frames_total"]
        by_kind = {s["labels"]["kind"]: s["value"] for s in snap["samples"]}
        assert by_kind == {"echo": 4, "ready": 1}

    def test_gauge_set_inc_dec(self) -> None:
        reg = MetricsRegistry()
        gauge = reg.gauge("depth")
        gauge.set(7)
        gauge.inc(2)
        gauge.dec()
        assert reg.snapshot()["depth"]["samples"][0]["value"] == 8

    def test_label_values_are_stringified(self) -> None:
        reg = MetricsRegistry()
        reg.counter("c", node=3).inc()
        reg.counter("c", node="3").inc()
        samples = reg.snapshot()["c"]["samples"]
        assert len(samples) == 1 and samples[0]["value"] == 2

    def test_every_spelling_of_a_label_set_reaches_one_child(self) -> None:
        reg = MetricsRegistry()
        spellings = [
            {"kind": "1", "node": "a"},
            {"node": "a", "kind": "1"},
            {"kind": 1, "node": "a"},
            {"node": "a", "kind": 1},
        ]
        for _ in range(2):  # the second pass takes the remembered spellings
            children = {id(reg.counter("c", **labels)) for labels in spellings}
            assert len(children) == 1
        # 1 == True, but they are distinct label values, as ever.
        assert reg.counter("c", node="a", kind=True) is not reg.counter(
            "c", node="a", kind=1
        )
        assert [s["labels"] for s in reg.snapshot()["c"]["samples"]] == [
            {"kind": "1", "node": "a"},
            {"kind": "True", "node": "a"},
        ]

    def test_cardinality_limit_counts_label_sets_not_spellings(self) -> None:
        reg = MetricsRegistry(label_limit=2)
        for _ in range(3):
            for kind in ("echo", "ready"):
                reg.counter("c", kind=kind, node="1").inc()
                reg.counter("c", node=1, kind=kind).inc()
        assert sum(s["value"] for s in reg.snapshot()["c"]["samples"]) == 12
        with pytest.raises(CardinalityError):
            reg.counter("c", kind="send", node="1")

    def test_unhashable_label_value_is_stringified(self) -> None:
        reg = MetricsRegistry()
        reg.counter("c", q=[1, 2]).inc()
        reg.counter("c", q="[1, 2]").inc()
        assert reg.snapshot()["c"]["samples"][0]["value"] == 2

    def test_kind_mismatch_raises(self) -> None:
        reg = MetricsRegistry()
        reg.counter("x").inc()
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_cardinality_limit_enforced(self) -> None:
        reg = MetricsRegistry(label_limit=4)
        for i in range(4):
            reg.counter("busy", shard=i).inc()
        with pytest.raises(CardinalityError):
            reg.counter("busy", shard=99)


class TestHistogram:
    def test_empty_histogram_quantiles_are_zero(self) -> None:
        reg = MetricsRegistry()
        hist = reg.histogram("lat")
        assert hist.quantile(0.5) == 0.0
        sample = reg.snapshot()["lat"]["samples"][0]
        assert sample["count"] == 0 and sample["p99"] == 0.0

    def test_observation_on_edge_lands_in_that_bucket(self) -> None:
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
        hist.observe(2.0)  # le-inclusive: exactly 2.0 -> the 2.0 bucket
        assert hist.counts == [0, 1, 0, 0]

    def test_overflow_lands_in_inf_bucket_and_clamps(self) -> None:
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(1.0, 2.0))
        hist.observe(50.0)
        assert hist.counts == [0, 0, 1]
        # Quantiles falling in +Inf clamp to the last finite edge.
        assert hist.quantile(0.99) == 2.0

    def test_quantiles_interpolate_within_bucket(self) -> None:
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            hist.observe(1.5)  # all in the (1.0, 2.0] bucket
        p50 = hist.quantile(0.50)
        assert 1.0 < p50 <= 2.0
        assert hist.quantile(0.99) <= 2.0

    def test_default_buckets_are_ascending(self) -> None:
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-4)

    def test_sum_and_count_track_observations(self) -> None:
        reg = MetricsRegistry()
        hist = reg.histogram("lat")
        for value in (0.001, 0.01, 0.1):
            hist.observe(value)
        sample = reg.snapshot()["lat"]["samples"][0]
        assert sample["count"] == 3
        assert sample["sum"] == pytest.approx(0.111)


class TestThreadSafety:
    def test_concurrent_increments_are_exact(self) -> None:
        reg = MetricsRegistry()
        per_thread = 2000

        def work() -> None:
            for _ in range(per_thread):
                reg.counter("hits", worker="shared").inc()
                reg.histogram("lat", worker="shared").observe(0.001)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = reg.snapshot()
        assert snap["hits"]["samples"][0]["value"] == 8 * per_thread
        assert snap["lat"]["samples"][0]["count"] == 8 * per_thread


class TestExposition:
    def test_snapshot_is_json_serializable(self) -> None:
        reg = MetricsRegistry()
        reg.counter("a", kind="x").inc()
        reg.histogram("b").observe(0.5)
        json.dumps(reg.snapshot())  # must not raise

    def test_render_text_prometheus_shape(self) -> None:
        reg = MetricsRegistry()
        reg.counter("repro_t_total", help="help text", kind="echo").inc(3)
        reg.histogram("repro_lat", buckets=(1.0, 2.0)).observe(1.5)
        text = reg.render_text()
        assert "# HELP repro_t_total help text" in text
        assert "# TYPE repro_t_total counter" in text
        assert 'repro_t_total{kind="echo"} 3' in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert "repro_lat_count 1" in text

    def test_label_values_escaped(self) -> None:
        reg = MetricsRegistry()
        reg.counter("c", kind='with"quote').inc()
        assert '\\"' in reg.render_text()


class TestActiveRegistry:
    def test_helpers_disabled_with_none_registry(self) -> None:
        previous = set_registry(None)
        try:
            # All three helpers must be silent no-ops.
            counter_inc("never")
            gauge_set("never", 1.0)
            observe("never", 0.5)
            assert registry() is None
        finally:
            set_registry(previous)

    def test_bound_family_follows_the_active_registry(self) -> None:
        frames = Bound("bound_total", "frames", "kind")
        step = Bound("bound_seconds", "steps", kind="histogram")
        first, second = MetricsRegistry(), MetricsRegistry()
        previous = set_registry(first)
        try:
            frames.inc("a")
            frames.inc("a", 2)
            step.observe(0.5)
            assert frames.child("a") is first.counter("bound_total", kind="a")
            set_registry(second)
            frames.inc("a")
            set_registry(None)
            frames.inc("a")  # a no-op with metering off
            step.observe(0.5)
            assert frames.child("a") is None
        finally:
            set_registry(previous)
        assert first.counter("bound_total", kind="a").value == 3
        assert first.histogram("bound_seconds").total == 1
        assert second.counter("bound_total", kind="a").value == 1
        assert "bound_seconds" not in second.snapshot(collect=False)

    def test_helpers_route_to_installed_registry(self) -> None:
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            counter_inc("routed_total", kind="a")
            snap = mine.snapshot(collect=False)
            assert snap["routed_total"]["samples"][0]["value"] == 1
        finally:
            set_registry(previous)
