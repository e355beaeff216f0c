"""Unit tests for the metrics registry: counters, gauges, histograms.

Also locks down :class:`UtilizationTracker`'s new home in ``repro.obs``
(the cluster's ``metrics`` module re-exports it) and the monotonic-time
contract of ``record``/``average`` -- both directions of the clock check.
"""

import typing

import pytest

from repro.cluster.cluster import ClusterStats
from repro.obs.registry import (
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeWeightedGauge,
    UtilizationTracker,
)


class TestCounter:
    def test_increments_default_one(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1.0)


class TestGauge:
    def test_last_value_wins(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(7.5)
        assert gauge.value == 7.5


class TestHistogram:
    def test_bucket_boundaries_are_inclusive_upper_bounds(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 100.0):
            hist.observe(value)
        # <=1: {0.5, 1.0}; <=2: {1.5, 2.0}; <=4: {3.0, 4.0}; inf: {100.0}
        assert hist.counts == [2, 2, 2, 1]
        assert hist.total == 7
        assert hist.sum == pytest.approx(112.0)

    def test_cumulative_is_monotone_and_ends_at_total(self):
        hist = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.2, 5.0, 50.0, 0.9):
            hist.observe(value)
        cumulative = hist.cumulative()
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == hist.total == 4

    def test_validates_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_quantile_returns_bucket_upper_bound(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.5, 1.5, 3.0, 3.0, 3.0, 3.0):
            hist.observe(value)
        # Counts [2, 2, 4]: p25 lands in <=1, p50 in <=2, p99 in <=4.
        assert hist.quantile(0.25) == 1.0
        assert hist.quantile(0.50) == 2.0
        assert hist.quantile(0.99) == 4.0
        assert hist.quantile(1.0) == 4.0

    def test_quantile_overflow_reports_last_finite_bound(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        hist.observe(0.5)
        for _ in range(9):
            hist.observe(50.0)  # overflow bucket
        assert hist.quantile(0.05) == 1.0
        # The top of the distribution is beyond the finite bounds; the
        # best the histogram can say is "at least the last bound".
        assert hist.quantile(0.99) == 2.0

    def test_quantile_of_empty_histogram_is_zero(self):
        assert Histogram("h", bounds=(1.0,)).quantile(0.5) == 0.0

    def test_quantile_validates_q(self):
        hist = Histogram("h", bounds=(1.0,))
        with pytest.raises(ValueError):
            hist.quantile(0.0)
        with pytest.raises(ValueError):
            hist.quantile(1.1)


class TestUtilizationTracker:
    def test_lives_in_obs_and_is_reexported_by_cluster_metrics(self):
        from repro.cluster.metrics import UtilizationTracker as reexported

        assert reexported is UtilizationTracker

    def test_time_weighted_average(self):
        tracker = UtilizationTracker()
        tracker.record(0.0, 1.0)
        tracker.record(10.0, 0.0)
        assert tracker.average(20.0) == pytest.approx(0.5)

    def test_average_accepts_none_and_uses_last_sample_time(self):
        tracker = UtilizationTracker()
        tracker.record(0.0, 0.5)
        tracker.record(10.0, 1.0)
        assert tracker.average() == pytest.approx(0.5)
        assert tracker.average(None) == tracker.average()

    def test_average_annotation_is_optional_float(self):
        hints = typing.get_type_hints(UtilizationTracker.average)
        assert hints["now"] == typing.Optional[float]
        assert hints["return"] is float

    def test_record_rejects_time_going_backwards(self):
        tracker = UtilizationTracker()
        tracker.record(10.0, 1.0)
        with pytest.raises(ValueError):
            tracker.record(5.0, 0.5)

    def test_average_rejects_time_going_backwards(self):
        tracker = UtilizationTracker()
        tracker.record(10.0, 1.0)
        with pytest.raises(ValueError):
            tracker.average(5.0)

    def test_empty_span_averages_to_zero(self):
        assert UtilizationTracker().average() == 0.0
        assert UtilizationTracker(start_time=5.0).average(5.0) == 0.0


class TestTimeWeightedGauge:
    def test_wraps_the_tracker(self):
        gauge = TimeWeightedGauge("tg")
        gauge.set(0.0, 4.0)
        gauge.set(10.0, 0.0)
        assert gauge.average(10.0) == pytest.approx(4.0)
        assert gauge.current == 0.0


class TestMetricsRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        assert "a" in registry and "missing" not in registry
        assert registry.names() == ["a", "h"]

    def test_name_cannot_change_instrument_type(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_snapshot_flattens_every_instrument_kind(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(3)
        registry.gauge("level").set(0.25)
        hist = registry.histogram("lat", bounds=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(5.0)
        tg = registry.time_gauge("util")
        tg.set(0.0, 1.0)
        tg.set(10.0, 0.0)
        snap = registry.snapshot(now=10.0)
        assert snap["events"] == 3.0
        assert snap["level"] == 0.25
        assert snap["lat.count"] == 2.0
        assert snap["lat.sum"] == 5.5
        assert snap["lat.le.1"] == 1.0
        assert snap["lat.le.2"] == 1.0
        assert snap["lat.le.inf"] == 2.0
        assert snap["util.avg"] == pytest.approx(1.0)
        assert snap["util.current"] == 0.0
        assert list(snap) == sorted(snap)

    def test_default_buckets_are_strictly_increasing(self):
        assert list(DEFAULT_SECONDS_BUCKETS) == sorted(set(DEFAULT_SECONDS_BUCKETS))


class TestRegistryAttach:
    """``MetricsRegistry.attach``: a record the registry reads, not copies."""

    def test_attached_registry_entries_join_the_snapshot(self):
        hub, owned = MetricsRegistry(), MetricsRegistry()
        hub.counter("mine").inc(1)
        hub.attach(owned)
        owned.counter("theirs").inc(2)  # recorded after the attach
        assert hub.snapshot() == {"mine": 1.0, "theirs": 2.0}

    def test_lookups_find_the_attached_instrument(self):
        hub, owned = MetricsRegistry(), MetricsRegistry()
        gauge = owned.time_gauge("util", 5.0)
        hub.attach(owned)
        assert "util" in hub
        assert hub.time_gauge("util") is gauge
        assert hub.names() == []

    def test_any_snapshot_source_is_read_with_the_snapshot_time(self):
        class Source:
            def snapshot(self, now):
                return {"src.now": now}

        hub = MetricsRegistry()
        hub.attach(Source())
        assert hub.snapshot(now=7.0) == {"src.now": 7.0}

    def test_a_key_written_by_two_sources_raises_naming_it(self):
        hub, first, second = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        first.counter("events").inc()
        second.counter("events").inc()
        hub.attach(first)
        hub.attach(second)
        with pytest.raises(ValueError, match="'events'"):
            hub.snapshot()

    def test_a_source_key_the_registry_also_writes_raises(self):
        hub, owned = MetricsRegistry(), MetricsRegistry()
        hub.histogram("lat", bounds=(1.0,)).observe(0.5)
        owned.counter("lat.count").inc()
        hub.attach(owned)
        with pytest.raises(ValueError, match="'lat.count'"):
            hub.snapshot()

    def test_a_source_zero_counter_is_absent(self):
        hub, owned = MetricsRegistry(), MetricsRegistry()
        owned.counter("idle")
        owned.histogram("empty")
        owned.counter("busy").inc()
        hub.attach(owned)
        hub.attach(ClusterStats(completed_steps=3))
        assert hub.snapshot() == {"busy": 1.0, "cluster.completed_steps": 3.0}

    def test_an_empty_source_adds_nothing(self):
        hub = MetricsRegistry()
        hub.counter("events").inc(1)
        hub.attach(MetricsRegistry())
        assert hub.snapshot() == {"events": 1.0}
