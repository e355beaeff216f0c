"""Tests for utilization/throughput trackers and cluster stats helpers."""

import pytest

from repro.cluster.metrics import ThroughputWindow, UtilizationTracker


class TestUtilizationTracker:
    def test_time_weighted_average(self):
        tracker = UtilizationTracker(start_time=0.0)
        tracker.record(0.0, 1.0)  # 100% for 4s
        tracker.record(4.0, 0.0)  # 0% for 6s
        assert tracker.average(10.0) == pytest.approx(0.4)

    def test_average_extends_last_value(self):
        tracker = UtilizationTracker()
        tracker.record(0.0, 0.5)
        assert tracker.average(8.0) == pytest.approx(0.5)

    def test_zero_span_is_zero(self):
        assert UtilizationTracker().average(0.0) == 0.0

    def test_current_value(self):
        tracker = UtilizationTracker()
        tracker.record(1.0, 0.7)
        assert tracker.current == 0.7

    def test_time_going_backwards_rejected(self):
        tracker = UtilizationTracker()
        tracker.record(5.0, 1.0)
        with pytest.raises(ValueError):
            tracker.record(4.0, 0.5)
        with pytest.raises(ValueError):
            tracker.average(4.0)

    def test_nonzero_start_time(self):
        tracker = UtilizationTracker(start_time=10.0)
        tracker.record(10.0, 1.0)
        tracker.record(15.0, 0.0)
        assert tracker.average(20.0) == pytest.approx(0.5)


class TestThroughputWindow:
    def test_accumulates(self):
        window = ThroughputWindow(start_time=0.0)
        window.record(100.0)
        window.record(300.0)
        assert window.total_megapixels == 400.0
        assert window.completions == 2
        assert window.mpix_per_second(4.0) == pytest.approx(100.0)

    def test_zero_span(self):
        window = ThroughputWindow(start_time=5.0)
        assert window.mpix_per_second(5.0) == 0.0
