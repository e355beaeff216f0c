"""Tests for cluster statistics accounting."""

import pytest

from repro.cluster.cluster import ClusterStats
from repro.cluster.metrics import ThroughputWindow


class TestClusterStats:
    def test_per_vcu_rate(self):
        stats = ClusterStats(throughput=ThroughputWindow(start_time=0.0))
        stats.throughput.record(500.0)
        stats.throughput.record(500.0)
        assert stats.per_vcu_mpix_per_second(now=20.0, vcu_count=5) == pytest.approx(10.0)

    def test_per_vcu_rate_guards(self):
        stats = ClusterStats(throughput=ThroughputWindow(start_time=5.0))
        assert stats.per_vcu_mpix_per_second(now=5.0, vcu_count=4) == 0.0
        assert stats.per_vcu_mpix_per_second(now=10.0, vcu_count=0) == 0.0

    def test_defaults_zeroed(self):
        stats = ClusterStats()
        assert stats.completed_steps == 0
        assert stats.software_fallbacks == 0
        assert stats.corrupt_escaped == 0
        assert stats.graph_latencies == []
        assert stats.per_vcu_megapixels == {}
