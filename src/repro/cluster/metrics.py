"""Throughput accounting for the cluster.

:class:`UtilizationTracker` moved under the observability layer
(:mod:`repro.obs.registry`) where the rest of the time-weighted
instruments live; it is re-exported here for compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.registry import UtilizationTracker

__all__ = ["UtilizationTracker", "ThroughputWindow"]


@dataclass
class ThroughputWindow:
    """Accumulates output megapixels and exposes Mpix/s over the run."""

    start_time: float = 0.0
    total_megapixels: float = 0.0
    completions: int = 0

    def record(self, megapixels: float) -> None:
        self.total_megapixels += megapixels
        self.completions += 1

    def mpix_per_second(self, now: float) -> float:
        span = now - self.start_time
        return self.total_megapixels / span if span > 0 else 0.0
