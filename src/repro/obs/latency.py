"""Latency scorecard instruments for the streaming ladder pipeline.

Throughput metrics (``repro.obs.registry`` counters, utilization
trackers) say how much work the fleet did; this module measures the
axis that dominates *live* serving (Section 2.2): how long until the
first playable segment, how long each rung waited for a slot, and how
long finished segments stalled behind the alignment barrier.

:class:`LadderMetrics` is plain bookkeeping over the fixed-bucket
:class:`~repro.obs.registry.Histogram` -- deterministic, mergeable, and
numpy-free like the rest of ``repro.obs``.  The cluster records
per-rung queue waits into it as segment steps start; the stream
sessions record releases, manifests, and time-to-first-segment.  It
holds no scorecard of its own: the live-ladder scenario's
``build_scorecard`` reads its counters and histograms directly, and the
cluster's ``ClusterStats`` counts opportunistic fallbacks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.obs.registry import Histogram

if TYPE_CHECKING:  # avoid importing numpy-backed transcode modules here
    from repro.transcode.segments import ManifestEntry

#: Time-to-first-segment bounds: a live segment is playable within a few
#: capture periods, so sub-minute resolution matters most.
TTFS_BOUNDS: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0,
    64.0, 128.0, 256.0,
)

#: Manifest-stall bounds: head-of-line blocking behind earlier segments
#: is usually a fraction of a segment duration when the fleet is healthy.
STALL_BOUNDS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
)

#: Per-rung queue-wait bounds (time from runnable to started).
QUEUE_WAIT_BOUNDS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
)


class LadderMetrics:
    """Mutable latency scorecard for one streaming-ladder run."""

    def __init__(self) -> None:
        self.ttfs = Histogram("ladder.ttfs_seconds", TTFS_BOUNDS)
        self.manifest_stall = Histogram(
            "ladder.manifest_stall_seconds", STALL_BOUNDS
        )
        self.queue_wait: Dict[str, Histogram] = {}
        self.streams_started = 0
        self.streams_completed = 0
        self.segments_released = 0
        self.manifests_emitted = 0
        self.deadlines_tracked = 0
        self.deadlines_missed = 0

    def note_stream_started(self) -> None:
        self.streams_started += 1

    def note_stream_completed(self) -> None:
        self.streams_completed += 1

    def note_release(self) -> None:
        self.segments_released += 1

    def note_ttfs(self, seconds: float) -> None:
        self.ttfs.observe(seconds)

    def note_manifest(
        self, entry: "ManifestEntry", deadline_tracked: bool
    ) -> None:
        self.manifests_emitted += 1
        self.manifest_stall.observe(entry.stall_seconds)
        if deadline_tracked:
            self.deadlines_tracked += 1
            if entry.deadline_missed:
                self.deadlines_missed += 1

    def observe_queue_wait(self, rung: str, wait_seconds: float) -> None:
        histogram = self.queue_wait.get(rung)
        if histogram is None:
            histogram = Histogram(
                f"ladder.queue_wait.{rung}", QUEUE_WAIT_BOUNDS
            )
            self.queue_wait[rung] = histogram
        histogram.observe(wait_seconds)
