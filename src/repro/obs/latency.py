"""Latency bucket bounds for the streaming ladder pipeline.

Throughput metrics (``repro.obs.registry`` counters, utilization
trackers) say how much work the fleet did; these bounds shape the axis
that dominates *live* serving (Section 2.2): how long until the first
playable segment, how long each rung waited for a slot, and how long
finished segments stalled behind the alignment barrier.

The ladder dispatcher's ``ladder.*`` registry records its histograms
with them: the stream sessions observe time-to-first-segment and
manifest stalls, and the cluster observes per-rung queue waits as
segment steps start.  The live-ladder scenario's ``build_scorecard``
reads its quantiles from those same histograms.
"""

from __future__ import annotations

from typing import Tuple

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

