"""Fleet telemetry: exact utilization at every admit and release.

The cluster records the live fleet's mean encoder and decoder
utilization twice per VCU step, at admit and at release (the series
behind the paper's Figure 9c).  :class:`FleetTelemetry` holds the
per-worker utilization table those means are taken over, in the fleet
rows of the cluster's availability mask, and records every mean as
``float(np.add.reduce(rows[mask])) / n`` bit for bit -- the value a
walk over every live worker computes -- without re-reducing every live
row each time.  The two series are the ``cluster.encoder_util`` and
``cluster.decoder_util`` time gauges of its own
:class:`~repro.obs.registry.MetricsRegistry`, which the cluster attaches
to an installed observability hub: the hub reads them, it does not keep
a copy.

:class:`LiveSums` makes that cheap.  For a contiguous 1-D float64 array
``np.add.reduce`` is numpy's pairwise sum: a span of at most 128 values
is summed whole (with eight accumulators), and a longer span splits at
half its length rounded down to a multiple of 8, its sum being the
float sum of the two halves' sums.  ``LiveSums`` keeps that recursion's
partial sums over the live rows down to spans of at most
:data:`LEAF_ROWS`; ``np.add.reduce`` over a leaf's span is the leaf's
sum, because numpy runs the same recursion inside it.  A row update
re-reduces one leaf and re-adds the ~log2(n/1024) sums above it.  An
availability change shifts every later live row, so it only marks the
sums stale; the next read rebuilds them.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.worker import VcuWorker
    from repro.sim.engine import Simulator

#: The longest span :class:`LiveSums` reduces with one ``np.add.reduce``
#: call (numpy splits it further inside).  Against leaves of numpy's own
#: 128-value blocks, an update costs about the same, because the call's
#: overhead dominates, and a rebuild makes an eighth as many calls.
LEAF_ROWS = 1024

_add_reduce = np.add.reduce


def _split(
    lo: int,
    rows: int,
    parent: int,
    parents: List[int],
    children: List[Tuple[int, int]],
    leaves: List[Tuple[int, int, int]],
) -> int:
    """Number the span ``[lo, lo + rows)`` and its halves, parents first.

    Appends the span's node to ``parents`` and ``children`` (and, for a
    span of at most :data:`LEAF_ROWS`, to ``leaves``), recurses into the
    halves numpy's pairwise sum splits it into, and returns the node.
    """
    node = len(parents)
    parents.append(parent)
    children.append((-1, -1))
    if rows <= LEAF_ROWS:
        leaves.append((lo, lo + rows, node))
    else:
        half = rows // 2 - rows // 2 % 8
        children[node] = (
            _split(lo, half, node, parents, children, leaves),
            _split(lo + half, rows - half, node, parents, children, leaves),
        )
    return node


class LiveSums:
    """Sums of the masked rows of two float64 columns, as numpy adds them.

    :meth:`sums` equals ``(float(np.add.reduce(first[mask])),
    float(np.add.reduce(second[mask])))`` exactly.  Write rows only
    through :meth:`set`, and call :meth:`mark_stale` after any change to
    ``mask``, which the owner shares and mutates in place.
    """

    def __init__(self, first: np.ndarray, second: np.ndarray, mask: np.ndarray):
        self.columns = (first, second)
        self.mask = mask
        #: Live rows, as of the last rebuild.
        self.count = 0
        self.stale = True

    def mark_stale(self) -> None:
        self.stale = True

    def set(self, row: int, first: float, second: float) -> None:
        """Write one row of both columns and re-add the sums above it."""
        columns = self.columns
        columns[0][row] = first
        columns[1][row] = second
        if self.stale:
            return
        at = self._live_at.item(row)
        if at < 0:
            return  # not a live row: no sum holds it
        live_first, live_second = self._live
        live_first[at] = first
        live_second[at] = second
        lo, hi, node = self._leaves[bisect_right(self._starts, at) - 1]
        sums_first, sums_second = self._sums
        sums_first[node] = float(_add_reduce(live_first[lo:hi]))
        sums_second[node] = float(_add_reduce(live_second[lo:hi]))
        parents, children = self._parents, self._children
        node = parents[node]
        while node >= 0:
            left, right = children[node]
            sums_first[node] = sums_first[left] + sums_first[right]
            sums_second[node] = sums_second[left] + sums_second[right]
            node = parents[node]

    def sums(self) -> Tuple[float, float]:
        """Both columns' live sums, rebuilt first if the mask changed."""
        if self.stale:
            self._rebuild()
        return self._sums[0][0], self._sums[1][0]

    def _rebuild(self) -> None:
        mask = self.mask
        live = (self.columns[0][mask], self.columns[1][mask])
        at = np.cumsum(mask) - 1  # each row's position among the live rows
        at[~mask] = -1
        # numpy's recursion over the live rows.  Nodes are numbered
        # parents first; a leaf has no children and one live-row span.
        parents: List[int] = []
        children: List[Tuple[int, int]] = []
        leaves: List[Tuple[int, int, int]] = []
        _split(0, len(live[0]), -1, parents, children, leaves)
        sums = ([0.0] * len(parents), [0.0] * len(parents))
        for lo, hi, node in leaves:
            for column, column_sums in zip(live, sums):
                column_sums[node] = float(_add_reduce(column[lo:hi]))
        for node in reversed(range(len(parents))):  # children first
            left, right = children[node]
            if left >= 0:
                for column_sums in sums:
                    column_sums[node] = column_sums[left] + column_sums[right]
        self._live = live
        self._live_at = at
        self._parents = parents
        self._children = children
        self._leaves = leaves
        self._starts = [lo for lo, _, _ in leaves]
        self._sums = sums
        self.count = len(live[0])
        self.stale = False


class FleetTelemetry:
    """The cluster's utilization table and its exact fleet-mean record.

    The cluster calls :meth:`note_admit` and :meth:`note_release` after
    each VCU step admission and release, :meth:`note_graph_latency` once
    per completed graph, and ``live.mark_stale()`` when a worker's
    availability flips.  Every record lands in :attr:`encoder_util` and
    :attr:`decoder_util`, the time gauges of :attr:`metrics`.
    """

    def __init__(
        self,
        sim: "Simulator",
        workers: Sequence["VcuWorker"],
        available: np.ndarray,
        row_of: Dict[str, int],
    ):
        self.sim = sim
        self._row_of = row_of
        self.metrics = MetricsRegistry()
        self.encoder_util = self.metrics.time_gauge("cluster.encoder_util", sim.now)
        self.decoder_util = self.metrics.time_gauge("cluster.decoder_util", sim.now)
        # Only an admit or a release changes a worker's usage, and each
        # re-reads just that worker, so a record reads this table, not
        # the workers.
        self.encoder_rows = np.fromiter(
            (w.vcu.encoder_utilization() for w in workers),
            dtype=np.float64,
            count=len(workers),
        )
        self.decoder_rows = np.fromiter(
            (w.vcu.decoder_utilization() for w in workers),
            dtype=np.float64,
            count=len(workers),
        )
        self.live = LiveSums(self.encoder_rows, self.decoder_rows, available)

    def note_admit(self, worker: "VcuWorker") -> None:
        """Re-read ``worker``'s row after its usage changed; record."""
        vcu = worker.vcu
        self.live.set(
            self._row_of[worker.name],
            vcu.encoder_utilization(),
            vcu.decoder_utilization(),
        )
        self.flush()

    #: A release changes one worker's row exactly as an admit does.
    note_release = note_admit

    def note_graph_latency(self, latency: float) -> None:
        """Observe one completed graph's latency."""
        hub = obs.active()
        if hub is not None:
            hub.observe("cluster.graph_latency_seconds", latency)

    def flush(self) -> None:
        """Record the live fleet's mean encoder and decoder utilization."""
        encoder_sum, decoder_sum = self.live.sums()
        n = self.live.count
        if not n:
            return
        now = self.sim.now
        self.encoder_util.record(now, encoder_sum / n)
        self.decoder_util.record(now, decoder_sum / n)
