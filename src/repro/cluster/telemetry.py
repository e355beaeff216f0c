"""Sampled fleet telemetry: record utilization at sample boundaries.

The exact telemetry path (``TranscodeCluster._record_utilization``)
records the live fleet's mean utilization *twice per step* -- at admit
and at release.  Each record reads no worker, only the cluster's
per-worker utilization table, but its mean still spans every live row,
so at 50k VCUs the exact path does O(fleet) work per step.
``FleetTelemetry`` records less often instead, when the cluster is
constructed with ``telemetry_mode="sampled"``: the mode chooses *when*
utilization is recorded, never *how*:

* a sampler process wakes every ``sample_seconds`` of virtual time and
  records the fleet means from the same table, into the same sinks the
  exact path uses -- the cluster's
  :class:`~repro.obs.registry.UtilizationTracker` pair and the
  ``cluster.encoder_util``/``cluster.decoder_util`` time gauges of the
  installed :class:`~repro.obs.registry.MetricsRegistry`;
* per-graph latency observations are buffered and delivered in bulk
  (``Histogram.observe_many``) at the same sample boundaries.  Histogram
  state has no time axis, so the final snapshot is identical to the
  per-event path's.

The trade is explicit: utilization becomes a step function sampled at
boundaries instead of an exact event-aligned series, which is why the
cluster keeps ``telemetry_mode="exact"`` as the default and the golden
traces run against it.  The sampler keeps itself alive only while work
is in flight, so a drained simulation still terminates.
"""

from __future__ import annotations

from typing import Generator, List, TYPE_CHECKING

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import TranscodeCluster

#: Default virtual-time distance between telemetry flushes.
DEFAULT_SAMPLE_SECONDS = 5.0


class FleetTelemetry:
    """A boundary-flush sampler over the cluster's utilization table."""

    def __init__(
        self,
        cluster: "TranscodeCluster",
        sample_seconds: float = DEFAULT_SAMPLE_SECONDS,
    ):
        if sample_seconds <= 0:
            raise ValueError("sample_seconds must be positive")
        self.cluster = cluster
        self.sample_seconds = sample_seconds
        self._latency_buffer: List[float] = []
        self._inflight = 0
        self.flushes = 0
        self._running = False

    # -------------------------------------------------------------- #
    # O(1) hot-path updates (called by the cluster at admit/release)

    def note_admit(self) -> None:
        self._inflight += 1
        if not self._running:
            self._running = True
            self.cluster.sim.process(self._sample_loop(), name="fleet-telemetry")

    def note_release(self) -> None:
        self._inflight -= 1

    def note_graph_latency(self, latency: float) -> None:
        self._latency_buffer.append(latency)

    # -------------------------------------------------------------- #
    # Sample-boundary flush

    def _sample_loop(self) -> Generator:
        while True:
            yield self.sample_seconds
            self.flush()
            if self._inflight == 0:
                # Nothing running: stop so a drained simulation can end.
                # The next admit restarts the loop.
                self._running = False
                return

    def flush(self) -> None:
        """Record utilization and deliver buffered latencies, as the
        exact path would have."""
        self.cluster._record_utilization()
        hub = obs.active()
        if hub is not None and self._latency_buffer:
            hub.metrics.histogram("cluster.graph_latency_seconds").observe_many(
                self._latency_buffer
            )
        self._latency_buffer.clear()
        self.flushes += 1
