"""Vectorized fleet telemetry: aggregate arrays, sampled flushes.

The exact telemetry path (``TranscodeCluster._record_utilization``)
recomputes a Python mean over every live worker *twice per step* -- at
admit and at release.  At 50k VCUs that is the cluster hot path, not the
instrumentation.  ``FleetTelemetry`` replaces it when the cluster is
constructed with ``telemetry_mode="sampled"``:

* per-worker encoder/decoder *used* milli-units live in preallocated
  numpy arrays, updated O(1) per admit/release from the request vector
  the cluster already has in hand;
* a sampler process wakes every ``sample_seconds`` of virtual time,
  computes the fleet means with a handful of vectorized ops, and flushes
  them into the same sinks the exact path uses -- the cluster's
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

from typing import Dict, Generator, List, TYPE_CHECKING

import numpy as np

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import TranscodeCluster

#: Default virtual-time distance between telemetry flushes.
DEFAULT_SAMPLE_SECONDS = 5.0


class FleetTelemetry:
    """Aggregate per-worker usage arrays + a boundary-flush sampler."""

    def __init__(
        self,
        cluster: "TranscodeCluster",
        sample_seconds: float = DEFAULT_SAMPLE_SECONDS,
    ):
        if sample_seconds <= 0:
            raise ValueError("sample_seconds must be positive")
        self.cluster = cluster
        self.sample_seconds = sample_seconds
        workers = cluster.vcu_workers
        # The cluster's name -> fleet row map, so rows line up with its
        # availability mask.
        self._index = cluster._worker_index
        n = len(workers)
        self._enc_cap = np.empty(n, dtype=np.float64)
        self._dec_cap = np.empty(n, dtype=np.float64)
        self._enc_used = np.empty(n, dtype=np.float64)
        self._dec_used = np.empty(n, dtype=np.float64)
        for i, worker in enumerate(workers):
            capacity = worker.vcu.resources.capacity
            available = worker.vcu.resources.available
            self._enc_cap[i] = capacity.get("milliencode", np.inf)
            self._dec_cap[i] = capacity.get("millidecode", np.inf)
            self._enc_used[i] = self._enc_cap[i] - available.get(
                "milliencode", self._enc_cap[i]
            )
            self._dec_used[i] = self._dec_cap[i] - available.get(
                "millidecode", self._dec_cap[i]
            )
        self._latency_buffer: List[float] = []
        self._inflight = 0
        self.flushes = 0
        self._running = False

    # -------------------------------------------------------------- #
    # O(1) hot-path updates (called by the cluster at admit/release)

    def note_admit(self, worker_name: str, request: Dict[str, float]) -> None:
        index = self._index[worker_name]
        self._enc_used[index] += request.get("milliencode", 0.0)
        self._dec_used[index] += request.get("millidecode", 0.0)
        self._inflight += 1
        if not self._running:
            self._running = True
            self.cluster.sim.process(self._sample_loop(), name="fleet-telemetry")

    def note_release(self, worker_name: str, request: Dict[str, float]) -> None:
        index = self._index[worker_name]
        self._enc_used[index] -= request.get("milliencode", 0.0)
        self._dec_used[index] -= request.get("millidecode", 0.0)
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
        """Push the aggregate view into the exact path's sinks."""
        cluster = self.cluster
        now = cluster.sim.now
        mask = cluster.availability_mask()
        live = int(mask.sum())
        if live:
            encoder = float(np.mean(self._enc_used[mask] / self._enc_cap[mask]))
            decoder = float(np.mean(self._dec_used[mask] / self._dec_cap[mask]))
            cluster.encoder_util.record(now, encoder)
            cluster.decoder_util.record(now, decoder)
        hub = obs.active()
        if hub is not None:
            if live:
                hub.metrics.time_gauge("cluster.encoder_util").set(now, encoder)
                hub.metrics.time_gauge("cluster.decoder_util").set(now, decoder)
            if self._latency_buffer:
                hub.metrics.histogram("cluster.graph_latency_seconds").observe_many(
                    self._latency_buffer
                )
        self._latency_buffer.clear()
        self.flushes += 1
