"""``repro.obs``: the fleet observability layer.

The paper's fleet is operable only because every VCU, worker, and
scheduler decision is continuously measured (Section 4, Figures 8-10 are
longitudinal telemetry).  This package is the reproduction's equivalent:
one :class:`Observability` hub bundling a
:class:`~repro.obs.registry.MetricsRegistry` (counters, gauges,
fixed-bucket histograms, time-weighted gauges) with a bounded
:class:`~repro.obs.trace.TraceLog` of step-level
:class:`~repro.obs.trace.TraceSpan` events stamped with virtual time.

The hub is **process-wide but explicitly instantiated**: nothing is
recorded until a caller installs a hub, and every instrumentation hook in
the simulator, cluster, scheduler, workers, failure managers, and
firmware reduces to one module-global load plus a ``None`` check when no
hub is installed -- codec/benchmark hot paths pay (almost) nothing for
the plumbing.

Each fact is recorded once.  A component that keeps its own count --
the cluster's ``ClusterStats`` and utilization series, the ladder
dispatcher's ``ladder.*`` registry, the control plane's ledger and
histograms, the failure sweeper's tallies -- attaches that record to the
hub's registry when it is built under a hub
(:meth:`~repro.obs.registry.MetricsRegistry.attach`), and the hub's
snapshot reads it there.  The hub's own instruments hold only what no
component keeps: placements (``sched.*``), health transitions, device
flips, firmware dispatches, fault-domain correlation, admissions and
recoveries, and the step-seconds, backoff and graph-latency histograms.

Usage::

    from repro import obs

    with obs.installed() as hub:
        ...  # build a Simulator/TranscodeCluster and run it
        hub.trace.write_jsonl("run_trace.jsonl")
        snapshot = hub.metrics.snapshot(now=sim.now)

Emitters inside the tree follow the cheap-hook pattern::

    hub = obs.active()
    if hub is not None:
        hub.emit("retry", step.step_id, t0=self.sim.now, attrs={...})

This module (and everything it imports) is numpy-free so the CLI's
``report`` subcommand loads without the numeric stack.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional, Sequence

from repro.obs.registry import (
    Counter,
    DEFAULT_SECONDS_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeWeightedGauge,
    UtilizationTracker,
)
from repro.obs.trace import TraceLog, TraceSpan

__all__ = [
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "TimeWeightedGauge",
    "UtilizationTracker",
    "TraceLog",
    "TraceSpan",
    "DEFAULT_SECONDS_BUCKETS",
    "install",
    "uninstall",
    "active",
    "installed",
]


class Observability:
    """One run's worth of metrics and trace, with a virtual clock binding.

    The hub does not know about the simulator; whoever owns the run binds
    a clock (and optionally a context provider naming the active sim
    process) via :meth:`bind_clock`.  :class:`~repro.cluster.cluster.
    TranscodeCluster` does this automatically at construction, so spans
    emitted from components that have no simulator handle (workers,
    schedulers, devices) still carry correct virtual timestamps.
    """

    def __init__(self, max_trace_events: int = 200_000) -> None:
        self.metrics = MetricsRegistry()
        self.trace = TraceLog(max_events=max_trace_events)
        self._clock: Optional[Callable[[], float]] = None
        self._context: Optional[Callable[[], Optional[str]]] = None

    # ------------------------------------------------------------------ #
    # Clock binding

    def bind_clock(
        self,
        clock: Callable[[], float],
        context: Optional[Callable[[], Optional[str]]] = None,
    ) -> None:
        """Bind the virtual clock (and optional span-context provider)."""
        self._clock = clock
        self._context = context

    def now(self) -> float:
        """Current virtual time, 0.0 before any clock is bound."""
        return self._clock() if self._clock is not None else 0.0

    # ------------------------------------------------------------------ #
    # Emission

    def emit(
        self,
        kind: str,
        name: str,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Optional[TraceSpan]:
        """Append one span; timestamps default to the bound clock.

        When a context provider is bound and reports an active simulator
        process, its name lands in the span's ``proc`` attribute -- the
        span context that ties events back to the process that caused
        them (``vcu:v1/chunk3`` and friends).
        """
        if t0 is None:
            t0 = self.now()
        if self._context is not None:
            proc = self._context()
            if proc is not None:
                attrs = dict(attrs) if attrs else {}
                attrs.setdefault("proc", proc)
        return self.trace.append(kind, name, t0, t1, attrs)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.metrics.counter(name).inc(amount)

    def observe(
        self,
        name: str,
        value: float,
        bounds: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> None:
        self.metrics.histogram(name, bounds).observe(value)


_installed: Optional[Observability] = None


def active() -> Optional[Observability]:
    """The installed hub, or ``None`` -- THE hot-path guard.

    Call sites keep the result in a local and skip all work when it is
    ``None``; with no hub installed an instrumentation hook costs one
    function call, one global load, and one comparison.
    """
    return _installed


def install(hub: Optional[Observability] = None) -> Observability:
    """Install ``hub`` (or a fresh one) as the process-wide hub."""
    global _installed
    if _installed is not None:
        raise RuntimeError("an observability hub is already installed")
    _installed = hub if hub is not None else Observability()
    return _installed


def uninstall() -> Optional[Observability]:
    """Remove and return the installed hub (``None`` when absent)."""
    global _installed
    hub, _installed = _installed, None
    return hub


@contextmanager
def installed(hub: Optional[Observability] = None) -> Iterator[Observability]:
    """Context-managed :func:`install`/:func:`uninstall` pair."""
    active_hub = install(hub)
    try:
        yield active_hub
    finally:
        uninstall()
