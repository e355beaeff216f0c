"""Stream sessions: wiring segment dataflow onto a transcode cluster.

:class:`LadderDispatcher` owns the cluster's step-completion hook and
routes each finished per-rung step back to the :class:`StreamSession`
that submitted it.  A session is the per-stream conductor: its
:class:`~repro.transcode.segments.SegmentWatcher` releases source
segments over virtual time, each release becomes a per-(codec, rung)
step graph on the cluster, and completions feed the
:class:`~repro.transcode.segments.ManifestAssembler` barrier until the
final manifest entry is published.

Latency accounting flows into the dispatcher's own ``ladder.*``
:class:`~repro.obs.registry.MetricsRegistry`: the dispatcher installs it
on the cluster (per-rung queue waits) and the sessions record releases,
time-to-first-segment, manifest stalls, and deadline misses, with the
scorecard's bucket bounds (:mod:`repro.obs.latency`).  When an
observability hub is installed at the dispatcher's construction it
attaches that registry, and the sessions additionally emit ``stream`` /
``segment`` / ``manifest`` spans, so ladder traces line up with the
cluster's ``step`` spans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro import obs
from repro.obs.latency import STALL_BOUNDS, TTFS_BOUNDS
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Simulator
from repro.transcode.pipeline import Step
from repro.transcode.segments import (
    ManifestAssembler,
    SegmentRelease,
    SegmentWatcher,
    StreamSpec,
    build_segment_graph,
    rung_key_of,
    segment_index_of,
)

if TYPE_CHECKING:  # deferred: repro.cluster imports back into transcode
    from repro.cluster.cluster import TranscodeCluster


class StreamSession:
    """One stream's watcher -> encode -> manifest lifecycle.

    The dispatcher owns its sessions, so a session keeps what it uses of
    the dispatcher (the simulator, the ``ladder.*`` registry and the
    cluster) rather than the dispatcher itself, and drops ``on_final``
    once it has called it: no reference cycle outlives a finished
    stream.
    """

    def __init__(
        self,
        dispatcher: "LadderDispatcher",
        spec: StreamSpec,
        on_final: Optional[Callable[["StreamSession"], None]] = None,
    ) -> None:
        self.sim = dispatcher.sim
        self.metrics = dispatcher.metrics
        self.cluster = dispatcher.cluster
        self.spec = spec
        self.on_final = on_final
        self.started_at = self.sim.now
        self.finished_at: Optional[float] = None
        self.assembler = ManifestAssembler(
            spec.stream_id, spec.rung_keys(), started_at=self.started_at
        )
        self.watcher = SegmentWatcher(
            self.sim, spec, self._segment_released
        )
        self._ttfs_recorded = False

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    def start(self) -> None:
        self.metrics.counter("ladder.streams.started").inc()
        hub = obs.active()
        if hub is not None:
            hub.emit(
                "stream", self.spec.stream_id, t0=self.started_at,
                attrs={
                    "kind": self.spec.kind.value,
                    "segments": self.spec.segment_count,
                },
            )
        self.watcher.start()

    # -- segment release ----------------------------------------------

    def _segment_released(self, release: SegmentRelease) -> None:
        self.assembler.release(
            release.index, at=release.released_at, deadline=release.deadline
        )
        self.metrics.counter("ladder.segments.released").inc()
        hub = obs.active()
        if hub is not None:
            hub.emit(
                "segment", f"{self.spec.stream_id}/{release.index}",
                t0=release.released_at,
            )
        self.cluster.submit(build_segment_graph(self.spec, release))

    # -- rung completion ----------------------------------------------

    def _rung_done(self, step: Step) -> None:
        now = self.sim.now
        entries = self.assembler.complete_rung(
            segment_index_of(step), rung_key_of(step), at=now
        )
        if not entries:
            return
        metrics = self.metrics
        tracked = self.spec.deadline_seconds is not None
        hub = obs.active()
        for entry in entries:
            metrics.counter("ladder.manifests.emitted").inc()
            metrics.histogram(
                "ladder.manifest_stall_seconds", STALL_BOUNDS
            ).observe(entry.stall_seconds)
            if tracked:
                metrics.counter("ladder.deadlines.tracked").inc()
                if entry.deadline_missed:
                    metrics.counter("ladder.deadlines.missed").inc()
            if hub is not None:
                hub.emit(
                    "manifest", f"{self.spec.stream_id}/{entry.index}",
                    t0=entry.aligned_at, t1=entry.emitted_at,
                    attrs={
                        "stall": round(entry.stall_seconds, 9),
                        "deadline_missed": entry.deadline_missed,
                    },
                )
        ttfs = self.assembler.time_to_first_segment
        if ttfs is not None and not self._ttfs_recorded:
            self._ttfs_recorded = True
            metrics.histogram("ladder.ttfs_seconds", TTFS_BOUNDS).observe(ttfs)
        if len(self.assembler.entries) == self.spec.segment_count:
            self._finalize(now)

    def _finalize(self, now: float) -> None:
        self.finished_at = now
        self.metrics.counter("ladder.streams.completed").inc()
        hub = obs.active()
        if hub is not None:
            hub.emit(
                "stream", self.spec.stream_id, t0=self.started_at, t1=now,
                attrs={
                    "segments": self.spec.segment_count,
                    "ttfs": round(self.assembler.time_to_first_segment or 0.0, 9),
                },
            )
        on_final, self.on_final = self.on_final, None
        if on_final is not None:
            on_final(self)


class LadderDispatcher:
    """Routes cluster step completions to their stream sessions."""

    def __init__(self, sim: Simulator, cluster: "TranscodeCluster") -> None:
        self.sim = sim
        self.cluster = cluster
        #: The ladder's ``ladder.*`` counters and latency histograms.
        self.metrics = MetricsRegistry()
        self._sessions: Dict[str, StreamSession] = {}
        cluster.ladder_metrics = self.metrics
        cluster.on_step_done = self._step_done
        hub = obs.active()
        if hub is not None:
            hub.metrics.attach(self.metrics)

    def start_stream(
        self,
        spec: StreamSpec,
        on_final: Optional[Callable[[StreamSession], None]] = None,
    ) -> StreamSession:
        if spec.stream_id in self._sessions:
            raise ValueError(f"stream {spec.stream_id!r} already started")
        session = StreamSession(self, spec, on_final)
        self._sessions[spec.stream_id] = session
        session.start()
        return session

    def session(self, stream_id: str) -> StreamSession:
        return self._sessions[stream_id]

    def sessions(self) -> List[StreamSession]:
        """All sessions, in stream-id order (deterministic)."""
        return [self._sessions[k] for k in sorted(self._sessions)]

    def unfinished(self) -> List[StreamSession]:
        return [s for s in self.sessions() if not s.done]

    def _step_done(self, step: Step) -> None:
        if step.rung is None:
            return  # not a per-rung segment step (legacy MOT work)
        session = self._sessions.get(step.video_id)
        if session is None:
            return  # per-rung work submitted outside the streaming path
        session._rung_done(step)
