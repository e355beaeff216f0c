"""Segment-level streaming ladders: release, encode, align, manifest.

Live and upload serving is *segmented*: the source arrives as short
closed-GOP segments, every ladder rung of a segment is encoded as its
own task with a rung-sized hardware footprint, and an HLS-style manifest
advances only when **all** rungs of a segment are done (the alignment
barrier) and every earlier segment has already been published (manifests
are strictly in segment order).  This module holds the three pieces of
that dataflow that are independent of any particular cluster:

* :class:`StreamSpec` -- the immutable description of one stream;
* :class:`SegmentWatcher` -- a sim process releasing source segments
  over virtual time (live streams drip one segment per segment duration,
  uploads arrive whole);
* :class:`ManifestAssembler` -- the pure barrier algebra.  It is
  driven entirely by ``release``/``complete_rung`` calls with explicit
  timestamps, so property tests can exercise it without a simulator.

The assembler is also the loss/duplication oracle: releasing a segment
twice, completing a rung twice (a double encode), or completing a rung
of an unknown segment raises :class:`BarrierViolation`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.sim.engine import Process, Simulator
from repro.sim.hooks import WeakHook
from repro.transcode.modes import WorkloadClass, mode_for
from repro.transcode.pipeline import Step, StepGraph, ladder_steps
from repro.video.frame import Resolution, output_ladder, resolution
from repro.video.gop import Chunk

#: Rungs at or below this output size (360p) may fall back to software
#: opportunistically when every hardware slot is busy (Section 2.2: the
#: low rungs are cheap enough that CPU encoding meets live deadlines).
OPPORTUNISTIC_MAX_PIXELS: int = resolution("360p").pixels

#: Codecs both the VCU spec tables and the CPU model can encode.
SUPPORTED_STREAM_CODECS: Tuple[str, ...] = ("h264", "vp9")


class StreamKind(enum.Enum):
    LIVE = "live"  # segments drip in real time as they are captured
    UPLOAD = "upload"  # the whole file is present at arrival


@dataclass(frozen=True)
class StreamSpec:
    """Immutable description of one segmented stream."""

    stream_id: str
    kind: StreamKind
    source: Resolution
    #: Number of source segments in the stream.
    segment_count: int
    segment_seconds: float = 2.0
    fps: float = 30.0
    codecs: Tuple[str, ...] = ("h264",)
    #: Per-segment SLO: the manifest entry is due this many seconds
    #: after the segment is released (None = no deadline tracking).
    deadline_seconds: Optional[float] = None
    #: Output-pixel ceiling for opportunistic software fallback.
    opportunistic_max_pixels: int = OPPORTUNISTIC_MAX_PIXELS

    def __post_init__(self) -> None:
        if self.segment_count <= 0:
            raise ValueError("stream must contain at least one segment")
        if self.segment_seconds <= 0:
            raise ValueError("segment_seconds must be positive")
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if not self.codecs:
            raise ValueError("stream needs at least one output codec")
        for codec in self.codecs:
            if codec not in SUPPORTED_STREAM_CODECS:
                raise ValueError(f"unknown codec {codec!r}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")

    @property
    def segment_frames(self) -> int:
        return max(1, int(round(self.segment_seconds * self.fps)))

    def rungs(self) -> List[Resolution]:
        """Output ladder for the stream's source (descending, <= source)."""
        return output_ladder(self.source)

    def rung_keys(self) -> Tuple[str, ...]:
        """The (codec, rung) barrier keys every segment must complete."""
        return tuple(
            f"{codec}/{rung.name}" for codec in self.codecs for rung in self.rungs()
        )

    @property
    def workload(self) -> WorkloadClass:
        return (
            WorkloadClass.LIVE
            if self.kind is StreamKind.LIVE
            else WorkloadClass.UPLOAD
        )


@dataclass(frozen=True)
class SegmentRelease:
    """One source segment becoming available for encoding."""

    stream_id: str
    index: int
    released_at: float
    #: Absolute virtual-time manifest deadline (None = untracked).
    deadline: Optional[float] = None


def build_segment_graph(
    spec: StreamSpec, release: SegmentRelease
) -> StepGraph:
    """Per-(segment, codec, rung) SOT step graph for one released segment.

    Routes through the same :func:`~repro.transcode.pipeline.ladder_steps`
    builder as the whole-chunk path, so segment tasks carry the exact
    per-rung VCU footprints the bin-packing scheduler sees elsewhere.
    """
    chunk = Chunk(
        video_id=spec.stream_id,
        index=release.index,
        frame_count=spec.segment_frames,
        fps=spec.fps,
        nominal=spec.source,
    )
    by_codec = {codec: spec.rungs() for codec in spec.codecs}
    steps = ladder_steps(
        chunk,
        by_codec,
        mode_for(spec.workload).mode,
        use_mot=False,
        opportunistic_max_pixels=spec.opportunistic_max_pixels,
        deadline=release.deadline,
    )
    return StepGraph(
        video_id=f"{spec.stream_id}#{release.index}",
        steps=steps,
        workload=spec.workload,
        submitted_at=release.released_at,
    )


def segment_index_of(step: Step) -> int:
    """Recover the segment index from a segment step's id.

    Segment step ids follow the chunk convention
    ``{stream_id}/{index}/{codec}/sot-{rung}``.
    """
    return int(step.step_id.rsplit("/", 3)[1])


def rung_key_of(step: Step) -> str:
    """The barrier key ``{codec}/{rung}`` a transcode step completes."""
    if step.vcu_task is None or step.rung is None:
        raise ValueError(f"step {step.step_id} is not a per-rung transcode")
    return f"{step.vcu_task.codec}/{step.rung}"


class SegmentWatcher:
    """Releases a stream's source segments over virtual time.

    A LIVE stream's segment ``i`` becomes available once it has been
    captured, ``(i + 1) * segment_seconds`` after the stream starts.  An
    UPLOAD's file is already complete, so every segment is released the
    moment the watcher starts.
    """

    on_release = WeakHook(
        """Called with each :class:`SegmentRelease`.  The stream session
        that owns this watcher passes one of its bound methods, held
        weakly (see :class:`~repro.sim.hooks.WeakHook`), so the watcher
        does not keep its session alive."""
    )

    def __init__(
        self,
        sim: Simulator,
        spec: StreamSpec,
        on_release: Callable[[SegmentRelease], None],
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.on_release = on_release
        self.released: List[SegmentRelease] = []
        self.started_at: Optional[float] = None

    def start(self) -> Process:
        if self.started_at is not None:
            raise RuntimeError(f"watcher for {self.spec.stream_id} already started")
        self.started_at = self.sim.now
        return self.sim.process(self._run(), name=f"watch:{self.spec.stream_id}")

    def _run(self):  # pragma: no cover - exercised via Simulator
        spec = self.spec
        if spec.kind is StreamKind.UPLOAD:
            for index in range(spec.segment_count):
                self._release(index)
            return
        for index in range(spec.segment_count):
            yield spec.segment_seconds
            self._release(index)

    def _release(self, index: int) -> None:
        now = self.sim.now
        deadline = (
            None
            if self.spec.deadline_seconds is None
            else now + self.spec.deadline_seconds
        )
        release = SegmentRelease(
            stream_id=self.spec.stream_id,
            index=index,
            released_at=now,
            deadline=deadline,
        )
        self.released.append(release)
        on_release = self.on_release
        if on_release is not None:
            on_release(release)


class BarrierViolation(RuntimeError):
    """A segment was lost, double-released, or double-encoded."""


class SegmentState(enum.Enum):
    ENCODING = "encoding"  # released; at least one rung outstanding
    ALIGNED = "aligned"  # all rungs done; waiting for in-order emit
    EMITTED = "emitted"  # manifest entry published


@dataclass(frozen=True)
class ManifestEntry:
    """One published manifest line: a fully aligned segment."""

    index: int
    released_at: float
    #: When the last rung completed (the alignment barrier fired).
    aligned_at: float
    #: When the entry was published (>= aligned_at: in-order emission).
    emitted_at: float
    #: Head-of-line blocking behind earlier segments' barriers.
    stall_seconds: float
    deadline_missed: bool


@dataclass
class _SegmentProgress:
    released_at: float
    deadline: Optional[float]
    outstanding: Set[str]
    aligned_at: Optional[float] = None
    completions: Dict[str, float] = field(default_factory=dict)


class ManifestAssembler:
    """The alignment-barrier algebra behind HLS-style manifest assembly.

    Pure bookkeeping: callers supply timestamps, and the assembler
    guarantees (a) a barrier fires only when every rung key of a segment
    has completed exactly once, and (b) entries are emitted strictly in
    segment order -- segment ``i`` is published only after segments
    ``0..i-1``, even if it aligned first (the stall is recorded).
    """

    def __init__(
        self,
        stream_id: str,
        rung_keys: Tuple[str, ...],
        started_at: float = 0.0,
    ) -> None:
        if not rung_keys:
            raise ValueError("a manifest needs at least one rung key")
        if len(set(rung_keys)) != len(rung_keys):
            raise ValueError("rung keys must be unique")
        self.stream_id = stream_id
        self.rung_keys = tuple(rung_keys)
        self.started_at = started_at
        self.entries: List[ManifestEntry] = []
        self.time_to_first_segment: Optional[float] = None
        self._segments: Dict[int, _SegmentProgress] = {}
        self._emitted: Set[int] = set()
        self._next_emit = 0

    def state_of(self, index: int) -> Optional[SegmentState]:
        """Current state of a segment (None = never released)."""
        if index in self._emitted:
            return SegmentState.EMITTED
        progress = self._segments.get(index)
        if progress is None:
            return None
        return (
            SegmentState.ALIGNED
            if not progress.outstanding
            else SegmentState.ENCODING
        )

    def pending_indices(self) -> List[int]:
        """Released-but-unpublished segments (loss oracle for soaks)."""
        return sorted(self._segments)

    def release(
        self, index: int, at: float, deadline: Optional[float] = None
    ) -> None:
        if index < 0:
            raise ValueError("segment index must be non-negative")
        if index in self._segments or index in self._emitted:
            raise BarrierViolation(
                f"{self.stream_id}: segment {index} released twice"
            )
        self._segments[index] = _SegmentProgress(
            released_at=at,
            deadline=deadline,
            outstanding=set(self.rung_keys),
        )

    def complete_rung(
        self, index: int, rung_key: str, at: float
    ) -> List[ManifestEntry]:
        """Record one rung finishing; returns any entries it unblocked.

        The returned list is empty unless this completion fired the
        segment's barrier *and* the segment (plus possibly later,
        already-aligned segments) was next in emission order.
        """
        progress = self._segments.get(index)
        if progress is None:
            what = "emitted" if index in self._emitted else "unreleased"
            raise BarrierViolation(
                f"{self.stream_id}: rung {rung_key} completed for "
                f"{what} segment {index}"
            )
        if rung_key not in self.rung_keys:
            raise BarrierViolation(
                f"{self.stream_id}: unknown rung key {rung_key!r}"
            )
        if rung_key not in progress.outstanding:
            raise BarrierViolation(
                f"{self.stream_id}: segment {index} rung {rung_key} "
                "completed twice (double encode)"
            )
        progress.outstanding.discard(rung_key)
        progress.completions[rung_key] = at
        if progress.outstanding:
            return []
        progress.aligned_at = at
        return self._emit_ready(at)

    def _emit_ready(self, at: float) -> List[ManifestEntry]:
        emitted: List[ManifestEntry] = []
        while True:
            progress = self._segments.get(self._next_emit)
            if progress is None or progress.aligned_at is None:
                break
            index = self._next_emit
            entry = ManifestEntry(
                index=index,
                released_at=progress.released_at,
                aligned_at=progress.aligned_at,
                emitted_at=at,
                stall_seconds=at - progress.aligned_at,
                deadline_missed=(
                    progress.deadline is not None and at > progress.deadline
                ),
            )
            if self.time_to_first_segment is None:
                self.time_to_first_segment = at - self.started_at
            del self._segments[index]
            self._emitted.add(index)
            self.entries.append(entry)
            emitted.append(entry)
            self._next_emit += 1
        return emitted
