"""Step graphs: the acyclic task-dependency graph for one video.

Processing starts by deciding output variants, then building a DAG whose
nodes are variable-sized "steps" (Section 2.2): per-chunk transcodes (MOT
or SOT), non-transcoding work (thumbnails, fingerprinting, search
signals), and a final assembly step gated on every transcode.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.transcode.ladder import LadderPolicy, PopularityBucket
from repro.transcode.modes import WorkloadClass, mode_for
from repro.vcu.chip import VcuTask
from repro.vcu.spec import EncodingMode
from repro.video.frame import Resolution
from repro.video.gop import Chunk, chunk_metadata


class StepKind(enum.Enum):
    TRANSCODE = "transcode"
    THUMBNAIL = "thumbnail"
    FINGERPRINT = "fingerprint"
    SEARCH_SIGNALS = "search_signals"
    ASSEMBLE = "assemble"


@dataclass(eq=False)
class Step:
    """One schedulable unit of work (identity semantics: two steps are
    never "equal", they are the same object or different work)."""

    step_id: str
    kind: StepKind
    video_id: str
    #: For TRANSCODE steps: the accelerator task description.
    vcu_task: Optional[VcuTask] = None
    #: For CPU steps: core-seconds of work.
    cpu_core_seconds: float = 0.0
    depends_on: List["Step"] = field(default_factory=list)
    #: Filled by the cluster: which VCU processed it (fault correlation,
    #: Section 4.4 records the VCUs each chunk ran on).
    processed_by: Optional[str] = None
    attempts: int = 0
    corrupt_output: bool = False
    #: Force the legacy software path (pre-VCU era workload share).
    software_only: bool = False
    #: For per-rung (SOT) steps: the output rung's resolution name.
    rung: Optional[str] = None
    #: Low rungs in a streaming ladder may run on CPU immediately when
    #: every hardware slot is busy, instead of queueing for a VCU.
    fallback_opportunistic: bool = False
    #: Filled by the cluster: virtual time the step last became runnable.
    ready_at: float = 0.0
    #: Absolute virtual-time SLO for segment steps (None = throughput work).
    deadline: Optional[float] = None

    def is_transcode(self) -> bool:
        return self.kind is StepKind.TRANSCODE


@dataclass
class StepGraph:
    """The DAG for one video, plus bookkeeping the cluster updates."""

    video_id: str
    steps: List[Step]
    workload: WorkloadClass
    submitted_at: float = 0.0
    completed_at: Optional[float] = None

    def __post_init__(self) -> None:
        # A cluster finishes a graph when its last step completes, so a
        # graph with no steps would never finish.
        if not self.steps:
            raise ValueError(f"graph {self.video_id!r} has no steps")
        self._validate_acyclic()

    def transcode_steps(self) -> List[Step]:
        return [s for s in self.steps if s.is_transcode()]

    def output_megapixels(self) -> float:
        return sum(s.vcu_task.output_pixels for s in self.transcode_steps()) / 1e6

    def _validate_acyclic(self) -> None:
        seen: Dict[int, int] = {}  # id -> 0 visiting, 1 done
        for step in self.steps:
            _visit(step, seen)


def _visit(step: Step, seen: Dict[int, int]) -> None:
    """Depth-first walk of ``step``'s dependencies; raises on a cycle."""
    state = seen.get(id(step))
    if state == 0:
        raise ValueError(f"dependency cycle through step {step.step_id}")
    if state == 1:
        return
    seen[id(step)] = 0
    for dep in step.depends_on:
        _visit(dep, seen)
    seen[id(step)] = 1


def build_transcode_graph(
    video_id: str,
    source: Resolution,
    total_frames: int,
    fps: float,
    workload: WorkloadClass = WorkloadClass.UPLOAD,
    bucket: PopularityBucket = PopularityBucket.WARM,
    policy: LadderPolicy = LadderPolicy(),
    use_mot: bool = True,
    gop_frames: int = 150,
    software_decode: bool = False,
) -> StepGraph:
    """Build the full step graph for one uploaded video.

    With ``use_mot`` each (chunk, codec) pair becomes one MOT step encoding
    the whole ladder; otherwise each (chunk, codec, rung) is its own SOT
    step re-decoding the input (Figure 2).
    """
    chunks = chunk_metadata(video_id, total_frames, fps, source, gop_frames)
    mode = mode_for(workload).mode
    by_codec = codec_ladders(policy.variants(source, bucket))

    steps: List[Step] = []
    transcode_steps: List[Step] = []
    for chunk in chunks:
        transcode_steps.extend(
            ladder_steps(
                chunk,
                by_codec,
                mode,
                use_mot=use_mot,
                software_decode=software_decode,
            )
        )
    steps.extend(transcode_steps)

    for kind, core_seconds in (
        (StepKind.THUMBNAIL, 2.0),
        (StepKind.FINGERPRINT, 6.0),
        (StepKind.SEARCH_SIGNALS, 4.0),
    ):
        steps.append(
            Step(
                step_id=f"{video_id}/{kind.value}",
                kind=kind,
                video_id=video_id,
                cpu_core_seconds=core_seconds * total_frames / 1800.0,
            )
        )

    assemble = Step(
        step_id=f"{video_id}/assemble",
        kind=StepKind.ASSEMBLE,
        video_id=video_id,
        cpu_core_seconds=0.5,
        depends_on=list(transcode_steps),
    )
    steps.append(assemble)
    return StepGraph(video_id=video_id, steps=steps, workload=workload)


def codec_ladders(
    variants: Sequence[Tuple[str, Resolution]],
) -> Dict[str, List[Resolution]]:
    """Group a ladder policy's (codec, rung) variants per codec."""
    by_codec: Dict[str, List[Resolution]] = {}
    for codec, rung in variants:
        by_codec.setdefault(codec, []).append(rung)
    return by_codec


def ladder_steps(
    chunk: Chunk,
    by_codec: Dict[str, List[Resolution]],
    mode: EncodingMode,
    *,
    use_mot: bool,
    software_decode: bool = False,
    opportunistic_max_pixels: int = 0,
    deadline: Optional[float] = None,
) -> List[Step]:
    """All transcode steps for one chunk/segment of the ladder.

    This is the single step-graph builder both the whole-chunk path
    (:func:`build_transcode_graph`) and segment mode route through: with
    ``use_mot`` each codec becomes one MOT step encoding the whole
    ladder, otherwise each (codec, rung) is its own SOT step re-decoding
    the input (Figure 2).  Rungs whose output pixel count is at most
    ``opportunistic_max_pixels`` are marked eligible for immediate
    software fallback when hardware slots are saturated.
    """
    steps: List[Step] = []
    for codec, ladder in by_codec.items():
        if use_mot:
            steps.append(
                _transcode_step(chunk, codec, ladder, mode, True, software_decode)
            )
        else:
            for rung in ladder:
                step = _transcode_step(
                    chunk, codec, [rung], mode, False, software_decode
                )
                step.fallback_opportunistic = (
                    0 < rung.pixels <= opportunistic_max_pixels
                )
                step.deadline = deadline
                steps.append(step)
    return steps


#: Every live task a step graph holds, by value.  Equal steps share one
#: task, and so one price memo (see :class:`~repro.vcu.chip.VcuTask`).
#: Held weakly: a task lives exactly as long as some step holds it.
_TASKS: "weakref.WeakValueDictionary[tuple, VcuTask]" = weakref.WeakValueDictionary()


def _transcode_step(
    chunk: Chunk,
    codec: str,
    outputs: Sequence[Resolution],
    mode: EncodingMode,
    is_mot: bool,
    software_decode: bool,
) -> Step:
    nominal = chunk.nominal
    outputs = list(outputs)
    # Resolutions enter the key by name, whose hash a str caches; hashing
    # a Resolution re-hashes its fields on every lookup.  An ad hoc
    # Resolution may reuse a name, so a hit must also hold these very
    # resolutions (the tuple and list compare by identity first).
    key = (
        codec, mode, nominal.name, tuple([r.name for r in outputs]),
        chunk.frame_count, chunk.fps, is_mot, software_decode,
    )
    task = _TASKS.get(key)
    if task is None or (task.input_resolution, task.outputs) != (nominal, outputs):
        task = _TASKS[key] = VcuTask(
            codec=codec,
            mode=mode,
            input_resolution=nominal,
            outputs=outputs,
            frame_count=chunk.frame_count,
            fps=chunk.fps,
            is_mot=is_mot,
            software_decode=software_decode,
        )
    suffix = "mot" if is_mot else f"sot-{outputs[0].name}"
    return Step(
        step_id=f"{chunk.chunk_id}/{codec}/{suffix}",
        kind=StepKind.TRANSCODE,
        video_id=chunk.video_id,
        vcu_task=task,
        rung=None if is_mot else outputs[0].name,
    )
