"""One VCU ASIC as a schedulable, monitorable device.

A :class:`Vcu` exposes the scheduler-visible resource dimensions of
Section 3.3.3 (3,000 millidecode cores, 10,000 milliencode cores, DRAM
bytes) through a :class:`~repro.sim.resources.MultiResource`, estimates
per-task costs, and carries the telemetry/fault state the failure
management stack operates on (Section 4.4).
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.sim.resources import MultiResource
from repro.vcu.spec import (
    DEFAULT_VCU_SPEC,
    SHARED_ANALYSIS_FRACTION,
    EncodingMode,
    VcuSpec,
)
from repro.vcu.telemetry import VcuTelemetry
from repro.vcu.throughput import decode_passes
from repro.video.frame import Resolution

if TYPE_CHECKING:  # deferred: repro.vcu.host imports this module back
    from repro.vcu.host import VcuHost

MiB = 1024**2


@dataclass(frozen=True)
class VcuTask:
    """One transcoding step: a chunk in, one or more encoded variants out."""

    codec: str
    mode: EncodingMode
    input_resolution: Resolution
    outputs: Sequence[Resolution]
    frame_count: int
    fps: float
    #: MOT encodes the whole ladder in one task; SOT tasks carry one output.
    is_mot: bool = True
    #: When True the host CPU decodes and ships raw frames over PCIe
    #: (the opportunistic software-decode optimization of Figure 9c).
    software_decode: bool = False

    def __post_init__(self) -> None:
        if not self.outputs:
            raise ValueError("task needs at least one output")
        if self.frame_count <= 0 or self.fps <= 0:
            raise ValueError("frame_count and fps must be positive")
        if not self.is_mot and len(self.outputs) != 1:
            raise ValueError("an SOT task has exactly one output")

    @property
    def input_pixels(self) -> float:
        return float(self.input_resolution.pixels * self.frame_count)

    @property
    def output_pixels(self) -> float:
        return float(sum(r.pixels for r in self.outputs) * self.frame_count)

    @property
    def duration_seconds(self) -> float:
        """Content duration (not processing time)."""
        return self.frame_count / self.fps


def encode_core_seconds(task: VcuTask, spec: VcuSpec) -> float:
    """Encoder core-seconds the task needs."""
    shared = (
        SHARED_ANALYSIS_FRACTION
        if task.is_mot and task.mode is not EncodingMode.LOW_LATENCY_ONE_PASS
        else 0.0
    )
    return task.output_pixels * (1.0 - shared) / spec.encode_rate(task.codec, task.mode)


def decode_core_seconds(task: VcuTask, spec: VcuSpec) -> float:
    """Hardware decoder core-seconds (zero when decoding in software)."""
    if task.software_decode:
        return 0.0
    return decode_passes(task.mode) * task.input_pixels / spec.decode_pixel_rate


def dram_footprint_bytes(task: VcuTask, spec: VcuSpec) -> float:
    """Device DRAM footprint, following Appendix A.4's accounting.

    Reference frames for decode + each encode (9 frames each at the
    relevant resolution, +5% for compression padding), a 15-frame lag
    window for two-pass modes, plus padding/ephemeral buffers.
    """
    bytes_per_pixel = 1.5  # 10-bit luma + subsampled chroma, padded
    ref_frames = 9  # 8 references + 1 output (Appendix A.4)
    decode_refs = task.input_resolution.pixels * bytes_per_pixel * ref_frames * 1.05
    encode_refs = sum(
        r.pixels * bytes_per_pixel * ref_frames * 1.05 for r in task.outputs
    )
    lag_frames = 15 if task.mode is not EncodingMode.LOW_LATENCY_ONE_PASS else 3
    lag_window = task.input_resolution.pixels * bytes_per_pixel * lag_frames
    ephemeral = 0.18 * (decode_refs + encode_refs + lag_window)
    return decode_refs + encode_refs + lag_window + ephemeral


def resource_request(
    task: VcuTask, spec: VcuSpec, target_speedup: float = 1.0,
    decode_safety_factor: float = 1.0,
) -> Dict[str, float]:
    """The scheduler-visible resource vector for a task (Section 3.3.3).

    ``target_speedup`` is how much faster than realtime the task should
    finish (1.0 = process at content speed); millicores are sized so the
    granted fraction sustains that rate, mirroring the per-worker-type
    mapping from step requests to resource amounts.

    ``decode_safety_factor`` over-provisions the millidecode request.
    The paper's estimations "were initially based on measurements ... in
    an unconstrained environment and then tuned using production
    observations"; conservative decode estimates are what made hardware
    decoding a scheduling bottleneck that stranded encoder capacity until
    opportunistic software decoding relieved it (Figure 9c).
    """
    if target_speedup <= 0:
        raise ValueError("target_speedup must be positive")
    if decode_safety_factor < 1.0:
        raise ValueError("decode_safety_factor must be >= 1")
    wall = task.duration_seconds / target_speedup
    encode_fraction = encode_core_seconds(task, spec) / wall
    decode_fraction = decode_core_seconds(task, spec) / wall * decode_safety_factor
    return {
        "milliencode": min(1000.0 * encode_fraction, float(spec.milliencode)),
        "millidecode": min(1000.0 * decode_fraction, float(spec.millidecode)),
        "dram_bytes": dram_footprint_bytes(task, spec),
        # Synthetic dimension standing in for host/PCIe work when the host
        # decodes in software (Section 3.3.3's synthetic resources).
        "host_decode": (
            decode_passes(task.mode) * task.input_pixels / wall / 1e6
            if task.software_decode
            else 0.0
        ),
    }


def processing_seconds(
    task: VcuTask, spec: VcuSpec, granted: Dict[str, float]
) -> float:
    """Wall time to finish the task with the granted millicore vector."""
    encode_need = encode_core_seconds(task, spec)
    decode_need = decode_core_seconds(task, spec)
    times = []
    if encode_need > 0:
        if granted.get("milliencode", 0) <= 0:
            raise ValueError("task needs encoder millicores but got none")
        times.append(encode_need / (granted["milliencode"] / 1000.0))
    if decode_need > 0:
        if granted.get("millidecode", 0) <= 0:
            raise ValueError("task needs decoder millicores but got none")
        times.append(decode_need / (granted["millidecode"] / 1000.0))
    return max(times) if times else 0.0


_vcu_ids = itertools.count()

#: Read-only capacity mappings by ``(milliencode, millidecode,
#: dram_capacity, host_decode_capacity)``: devices built alike share one.
_CAPACITIES: Dict[Tuple[float, float, float, float], Mapping[str, float]] = {}


def _shared_capacity(spec: VcuSpec, host_decode_capacity: float) -> Mapping[str, float]:
    key = (spec.milliencode, spec.millidecode, spec.dram_capacity, host_decode_capacity)
    capacity = _CAPACITIES.get(key)
    if capacity is None:
        capacity = MappingProxyType({
            "milliencode": float(spec.milliencode),
            "millidecode": float(spec.millidecode),
            "dram_bytes": float(spec.dram_capacity),
            "host_decode": host_decode_capacity,
        })
        MultiResource(capacity)  # validates: only an accepted capacity is kept
        _CAPACITIES[key] = capacity
    return capacity


class Vcu:
    """One VCU: resources plus health state.

    ``corrupt`` models a failing-but-fast device: it keeps accepting work
    (quickly!) but produces bad output -- the black-holing hazard of
    Section 4.4.  Golden-task screening (in :mod:`repro.failures`) relies
    on the deterministic :meth:`golden_check`.

    A fleet holds tens of thousands of these, so a device keeps only its
    own state: it is slotted, and its spec and resource capacity are
    shared with every device built alike.
    """

    __slots__ = (
        "spec", "vcu_id", "resources", "telemetry", "_host_ref",
        "disabled", "corrupt", "hung", "_completed_tasks",
    )

    def __init__(
        self,
        spec: VcuSpec = None,
        vcu_id: Optional[str] = None,
        host_decode_capacity: float = 500.0,
    ):
        self.spec = spec or DEFAULT_VCU_SPEC
        self.vcu_id = vcu_id or f"vcu-{next(_vcu_ids)}"
        self.resources = MultiResource(
            _shared_capacity(self.spec, host_decode_capacity), name=self.vcu_id
        )
        self.telemetry = VcuTelemetry(self.vcu_id)
        # Set by the host that holds this device; read through ``host``.
        self._host_ref: Optional["weakref.ref[VcuHost]"] = None
        self.disabled = False
        self.corrupt = False
        #: A wedged device: in-flight steps never complete on their own.
        #: Only a watchdog deadline (or a repair) gets the work back.
        self.hung = False
        self._completed_tasks = 0

    @property
    def host(self) -> Optional["VcuHost"]:
        """The :class:`~repro.vcu.host.VcuHost` this device sits in, if any.

        :meth:`disable` and :meth:`enable` keep its ``disabled_vcus``
        count and ``sweep_due`` flag exact.  The host owns its devices,
        so this back-pointer is a weak reference: it closes no cycle.
        """
        ref = self._host_ref
        return None if ref is None else ref()

    def try_admit(self, request: Dict[str, float]) -> bool:
        """Reserve a task's resource vector; False if it does not fit."""
        if self.disabled:
            return False
        return self.resources.acquire(request)

    def release(self, request: Dict[str, float]) -> None:
        self.resources.release(request)
        self._completed_tasks += 1

    @property
    def completed_tasks(self) -> int:
        return self._completed_tasks

    def encoder_utilization(self) -> float:
        return self.resources.utilization("milliencode")

    def decoder_utilization(self) -> float:
        return self.resources.utilization("millidecode")

    def golden_check(self) -> bool:
        """Run the short 'golden' transcode battery across every core.

        The real system relies on core determinism: a known input must
        produce a bit-exact known output.  Here the device-level corrupt
        flag decides the outcome deterministically; a hung device fails
        the battery too (it never returns the reference output).
        """
        return not self.corrupt and not self.hung

    def _device_event(self, name: str) -> None:
        """Trace raw device-state flips (injected faults, disables)."""
        hub = obs.active()
        if hub is not None:
            hub.count(f"device.{name}")
            hub.emit("device", name, attrs={"vcu": self.vcu_id})

    def mark_corrupt(self) -> None:
        self.corrupt = True
        self._device_event("mark_corrupt")

    def mark_hung(self) -> None:
        self.hung = True
        self._device_event("mark_hung")

    def clear_hang(self) -> None:
        self.hung = False
        self._device_event("clear_hang")

    def disable(self) -> None:
        if not self.disabled:
            self.disabled = True
            host = self.host
            if host is not None:
                host.disabled_vcus += 1
        self._device_event("disable")

    def enable(self) -> None:
        if self.disabled:
            self.disabled = False
            host = self.host
            if host is not None:
                host.disabled_vcus -= 1
                # A tripped device re-enabled without a reset must be
                # disabled again by the next sweep.
                host.sweep_due = True
        self.corrupt = False
        self.hung = False
        self._device_event("enable")
