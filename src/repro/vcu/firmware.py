"""The on-chip management firmware's userspace interface (Section 3.3.2).

The codec cores are opaque to the firmware; userspace processes map queues
exposing exactly four commands -- ``run-on-core``, ``copy-to-device``,
``copy-from-device``, ``wait-for-done``.  ``run-on-core`` deliberately
does *not* name a core: cores are stateless and interchangeable, and the
firmware dispatches to any idle core, draining the per-process queues
round-robin for fairness and utilization.

The model runs on the discrete-event engine so tests can assert the two
scheduling properties the paper calls out: fairness (every queue makes
forward progress) and work conservation (no core idles while compatible
work is queued).

Firmware is also the fleet's most dangerous deployment artifact: one bad
build lands on every VCU at once (Section 5's canary discipline exists
because of this).  :class:`FirmwareVersion` models a *release* as its
observable behaviour deltas -- per-step host overhead and device-fault
pressure -- so the control plane's canary-rollout scenario can stage a
candidate on a slice of hosts and detect the regression from scorecards
alone, exactly as production would.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro import obs
from repro.sim.engine import Event, Simulator


@dataclass(frozen=True)
class FirmwareVersion:
    """One firmware release, described by its observable behaviour.

    The codec cores are opaque; what a firmware build changes, from the
    fleet's point of view, is the per-step host overhead (queue setup,
    scheduling) and the device-fault pressure it induces.  A release
    with every knob at its default is behaviourally identical to the
    launch build.
    """

    version: str
    #: Multiplier on each worker's fixed per-step overhead (1.0 = the
    #: launch build's dispatch path).
    step_overhead_multiplier: float = 1.0
    #: Poisson device-stall pressure this build adds, per VCU-hour;
    #: stalls clear after ``hang_duration_seconds`` (a wedged dispatch
    #: loop recovers itself) but strike the cluster watchdog meanwhile.
    hang_rate_per_hour: float = 0.0
    hang_duration_seconds: float = 25.0
    #: Poisson silent-corruption pressure, per VCU-hour (the dangerous
    #: regression class: caught only by integrity checking).
    corruption_rate_per_hour: float = 0.0
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.version:
            raise ValueError("firmware version needs a name")
        if self.step_overhead_multiplier <= 0:
            raise ValueError("step_overhead_multiplier must be positive")
        if self.hang_rate_per_hour < 0 or self.corruption_rate_per_hour < 0:
            raise ValueError("fault rates must be >= 0")
        if self.hang_duration_seconds <= 0:
            raise ValueError("hang_duration_seconds must be positive")


#: The launch build every VCU boots with.
BASELINE_FIRMWARE = FirmwareVersion("fw-1.0.0", notes="launch build")

#: The known releases, keyed by version.  ``rc1`` carries the regression
#: the canary-rollout experiment must catch (a slow dispatch path plus a
#: wedging stall bug); ``rc2`` is the respin that should promote.
FIRMWARE_RELEASES: Dict[str, FirmwareVersion] = {
    release.version: release
    for release in (
        BASELINE_FIRMWARE,
        FirmwareVersion(
            "fw-1.1.0-rc1",
            step_overhead_multiplier=3.0,
            hang_rate_per_hour=120.0,
            hang_duration_seconds=25.0,
            notes="regressed queue-setup path; dispatch loop wedges under load",
        ),
        FirmwareVersion(
            "fw-1.1.0-rc2",
            step_overhead_multiplier=0.95,
            notes="rc1 regression fixed; slightly faster dispatch",
        ),
    )
}


def firmware_release(version: str) -> FirmwareVersion:
    """Look up a release by version; raises with the known set."""
    try:
        return FIRMWARE_RELEASES[version]
    except KeyError:
        known = ", ".join(sorted(FIRMWARE_RELEASES))
        raise KeyError(
            f"unknown firmware version {version!r}; known: {known}"
        ) from None


class CommandKind(enum.Enum):
    RUN_ON_CORE = "run_on_core"
    COPY_TO_DEVICE = "copy_to_device"
    COPY_FROM_DEVICE = "copy_from_device"
    WAIT_FOR_DONE = "wait_for_done"


@dataclass
class FirmwareCommand:
    """One queued command; ``seconds`` is its modelled execution time."""

    kind: CommandKind
    seconds: float = 0.0
    #: For RUN_ON_CORE: which core class must execute it.
    core_class: str = "encoder"
    #: Commands this one depends on (data-dependency graph, Section 3.3.2);
    #: the firmware may start commands out of order as long as these hold.
    depends_on: List["FirmwareCommand"] = field(default_factory=list)
    done: Optional[Event] = None
    executed_on: Optional[int] = None

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("command duration must be >= 0")


class WorkQueue:
    """One userspace process's mapped command queue."""

    _ids = itertools.count()

    def __init__(self, name: str = ""):
        self.name = name or f"queue-{next(self._ids)}"
        self.pending: Deque[FirmwareCommand] = deque()

    def enqueue(self, command: FirmwareCommand) -> FirmwareCommand:
        self.pending.append(command)
        return command

    def ready_command(self, can_run=None) -> Optional[FirmwareCommand]:
        """The first queued command whose dependencies have all completed.

        ``can_run`` (optional predicate) lets the dispatcher skip commands
        whose core class has no idle core, so a stalled decode at the head
        of the queue does not block encodes that could run right now --
        the out-of-order execution Section 3.3.2 describes.
        """
        for command in self.pending:
            if not all(
                dep.done is not None and dep.done.fired for dep in command.depends_on
            ):
                continue
            if can_run is not None and not can_run(command):
                continue
            return command
        return None


class VcuFirmware:
    """Round-robin dispatcher multiplexing queues onto stateless cores."""

    def __init__(
        self,
        sim: Simulator,
        encoder_cores: int = 10,
        decoder_cores: int = 3,
        copy_engines: int = 1,
    ):
        self.sim = sim
        self._idle: Dict[str, List[int]] = {
            "encoder": list(range(encoder_cores)),
            "decoder": list(range(decoder_cores)),
            "copy": list(range(copy_engines)),
        }
        self._queues: List[WorkQueue] = []
        self._rr_next = 0
        self.dispatched: List[FirmwareCommand] = []

    def attach(self, queue: WorkQueue) -> WorkQueue:
        self._queues.append(queue)
        return queue

    def submit(self, queue: WorkQueue, command: FirmwareCommand) -> Event:
        """Enqueue a command; returns the event fired on completion."""
        command.done = self.sim.event()
        if command.kind is CommandKind.WAIT_FOR_DONE:
            # Pure synchronisation: fires when its dependencies have fired.
            barrier = self.sim.all_of(
                [dep.done for dep in command.depends_on if dep.done is not None]
            )

            def _propagate():
                done = command.done
                yield barrier
                done.succeed()

            self.sim.process(_propagate(), name="wait_for_done")
            return command.done
        queue.enqueue(command)
        self.sim.call_in(0.0, self._dispatch)
        return command.done

    def _core_class(self, command: FirmwareCommand) -> str:
        if command.kind is CommandKind.RUN_ON_CORE:
            return command.core_class
        return "copy"

    def _has_idle_core(self, command: FirmwareCommand) -> bool:
        core_class = self._core_class(command)
        idle = self._idle.get(core_class)
        if idle is None:
            raise ValueError(f"unknown core class {core_class!r}")
        return bool(idle)

    def _dispatch(self) -> None:
        """Drain queues round-robin while idle cores and ready work remain."""
        if not self._queues:
            return
        progressed = True
        while progressed:
            progressed = False
            for offset in range(len(self._queues)):
                queue = self._queues[(self._rr_next + offset) % len(self._queues)]
                command = queue.ready_command(can_run=self._has_idle_core)
                if command is None:
                    continue
                core_class = self._core_class(command)
                queue.pending.remove(command)
                core = self._idle[core_class].pop(0)
                command.executed_on = core
                self.dispatched.append(command)
                hub = obs.active()
                if hub is not None:
                    hub.count("fw.dispatched")
                    hub.emit(
                        "fw", command.kind.value,
                        t0=self.sim.now, t1=self.sim.now + command.seconds,
                        attrs={
                            "queue": queue.name,
                            "core_class": core_class,
                            "core": core,
                        },
                    )
                self._start(command, core_class, core)
                # Advance the round-robin pointer past the served queue.
                self._rr_next = (self._rr_next + offset + 1) % len(self._queues)
                progressed = True
                break

    def _start(self, command: FirmwareCommand, core_class: str, core: int) -> None:
        def _finish():
            self._idle[core_class].append(core)
            self._idle[core_class].sort()
            command.done.succeed()
            self._dispatch()

        self.sim.call_in(command.seconds, _finish)

    def idle_cores(self, core_class: str) -> int:
        return len(self._idle[core_class])
