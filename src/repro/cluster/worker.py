"""Workers: the processes the scheduler places steps onto.

A :class:`VcuWorker` has exclusive access to one VCU (Section 3.3.3:
"some with exclusive access to a VCU") and advertises its multi-
dimensional resources; a :class:`CpuWorker` is a conventional machine
slice doing CPU steps and, when needed, software-fallback transcodes.

Each VCU worker runs one process per transcode to constrain errors to a
single step (Section 3.1), performs a functional reset plus a 'golden'
transcode battery when it first binds to a VCU (Section 4.4), and on any
hardware failure aborts all work on that VCU so the step retries at the
cluster level -- the black-holing mitigation.
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import Mapping, Optional, TYPE_CHECKING

from repro import obs
from repro.baselines.cpu import SkylakeSystem
from repro.cluster.health import (
    DEFAULT_HEALTH_POLICY,
    LEGAL_HEALTH_TRANSITIONS,
    HealthPolicy,
    HealthState,
    IllegalHealthTransition,
)
from repro.sim.hooks import WeakHook
from repro.sim.resources import MultiResource
from repro.vcu.chip import Vcu, VcuTask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vcu.host import VcuHost

#: Fixed per-step overhead on a VCU worker: process spawn (one process per
#: transcode), queue setup, stream mux/demux on the host.
STEP_OVERHEAD_SECONDS = 0.8


class Worker:
    """Common surface the schedulers rely on."""

    _ids = itertools.count()

    def __init__(self, name: str = ""):
        self.name = name or f"worker-{next(self._ids)}"
        self.pool_key = None
        self.active_steps = 0

    def is_idle(self) -> bool:
        return self.active_steps == 0

    # Subclasses define: resources (MultiResource), can_run(step), etc.


class VcuWorker(Worker):
    """A worker bound 1:1 to a VCU."""

    on_availability_change = WeakHook(
        """Optional observer called with this worker after every health
        transition.  The owning cluster keeps its availability count exact
        through this hook instead of rescanning the fleet.  A bound method
        is held weakly (see :class:`~repro.sim.hooks.WeakHook`), so the
        hook does not keep its cluster alive."""
    )

    def __init__(
        self,
        vcu: Vcu,
        numa_aware: bool = True,
        target_speedup: float = 5.0,
        golden_screening: bool = True,
        host_multiplier: float = None,
        decode_safety_factor: float = 1.0,
        step_overhead_seconds: float = STEP_OVERHEAD_SECONDS,
        host: Optional["VcuHost"] = None,
        health_policy: Optional[HealthPolicy] = None,
    ):
        if host_multiplier is None:
            host_multiplier = 1.0 if numa_aware else 1.0 / 1.20
        # Each of these is first read by the first step placed here, mid-run;
        # a bad value fails now instead (a NaN speedup would never fail).
        if not 0 < target_speedup < math.inf:
            raise ValueError(f"target_speedup must be finite and > 0, got {target_speedup}")
        if not 1 <= decode_safety_factor < math.inf:
            raise ValueError(
                f"decode_safety_factor must be finite and >= 1, got {decode_safety_factor}"
            )
        if not 0 < host_multiplier < math.inf:
            raise ValueError(f"host_multiplier must be finite and > 0, got {host_multiplier}")
        if not 0 <= step_overhead_seconds < math.inf:
            raise ValueError(
                f"step_overhead_seconds must be finite and >= 0, got {step_overhead_seconds}"
            )
        super().__init__(name=f"worker:{vcu.vcu_id}")
        self.vcu = vcu
        #: The physical fault domain this worker's VCU lives in (optional;
        #: lets the cluster evict a whole host on correlated failures).
        self.host = host
        self.target_speedup = target_speedup
        self.decode_safety_factor = decode_safety_factor
        self.step_overhead_seconds = step_overhead_seconds
        self.golden_screening = golden_screening
        self.health_policy = (
            DEFAULT_HEALTH_POLICY if health_policy is None else health_policy
        )
        self.health = HealthState.HEALTHY
        self.strikes = 0
        self.rescreen_failures = 0
        self.host_multiplier = host_multiplier
        if golden_screening:
            self._screen()

    def _set_health(self, new: HealthState) -> None:
        """The single choke point for health transitions.

        Every state change flows through here so the observability layer
        sees **exactly one** ``health`` span per transition -- the
        invariant the resilience/observability seam tests assert.
        """
        old = self.health
        if new is old:
            return
        if new not in LEGAL_HEALTH_TRANSITIONS[old]:
            raise IllegalHealthTransition(
                f"{self.name}: health {old.value} -> {new.value} is not in "
                "LEGAL_HEALTH_TRANSITIONS"
            )
        self.health = new
        observer = self.on_availability_change
        if observer is not None:
            observer(self)
        hub = obs.active()
        if hub is not None:
            hub.count("worker.health_transitions")
            hub.emit(
                "health", self.name,
                attrs={"from": old.value, "to": new.value, "vcu": self.vcu.vcu_id},
            )

    def _screen(self) -> None:
        """Functional reset + golden transcode battery before taking work."""
        if not self.vcu.golden_check():
            self._set_health(HealthState.QUARANTINED)

    #: States in which the worker still accepts work.  SUSPECT serves on
    #: purpose: one watchdog strike is a warning, not a conviction, and a
    #: suspect device must keep taking steps to either clear itself or
    #: exhaust the strike budget.
    _SERVING_STATES = (HealthState.HEALTHY, HealthState.SUSPECT)

    @property
    def refused(self) -> bool:
        """Back-compat view: any non-serving state refuses new work."""
        return self.health not in self._SERVING_STATES

    @property
    def resources(self) -> MultiResource:
        return self.vcu.resources

    def available(self) -> bool:
        if self.health not in self._SERVING_STATES or self.vcu.disabled:
            return False
        return self.host is None or not self.host.unusable

    def request_for(self, task: VcuTask) -> Mapping[str, float]:
        """The task's read-only request, priced once for this worker's
        configuration."""
        return task.priced_request(
            self.vcu.spec, self.target_speedup, self.decode_safety_factor
        )

    def step_seconds(self, task: VcuTask, granted: Mapping[str, float]) -> float:
        """Wall-clock time for a step: device processing (scaled by host
        efficiency) plus per-step overhead and host I/O."""
        device = task.device_seconds(self.vcu.spec, granted)
        if self.vcu.corrupt:
            # A failing-but-fast VCU races through work (Section 4.4).
            device *= 0.3
        return device / self.host_multiplier + self.step_overhead_seconds + task.io_seconds

    def try_admit(self, request: Mapping[str, float]) -> bool:
        if not self.available():
            return False
        admitted = self.vcu.try_admit(request)
        if admitted:
            self.active_steps += 1
        return admitted

    def release(self, request: Mapping[str, float]) -> None:
        self.vcu.release(request)
        self.active_steps -= 1

    # -------------------------------------------------------------- #
    # Health-state machine transitions (see repro.cluster.health)

    def abort_and_quarantine(self) -> bool:
        """On a confirmed hardware failure: refuse work until re-screened.

        Returns True when this call performed the quarantine (False when
        the worker was already out of service)."""
        if self.health in (HealthState.HEALTHY, HealthState.SUSPECT):
            self._set_health(HealthState.QUARANTINED)
            return True
        return False

    def record_strike(self) -> bool:
        """A watchdog strike (hang).  Returns True when it quarantines.

        The first strike marks the worker SUSPECT (it keeps serving);
        exhausting the policy's strike budget quarantines it.
        """
        if self.health in (HealthState.QUARANTINED, HealthState.RESCREENING,
                           HealthState.DISABLED):
            return False
        self.strikes += 1
        if self.strikes >= self.health_policy.strike_budget:
            self._set_health(HealthState.QUARANTINED)
            return True
        self._set_health(HealthState.SUSPECT)
        return False

    def begin_rescreen(self) -> None:
        if self.health is not HealthState.QUARANTINED:
            raise RuntimeError(
                f"cannot rescreen {self.name} from state {self.health.value}"
            )
        self._set_health(HealthState.RESCREENING)

    def finish_rescreen(self) -> bool:
        """Complete the golden battery: True restores HEALTHY.

        A failure returns the worker to QUARANTINED (the cluster backs off
        and retries) until the policy's failure budget is exhausted, at
        which point the worker -- and its device -- are DISABLED pending a
        physical repair.
        """
        if self.health is not HealthState.RESCREENING:
            raise RuntimeError(
                f"cannot finish rescreen of {self.name} in state {self.health.value}"
            )
        if not self.vcu.disabled and self.vcu.golden_check():
            self._set_health(HealthState.HEALTHY)
            self.strikes = 0
            self.rescreen_failures = 0
            return True
        self.rescreen_failures += 1
        if self.rescreen_failures >= self.health_policy.max_rescreen_failures:
            self._set_health(HealthState.DISABLED)
            self.vcu.disable()
        else:
            self._set_health(HealthState.QUARANTINED)
        return False

    def reset_after_repair(self) -> bool:
        """A repair touched this worker's device: queue a fresh re-screen.

        Returns True when the worker moved into QUARANTINED (so the
        caller should schedule rehabilitation); HEALTHY workers are left
        alone.
        """
        if self.health is HealthState.HEALTHY:
            return False
        self._set_health(HealthState.QUARANTINED)
        self.strikes = 0
        self.rescreen_failures = 0
        return True


# Software fallback throughput comes from the Skylake model.
_CPU_MODEL = SkylakeSystem()


class CpuWorker(Worker):
    """A CPU machine slice: runs CPU steps and software-fallback transcodes."""

    def __init__(self, cores: float = 16.0, name: str = ""):
        super().__init__(name=name or None)
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.cores = cores
        self.resources = MultiResource({"cpu_cores": cores}, name=self.name)
        # Fixed core bundles, one read-only mapping each: every step that
        # places here shares one request object.
        self._step_request = MappingProxyType({"cpu_cores": min(4.0, cores)})
        self._transcode_request = MappingProxyType({"cpu_cores": min(8.0, cores)})

    def available(self) -> bool:
        return True

    def request_for_cpu_step(self, core_seconds: float) -> Mapping[str, float]:
        return self._step_request

    def cpu_step_seconds(self, core_seconds: float, granted: Mapping[str, float]) -> float:
        return core_seconds / granted["cpu_cores"]

    def request_for_transcode(self, task: VcuTask) -> Mapping[str, float]:
        """Software fallback: grab a fixed core bundle per transcode."""
        return self._transcode_request

    def transcode_seconds(self, task: VcuTask, granted: Mapping[str, float]) -> float:
        total = 0.0
        for output in task.outputs:
            mpix = output.pixels * task.frame_count / 1e6
            rate_per_core = _CPU_MODEL.per_core_throughput(task.codec, output)
            total += mpix / rate_per_core
        return total / granted["cpu_cores"]

    def try_admit(self, request: Mapping[str, float]) -> bool:
        admitted = self.resources.acquire(request)
        if admitted:
            self.active_steps += 1
        return admitted

    def release(self, request: Mapping[str, float]) -> None:
        self.resources.release(request)
        self.active_steps -= 1
