"""The transcoding cluster: work queue, placement, execution, resilience.

This ties the pieces together on the discrete-event engine: step graphs
are submitted to a global work queue, ready steps are placed by the
scheduler onto VCU or CPU workers, execution holds the granted resource
vector for the step's modelled duration, and completions unblock
dependents.  Failure handling follows Section 4.4 as an always-on
resilience loop:

* every VCU step runs under a **watchdog deadline** (hung devices never
  complete on their own; a wedged step waits for the deadline's timer,
  which hands the step back to record a ``HANG`` fault in telemetry and
  strike the worker);
* integrity checks catch most corrupt output and failed steps retry on
  *different* VCUs with **exponential backoff + jitter** (fault
  correlation via the recorded VCU id);
* failures drive a per-worker **health-state machine**
  (HEALTHY -> SUSPECT -> QUARANTINED -> RESCREENING -> HEALTHY|DISABLED)
  with golden-battery rehabilitation, so a transiently-bad device earns
  its way back into service instead of being refused forever;
* correlated failures across a host's VCUs **evict the whole host**
  (fault-domain awareness), and an optional consistent-hash affinity
  policy confines each video's chunks to few VCUs, shrinking the blast
  radius a single bad device can inflict;
* steps that exhaust hardware retries fall back to software transcoding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import compress
from typing import (
    Deque, Dict, Generator, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro import obs
from repro.obs.latency import QUEUE_WAIT_BOUNDS
from repro.obs.registry import MetricsRegistry
from repro.cluster.health import HealthState
from repro.cluster.metrics import ThroughputWindow
from repro.cluster.scheduler import BinPackingScheduler, SingleSlotScheduler
from repro.cluster.telemetry import FleetTelemetry
from repro.cluster.worker import CpuWorker, VcuWorker
from repro.failures.consistent_hash import (
    ChunkAffinityPolicy,
    ConsistentHashRing,
    chunk_ordinal,
)
from repro.failures.watchdog import (
    BackoffPolicy,
    FaultDomainPolicy,
    FaultDomainTracker,
    WatchdogPolicy,
)
from repro.sim.engine import Simulator
from repro.sim.hooks import WeakHook
from repro.sim.rng import SeedLike, make_rng
from repro.transcode.pipeline import Step, StepGraph
from repro.vcu.host import VcuHost
from repro.vcu.telemetry import FaultKind


#: :class:`ClusterStats`' event counters, in field order; the hub reports
#: each as ``cluster.<name>``.
CLUSTER_COUNTERS: Tuple[str, ...] = (
    "completed_steps", "failed_placements", "retries", "software_fallbacks",
    "opportunistic_fallbacks", "corrupt_caught", "corrupt_escaped",
    "completed_graphs", "hangs_detected", "workers_quarantined",
    "workers_rehabilitated", "workers_disabled", "host_evictions",
)


@dataclass
class ClusterStats:
    """Counters and time-series the benchmarks read out."""

    completed_steps: int = 0
    failed_placements: int = 0
    retries: int = 0
    software_fallbacks: int = 0
    #: Subset of software_fallbacks taken eagerly by streaming-ladder low
    #: rungs while hardware was merely busy (not exhausted).
    opportunistic_fallbacks: int = 0
    corrupt_caught: int = 0
    corrupt_escaped: int = 0
    completed_graphs: int = 0
    hangs_detected: int = 0
    workers_quarantined: int = 0
    workers_rehabilitated: int = 0
    workers_disabled: int = 0
    host_evictions: int = 0
    backoff_delay_seconds: float = 0.0
    throughput: ThroughputWindow = field(default_factory=ThroughputWindow)
    per_vcu_megapixels: Dict[str, float] = field(default_factory=dict)
    graph_latencies: List[float] = field(default_factory=list)

    def per_vcu_mpix_per_second(self, now: float, vcu_count: int) -> float:
        span = now - self.throughput.start_time
        if span <= 0 or vcu_count == 0:
            return 0.0
        return self.throughput.total_megapixels / span / vcu_count

    def counter_snapshot(self) -> Dict[str, object]:
        """Every deterministic counter, hashable -- for reproducibility
        checks (two same-seed runs must produce identical snapshots)."""
        snapshot: Dict[str, object] = {
            name: getattr(self, name) for name in CLUSTER_COUNTERS
        }
        snapshot["backoff_delay_seconds"] = round(self.backoff_delay_seconds, 9)
        snapshot["graph_latencies"] = tuple(round(l, 9) for l in self.graph_latencies)
        snapshot["per_vcu_megapixels"] = tuple(
            sorted((k, round(v, 9)) for k, v in self.per_vcu_megapixels.items())
        )
        return snapshot

    def snapshot(self, now: Optional[float] = None) -> Dict[str, float]:
        """The event counters that moved, as ``cluster.*`` metrics."""
        counts = ((name, getattr(self, name)) for name in CLUSTER_COUNTERS)
        return {f"cluster.{name}": float(count) for name, count in counts if count}


class TranscodeCluster:
    """A cluster of VCU and CPU workers executing step graphs."""

    on_graph_done = WeakHook(
        """Called with each graph exactly once, at completion time.  The
        control plane uses this to close the job-lifecycle loop when a
        :class:`~repro.control.plane.ClusterExecutor` backs a site.  A
        bound method is held weakly (see :class:`~repro.sim.hooks.WeakHook`),
        so the executor that set it is not kept alive by the cluster."""
    )
    on_step_done = WeakHook(
        """Called once per completed step; streaming-ladder sessions use
        this to drive manifest alignment barriers.  Set after construction
        by :class:`~repro.transcode.streaming.LadderDispatcher`, whose
        bound method is held weakly like :attr:`on_graph_done`'s."""
    )

    def __init__(
        self,
        sim: Simulator,
        vcu_workers: Sequence[VcuWorker],
        cpu_workers: Sequence[CpuWorker] = (),
        use_bin_packing: bool = True,
        legacy_slots: int = 4,
        integrity_check_rate: float = 0.95,
        max_hardware_attempts: int = 3,
        software_fallback: bool = True,
        seed: SeedLike = 0,
        watchdog: Optional[WatchdogPolicy] = WatchdogPolicy(),
        backoff: Optional[BackoffPolicy] = BackoffPolicy(),
        fault_domain: Optional[FaultDomainPolicy] = FaultDomainPolicy(),
        affinity_placement: bool = False,
        affinity_size: int = 3,
    ):
        if not 0.0 <= integrity_check_rate <= 1.0:
            raise ValueError("integrity_check_rate must be in [0, 1]")
        self.sim = sim
        self.vcu_workers = list(vcu_workers)
        self.cpu_workers = list(cpu_workers)
        if use_bin_packing:
            self.vcu_scheduler = BinPackingScheduler(self.vcu_workers)
        else:
            self.vcu_scheduler = SingleSlotScheduler(
                self.vcu_workers, slots_per_worker=legacy_slots
            )
        self.cpu_scheduler = BinPackingScheduler(self.cpu_workers)
        self.integrity_check_rate = integrity_check_rate
        self.max_hardware_attempts = max_hardware_attempts
        self.software_fallback = software_fallback
        self.watchdog = watchdog
        self.backoff = backoff
        self._fault_domains = (
            FaultDomainTracker(fault_domain) if fault_domain is not None else None
        )
        self._affinity: Optional[ChunkAffinityPolicy] = None
        if affinity_placement and self.vcu_workers:
            ring = ConsistentHashRing([w.name for w in self.vcu_workers])
            self._affinity = ChunkAffinityPolicy(
                ring, affinity_size=min(affinity_size, len(self.vcu_workers))
            )
        #: When set, segment steps record per-rung queue waits here.
        self.ladder_metrics: Optional[MetricsRegistry] = None
        self.stats = ClusterStats(throughput=ThroughputWindow(start_time=sim.now))
        # An installed observability hub reads this cluster's own record
        # (attached below, once the telemetry exists), so it must not
        # hold another cluster's already.
        hub = obs.active()
        if hub is not None and "cluster.encoder_util" in hub.metrics:
            raise RuntimeError(
                "the installed observability hub already records another"
                " cluster; install a fresh hub per simulation (obs.installed())"
            )
        self._rng = make_rng(seed)
        # Lane-segregated pending queues (see _drain_pending); the global
        # arrival sequence number preserves cross-lane FIFO order.
        self._pending_lanes: Dict[str, Deque[Tuple[int, Step, Set[str]]]] = {
            "hw": deque(), "hw_swdec": deque(), "hw_opp": deque(), "cpu": deque(),
        }
        self._arrival_seq = 0
        # Per-step bookkeeping, keyed by ``id()`` and dropped when the step
        # (or, for ``_graph_remaining``, its graph's last step) completes,
        # so a drained cluster holds none of it.  An entry never outlives
        # its object: each step's ``_graph_of`` entry keeps its graph, and
        # so every step of it, alive until the step completes.
        self._graph_of: Dict[int, StepGraph] = {}
        self._remaining_deps: Dict[int, int] = {}
        self._dependents: Dict[int, List[Step]] = {}
        self._graph_remaining: Dict[int, int] = {}
        self._rehabbing: Set[str] = set()
        # Workers that failed the golden battery at bind time enter the
        # same rehabilitation loop as mid-run quarantines: the resilience
        # subsystem is always on, not test-invoked.
        for worker in self.vcu_workers:
            if worker.health is HealthState.QUARANTINED:
                self._note_quarantine(worker)
        # Availability is a mask/count maintained at mutation sites (see
        # note_availability_changed), never recomputed per placement.
        # Bind-time quarantines above already happened, so the initial
        # scan reads settled state.
        self._worker_index = {w.name: i for i, w in enumerate(self.vcu_workers)}
        self._worker_by_vcu = {w.vcu.vcu_id: w for w in self.vcu_workers}
        # Each host's workers in fleet order, so a repair walks one host.
        self._workers_by_host: Dict[str, List[VcuWorker]] = {}
        for worker in self.vcu_workers:
            if worker.host is not None:
                self._workers_by_host.setdefault(worker.host.host_id, []).append(worker)
        self._avail_mask = np.fromiter(
            (w.available() for w in self.vcu_workers),
            dtype=bool,
            count=len(self.vcu_workers),
        )
        self._available_count = int(self._avail_mask.sum())
        # The utilization table, in the mask's fleet rows: every admit
        # and release records the live fleet's mean utilization exactly.
        self.telemetry = FleetTelemetry(
            sim, self.vcu_workers, self._avail_mask, self._worker_index
        )
        self.encoder_util = self.telemetry.encoder_util
        self.decoder_util = self.telemetry.decoder_util
        for worker in self.vcu_workers:
            worker.on_availability_change = self.note_availability_changed
        if hub is not None:
            # Bind the hub to this run's virtual clock (and the engine's
            # active-process context) so spans emitted by clockless
            # components -- workers, schedulers, devices -- still carry
            # correct virtual timestamps.
            hub.bind_clock(lambda: self.sim.now, lambda: self.sim.active_process_name)
            hub.metrics.attach(self.stats)
            hub.metrics.attach(self.telemetry.metrics)

    # ------------------------------------------------------------------ #
    # Submission

    def submit(self, graph: StepGraph) -> None:
        """Register a step graph; its ready steps enter the work queue.

        A graph runs once: one this cluster holds, or one already
        completed, is rejected, since its steps would complete twice.
        """
        if id(graph) in self._graph_remaining or graph.completed_at is not None:
            raise ValueError(f"graph {graph.video_id!r} was already submitted")
        graph.submitted_at = self.sim.now
        self._graph_remaining[id(graph)] = len(graph.steps)
        for step in graph.steps:
            self._graph_of[id(step)] = graph
            self._remaining_deps[id(step)] = len(step.depends_on)
            for dep in step.depends_on:
                self._dependents.setdefault(id(dep), []).append(step)
        for step in graph.steps:
            if not step.depends_on:
                self._enqueue(step, set())

    @property
    def pending_count(self) -> int:
        return sum(len(lane) for lane in self._pending_lanes.values())

    # ------------------------------------------------------------------ #
    # Placement

    def _enqueue(self, step: Step, excluded: Set[str]) -> None:
        step.ready_at = self.sim.now
        if not self._try_place(step, excluded):
            seq = self._arrival_seq
            self._arrival_seq = seq + 1
            self._pending_lanes[self._lane_of(step)].append((seq, step, excluded))

    @staticmethod
    def _lane_of(step: Step) -> str:
        """Which head-of-line-blocking lane a pending step waits in.

        Hardware-decode and software-decode transcodes have different
        shapes (millidecode vs host_decode), hence separate lanes; and
        opportunistic ladder rungs can land on either pool, so a blocked
        hw lane must not starve them (and vice versa).
        """
        if step.is_transcode() and not step.software_only:
            if step.fallback_opportunistic:
                return "hw_opp"
            return "hw_swdec" if step.vcu_task.software_decode else "hw"
        return "cpu"

    def _drain_pending(self) -> None:
        # Head-of-line blocking per lane: once a step of some shape fails
        # to place, later same-shaped steps in the FIFO will not fit
        # either, so the whole lane sits out the round.  Lanes are kept
        # segregated so a drain touches only the steps it actually
        # attempts -- the old single-FIFO drain popped and re-appended
        # every blocked entry, O(pending) per completion at saturation.
        # Cross-lane order is restored by always attempting the smallest
        # arrival sequence among unblocked lanes, which is exactly the
        # order the single FIFO produced.
        live = [lane for lane in self._pending_lanes.values() if lane]
        if not live:
            return
        while live:
            best_at = 0
            for i in range(1, len(live)):
                if live[i][0][0] < live[best_at][0][0]:
                    best_at = i
            best = live[best_at]
            _, step, excluded = best[0]
            if self._try_place(step, excluded):
                best.popleft()
                if not best:
                    del live[best_at]
            else:
                del live[best_at]  # lane blocked for this round

    def _try_place(self, step: Step, excluded: Set[str]) -> bool:
        if step.is_transcode():
            return self._place_transcode(step, excluded)
        return self._place_cpu(step)

    def _place_transcode(self, step: Step, excluded: Set[str]) -> bool:
        task = step.vcu_task
        if self._available_count > len(excluded):
            # Pigeonhole: more live workers than excluded names means a
            # usable candidate certainly exists -- skip the O(fleet)
            # scans that only decide emptiness and exclusion resets.
            has_usable = True
        else:
            candidates = list(compress(self.vcu_workers, self._avail_mask))
            usable = [w for w in candidates if w.name not in excluded]
            if candidates and not usable:
                # Every live VCU is on this step's exclusion list -- e.g.
                # the fleet's lone worker failed once and has since been
                # rehabilitated.  Starvation is worse than weakened fault
                # correlation: retry anywhere.
                excluded = set()
                usable = candidates
            has_usable = bool(usable)
        hardware_exhausted = (
            step.software_only
            or step.attempts >= self.max_hardware_attempts
            or not has_usable
        )
        if not hardware_exhausted:
            # Request shape depends on the target worker type only through
            # the spec, identical across the fleet; probe with any worker.
            # The task prices each configuration once, so every attempt and
            # retry of every step of its shape reads one read-only request.
            probe = self.vcu_workers[0]
            request = task.priced_request(
                probe.vcu.spec, probe.target_speedup, probe.decode_safety_factor
            )
            preference = None
            if self._affinity is not None:
                preference = self._affinity.placement_order(
                    step.video_id, chunk_ordinal(step.step_id), excluded
                )
            worker = self.vcu_scheduler.place(
                request, excluded=excluded, preference=preference
            )
            if worker is not None:
                self._start_vcu_step(step, worker, request, excluded)
                return True
            if step.fallback_opportunistic:
                # Streaming-ladder low rungs: when every hardware slot is
                # busy, a CPU encode *now* beats a VCU encode later --
                # the rung is cheap and the manifest barrier is waiting.
                return self._try_software_fallback(step, opportunistic=True)
            return False  # wait for a VCU to free up
        if self.software_fallback and self.cpu_workers:
            return self._try_software_fallback(step, opportunistic=False)
        # No hardware path remains and no software fallback exists: a
        # genuine placement failure, not a wait-for-capacity event.
        self.stats.failed_placements += 1
        return False

    def _try_software_fallback(self, step: Step, opportunistic: bool) -> bool:
        if not (self.software_fallback and self.cpu_workers):
            return False
        request = self.cpu_workers[0].request_for_transcode(step.vcu_task)
        worker = self.cpu_scheduler.place(request)
        if worker is None:
            return False  # wait for software-fallback capacity
        self.stats.software_fallbacks += 1
        if opportunistic:
            self.stats.opportunistic_fallbacks += 1
        hub = obs.active()
        if hub is not None:
            attrs: Dict[str, object] = {
                "worker": worker.name, "attempt": step.attempts + 1,
            }
            if opportunistic:
                attrs["opportunistic"] = True
            hub.emit("fallback", step.step_id, t0=self.sim.now, attrs=attrs)
        self._start_cpu_transcode(step, worker, request)
        return True

    def _place_cpu(self, step: Step) -> bool:
        if not self.cpu_workers:
            # Clusters simulated without CPU machines: treat CPU steps as
            # instantaneous bookkeeping so transcode studies stay focused.
            self.sim.call_in(0.0, lambda: self._complete(step, corrupt=False))
            return True
        request = self.cpu_workers[0].request_for_cpu_step(step.cpu_core_seconds)
        worker = self.cpu_scheduler.place(request)
        if worker is None:
            return False
        duration = worker.cpu_step_seconds(step.cpu_core_seconds, request)
        started = self.sim.now

        def run():
            yield duration
            self.cpu_scheduler.release(worker, request)
            self._emit_step(step, worker.name, "cpu", started, "ok")
            self._complete(step, corrupt=False)
            self._drain_pending()

        self.sim.process(run(), name=f"cpu:{step.step_id}")
        return True

    # ------------------------------------------------------------------ #
    # Execution

    def _start_vcu_step(
        self, step: Step, worker: VcuWorker, request: Mapping[str, float], excluded: Set[str]
    ) -> None:
        step.attempts += 1
        step.processed_by = worker.vcu.vcu_id
        duration = worker.step_seconds(step.vcu_task, request)
        started = self.sim.now
        self._record_queue_wait(step)
        self.telemetry.note_admit(worker)

        def run() -> Generator:
            # One process per attempt.  The watchdog timer only fires
            # ``guard``: a healthy step cancels it, a wedged one waits on
            # it.  The deadline is never shorter than the step and the
            # timer is queued first, so on an exact tie it fires into an
            # unwatched guard and completion wins.
            guard = timer = None
            if self.watchdog is not None:
                guard = self.sim.event()
                timer = self.sim.call_in(
                    self.watchdog.deadline_for(duration), guard.succeed
                )
            yield duration
            hung = worker.vcu.hung
            if hung:
                # The device wedged while this step was in flight: it will
                # never complete on its own.  Only the watchdog deadline
                # gets this work back; without a watchdog it waits forever.
                yield guard if guard is not None else self.sim.event()
            elif timer is not None:
                timer.cancel()
            self.vcu_scheduler.release(worker, request)
            self.telemetry.note_release(worker)
            if hung:
                self._on_watchdog_expired(step, worker, excluded, started)
            else:
                self._finish_vcu_step(step, worker, excluded, started)
            self._drain_pending()

        self.sim.process(run(), name=f"vcu:{step.step_id}")

    def _record_queue_wait(self, step: Step) -> None:
        """Per-rung slot wait for segment steps (latency scorecard).

        Gated on the dispatcher having installed :attr:`ladder_metrics`,
        so legacy throughput runs -- including the golden obs drill --
        are byte-for-byte unaffected.
        """
        if self.ladder_metrics is None or step.rung is None:
            return
        self.ladder_metrics.histogram(
            f"ladder.queue_wait.{step.rung}", QUEUE_WAIT_BOUNDS
        ).observe(self.sim.now - step.ready_at)

    def _emit_step(
        self, step: Step, worker_name: str, pool: str, started: float, outcome: str
    ) -> None:
        """One ``step`` span per execution attempt, plus the step-seconds
        histogram -- the per-pool busy time the report renders."""
        hub = obs.active()
        if hub is None:
            return
        now = self.sim.now
        hub.emit(
            "step", step.step_id, t0=started, t1=now,
            attrs={
                "worker": worker_name, "pool": pool,
                "attempt": step.attempts, "outcome": outcome,
                "video": step.video_id,
            },
        )
        hub.observe(f"cluster.step_seconds.{pool}", now - started)

    def _finish_vcu_step(
        self, step: Step, worker: VcuWorker, excluded: Set[str], started: float
    ) -> None:
        if worker.vcu.corrupt:
            caught = self._rng.random() < self.integrity_check_rate
            if caught:
                # Abort everything on this VCU and retry elsewhere
                # (Section 4.4's black-holing mitigation).  The abort is a
                # device reset, so it lands in telemetry too.
                self.stats.corrupt_caught += 1
                self._emit_step(step, worker.name, "vcu", started, "corrupt_caught")
                worker.vcu.telemetry.record(FaultKind.RESET, at_time=self.sim.now)
                if worker.abort_and_quarantine():
                    self._note_quarantine(worker)
                self._record_domain_fault(worker)
                self._retry_with_backoff(step, excluded | {worker.name})
                return
            step.corrupt_output = True
            self.stats.corrupt_escaped += 1
        self._emit_step(
            step, worker.name, "vcu", started,
            "corrupt_escaped" if step.corrupt_output else "ok",
        )
        self._complete(step, corrupt=step.corrupt_output)

    def _on_watchdog_expired(
        self, step: Step, worker: VcuWorker, excluded: Set[str], started: float
    ) -> None:
        self.stats.hangs_detected += 1
        hub = obs.active()
        if hub is not None:
            hub.emit(
                "hang", step.step_id, t0=self.sim.now,
                attrs={"worker": worker.name, "attempt": step.attempts},
            )
        self._emit_step(step, worker.name, "vcu", started, "hang")
        worker.vcu.telemetry.record(FaultKind.HANG, at_time=self.sim.now)
        if worker.record_strike():
            self._note_quarantine(worker)
        self._record_domain_fault(worker)
        self._retry_with_backoff(step, excluded | {worker.name})

    def _retry_with_backoff(self, step: Step, excluded: Set[str]) -> None:
        self.stats.retries += 1
        delay = 0.0
        if self.backoff is not None:
            delay = self.backoff.delay_for(step.attempts, self._rng)
            self.stats.backoff_delay_seconds += delay
        hub = obs.active()
        if hub is not None:
            hub.observe("cluster.backoff_seconds", delay)
            hub.emit(
                "retry", step.step_id, t0=self.sim.now,
                attrs={"attempt": step.attempts, "delay": delay},
            )
        if self.backoff is None:
            self._enqueue(step, excluded)
            return
        self.sim.call_in(delay, lambda: self._enqueue(step, excluded))

    def _start_cpu_transcode(
        self, step: Step, worker: CpuWorker, request: Mapping[str, float]
    ) -> None:
        step.attempts += 1
        step.processed_by = worker.name
        duration = worker.transcode_seconds(step.vcu_task, request)
        started = self.sim.now
        self._record_queue_wait(step)

        def run():
            yield duration
            self.cpu_scheduler.release(worker, request)
            self._emit_step(step, worker.name, "sw", started, "ok")
            self._complete(step, corrupt=False)
            self._drain_pending()

        self.sim.process(run(), name=f"sw:{step.step_id}")

    # ------------------------------------------------------------------ #
    # Resilience: quarantine, rehabilitation, fault domains

    def _note_quarantine(self, worker: VcuWorker) -> None:
        self.stats.workers_quarantined += 1
        self._spawn_rehab(worker)

    def _spawn_rehab(self, worker: VcuWorker) -> None:
        """Start the rehabilitation loop for a quarantined worker.

        QUARANTINED -> (wait) -> RESCREENING -> HEALTHY on a passed golden
        battery, or back to QUARANTINED with exponential backoff between
        attempts, until the failure budget DISABLEs the worker.  A repair
        that lands mid-loop resets the state machine; the loop simply
        rescreens again and the repaired device passes.
        """
        if worker.name in self._rehabbing:
            return
        self._rehabbing.add(worker.name)
        policy = worker.health_policy

        def rehab() -> Generator:
            try:
                delay = policy.rescreen_delay_seconds
                while True:
                    yield delay
                    if worker.health in (HealthState.HEALTHY, HealthState.DISABLED):
                        return
                    if worker.health is not HealthState.QUARANTINED:
                        continue
                    worker.begin_rescreen()
                    yield policy.screen_seconds
                    if worker.health is not HealthState.RESCREENING:
                        # A repair reset the machine mid-battery; screen
                        # again from scratch.
                        continue
                    if worker.finish_rescreen():
                        self.stats.workers_rehabilitated += 1
                        self._drain_pending()
                        return
                    worker.vcu.telemetry.record(
                        FaultKind.GOLDEN_FAIL, at_time=self.sim.now
                    )
                    if worker.health is HealthState.DISABLED:
                        self.stats.workers_disabled += 1
                        return
                    delay *= policy.rescreen_backoff
            finally:
                self._rehabbing.discard(worker.name)

        self.sim.process(rehab(), name=f"rehab:{worker.name}")

    def _record_domain_fault(self, worker: VcuWorker) -> None:
        if self._fault_domains is None or worker.host is None:
            return
        if self._fault_domains.record(
            worker.host.host_id, worker.vcu.vcu_id, self.sim.now
        ):
            self._evict_host(worker.host)

    def _evict_host(self, host: VcuHost) -> None:
        """Correlated failures condemn the shared fault domain: pull the
        whole host from placement, not just the VCU that happened to fail
        last.  The host re-enters service through the repair flow."""
        if host.unusable:
            return
        host.unusable = True
        self._sync_host_availability(host)
        self.stats.host_evictions += 1
        hub = obs.active()
        if hub is not None:
            hub.emit("host", "evict", t0=self.sim.now, attrs={"host": host.host_id})

    def on_host_repaired(self, host: VcuHost) -> None:
        """A repair finished: golden re-screen every worker it touched."""
        for worker in self._workers_by_host.get(host.host_id, ()):
            if worker.host is host and worker.reset_after_repair():
                self._spawn_rehab(worker)
        self._sync_host_availability(host)
        self._drain_pending()

    def on_host_drained(self, host: VcuHost) -> None:
        """A repair started: the host is out of service while the
        technician works (the failure sweeper notifies us so the
        availability mask stays exact)."""
        self._sync_host_availability(host)

    def on_vcus_disabled(self, vcu_ids: Iterable[str]) -> None:
        """A telemetry sweep disabled devices outside the health-state
        machine.  The same sweep may have pushed their hosts past the
        fault budget -- ``unusable`` with no drain to follow while the
        repair queue is full -- so re-sync every worker on each host
        that owns a newly disabled device."""
        hosts: Dict[str, VcuHost] = {}
        for vcu_id in vcu_ids:
            worker = self._worker_by_vcu.get(vcu_id)
            if worker is not None:
                self.note_availability_changed(worker)
                if worker.host is not None:
                    hosts[worker.host.host_id] = worker.host
        for host in hosts.values():
            self._sync_host_availability(host)

    def note_availability_changed(self, worker: VcuWorker) -> None:
        """Re-read one worker's availability into the mask and count.

        Called automatically from the worker health choke point, host
        eviction/repair flows, and the failure sweeper; anything else
        that mutates worker/host serving state directly must call it
        too, or the count drifts.
        """
        index = self._worker_index[worker.name]
        mask = self._avail_mask
        now_available = worker.available()
        if now_available != bool(mask[index]):
            mask[index] = now_available
            self._available_count += 1 if now_available else -1
            self.telemetry.live.mark_stale()

    def _sync_host_availability(self, host: VcuHost) -> None:
        for vcu in host.vcus:
            worker = self._worker_by_vcu.get(vcu.vcu_id)
            if worker is not None:
                self.note_availability_changed(worker)

    def availability_mask(self) -> np.ndarray:
        """Availability per vcu worker, in fleet order."""
        return self._avail_mask

    # ------------------------------------------------------------------ #
    # Completion

    def _complete(self, step: Step, corrupt: bool) -> None:
        key = id(step)
        # The step is alive, so no other step has its id: a missing entry
        # means this step's bookkeeping already ended.
        graph = self._graph_of.pop(key, None)
        if graph is None:
            raise RuntimeError(f"step {step.step_id} completed twice")
        del self._remaining_deps[key]
        self.stats.completed_steps += 1
        if step.is_transcode() and not corrupt:
            megapixels = step.vcu_task.output_pixels / 1e6
            self.stats.throughput.record(megapixels)
            if step.processed_by:
                per_vcu = self.stats.per_vcu_megapixels
                per_vcu[step.processed_by] = per_vcu.get(step.processed_by, 0.0) + megapixels
        on_step_done = self.on_step_done
        if on_step_done is not None:
            on_step_done(step)
        for dependent in self._dependents.pop(key, ()):
            self._remaining_deps[id(dependent)] -= 1
            if self._remaining_deps[id(dependent)] == 0:
                self._enqueue(dependent, set())
        self._check_graph_done(graph)

    def _check_graph_done(self, graph: StepGraph) -> None:
        remaining = self._graph_remaining[id(graph)] - 1
        if remaining:
            self._graph_remaining[id(graph)] = remaining
            return
        del self._graph_remaining[id(graph)]
        graph.completed_at = self.sim.now
        self.stats.completed_graphs += 1
        latency = graph.completed_at - graph.submitted_at
        self.stats.graph_latencies.append(latency)
        hub = obs.active()
        if hub is not None:
            self.telemetry.note_graph_latency(latency)
            hub.emit(
                "graph", graph.video_id,
                t0=graph.submitted_at, t1=graph.completed_at,
                attrs={"steps": len(graph.steps)},
            )
        on_graph_done = self.on_graph_done
        if on_graph_done is not None:
            on_graph_done(graph)

    # ------------------------------------------------------------------ #
    # Metrics

    def flush_telemetry(self) -> None:
        """Record the live fleet's mean utilization now."""
        self.telemetry.flush()

    def healthy_vcu_count(self) -> int:
        return self._available_count
