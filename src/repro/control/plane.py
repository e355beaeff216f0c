"""The control plane: the service tying the fleet substrate together.

One :class:`ControlPlane` instance is the robustness layer the paper's
deployment story implies above the per-cluster machinery: it owns the
durable job ledger, runs admission control, routes admitted jobs across
regions, dispatches them onto per-site execution slots, retries failures
with deterministic backoff, dead-letters jobs that exhaust their budget,
sheds class-ordered load after capacity losses, and drains a downed
region's queued and in-flight work to the survivors.

Execution is pluggable: the :class:`ModeledExecutor` serves fleet-scale
scenarios (a slot is an abstract VCU-worker share, service time comes
from the job request), while :class:`ClusterExecutor` drives a real
:class:`~repro.cluster.cluster.TranscodeCluster` so the control plane's
lifecycle sits on genuine step-graph execution in integration tests.

Determinism contract: all randomness flows through one stream split
from the plane's seed; sites are visited in name order everywhere; and
backoff is a pure function of the attempt number -- two same-seed runs
produce byte-identical ledgers and scorecards.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro import obs
from repro.cluster.autoscale import CapacityAutoscaleConfig, CapacityAutoscaler
from repro.cluster.regions import ClusterSite
from repro.control.admission import AdmissionConfig, AdmissionController
from repro.control.failover import FailoverRouter, SiteRuntime
from repro.control.jobs import (
    Job,
    JobRequest,
    JobState,
    RetryPolicy,
    SloClass,
)
from repro.control.queue import ClassQueue, DeadLetterLedger, JobLedger
from repro.obs.registry import Histogram
from repro.sim.engine import Simulator, Timer
from repro.sim.rng import SeedLike, split_rng

if TYPE_CHECKING:  # deferred: only needed for the cluster-backed executor
    from repro.cluster.cluster import TranscodeCluster
    from repro.transcode.pipeline import StepGraph

#: Queue-wait histogram bounds (seconds): sub-second dispatch up to the
#: hours-long waits a day-scale outage can produce.
QUEUE_WAIT_BOUNDS: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0,
    1280.0, 2560.0, 5120.0,
)

#: A completion callback: (job, ok).
DoneFn = Callable[[Job, bool], None]


class Executor(Protocol):
    """What the control plane needs from an execution backend.

    ``start`` returns a cancellable handle when the backend supports
    mid-flight cancellation (the modeled executor) and ``None`` when it
    does not (the cluster-backed executor, whose graphs must drain).
    """

    def start(
        self, job: Job, site: SiteRuntime, on_done: DoneFn
    ) -> Optional[Timer]:
        ...


class ModeledExecutor:
    """Executes jobs as timed slot occupancy with a failure draw.

    The attempt's fate is drawn *at dispatch* (not completion) so that a
    cancelled completion -- a site dying mid-flight -- consumes exactly
    the same RNG stream as an undisturbed run: determinism survives
    outage timing changes.
    """

    def __init__(
        self,
        sim: Simulator,
        seed: SeedLike = 0,
        failure_rate: float = 0.0,
        speed: float = 1.0,
    ) -> None:
        if not 0.0 <= failure_rate < 1.0:
            raise ValueError("failure_rate must be in [0, 1)")
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.sim = sim
        self.failure_rate = failure_rate
        self.speed = speed
        self._rng = split_rng(seed, "control/executor")

    def start(self, job: Job, site: SiteRuntime, on_done: DoneFn) -> Timer:
        ok = True
        if self.failure_rate > 0.0:
            ok = float(self._rng.random()) >= self.failure_rate
        duration = job.request.service_seconds / self.speed
        return self.sim.call_in(duration, lambda: on_done(job, ok))


class ClusterExecutor:
    """Runs control-plane jobs as real step graphs on one cluster.

    Jobs dispatched here cannot be killed mid-flight (there is no
    per-graph cancel), so :meth:`start` returns ``None`` and an outage
    drain lets in-flight cluster jobs finish naturally -- matching how a
    real drain waits out work already on devices.
    """

    def __init__(
        self,
        cluster: "TranscodeCluster",
        graph_builder: Optional[Callable[[Job], "StepGraph"]] = None,
    ) -> None:
        self.cluster = cluster
        self._builder = graph_builder or default_graph_builder
        self._inflight: Dict[int, Tuple[Job, DoneFn]] = {}
        cluster.on_graph_done = self._graph_done

    def start(self, job: Job, site: SiteRuntime, on_done: DoneFn) -> None:
        graph = self._builder(job)
        self._inflight[id(graph)] = (job, on_done)
        self.cluster.submit(graph)
        return None

    def _graph_done(self, graph: "StepGraph") -> None:
        entry = self._inflight.pop(id(graph), None)
        if entry is None:
            return  # a graph submitted outside the control plane
        job, on_done = entry
        on_done(job, True)


def default_graph_builder(job: Job) -> "StepGraph":
    """A small deterministic upload graph sized by the job's demand."""
    from repro.transcode.modes import WorkloadClass
    from repro.transcode.pipeline import build_transcode_graph
    from repro.video.frame import resolution

    # ~1 frame of 480p work per modelled service second, floor of one GOP.
    frames = max(30, int(job.request.service_seconds) * 30)
    return build_transcode_graph(
        video_id=job.job_id,
        source=resolution("480p"),
        total_frames=frames,
        fps=30.0,
        workload=WorkloadClass.UPLOAD,
    )


class ControlPlane:
    """Admission, routing, dispatch, retry, shedding, and failover."""

    def __init__(
        self,
        sim: Simulator,
        sites: Sequence[SiteRuntime],
        admission: Optional[AdmissionConfig] = None,
        retry: Optional[RetryPolicy] = None,
        autoscale: Optional[CapacityAutoscaleConfig] = None,
        autoscale_interval_seconds: float = 60.0,
        executor: Optional[Executor] = None,
        seed: SeedLike = 0,
    ) -> None:
        self.sim = sim
        self.router = FailoverRouter(sites)
        self.admission = AdmissionController(admission)
        self.retry = retry or RetryPolicy()
        self.ledger = JobLedger()
        self.dead_letters = DeadLetterLedger()
        self.executor: Executor = (
            executor if executor is not None else ModeledExecutor(sim, seed=seed)
        )
        self._autoscaler = (
            CapacityAutoscaler(autoscale) if autoscale is not None else None
        )
        self._autoscale_interval = autoscale_interval_seconds
        #: Jobs admitted but unroutable (every site down): held, not lost.
        self.parked = ClassQueue()
        #: job_id -> cancellable completion handle (modeled executor).
        self._handles: Dict[str, Optional[Timer]] = {}
        self.retries = {cls: 0 for cls in SloClass}
        self.queue_wait = {
            cls: Histogram(f"control.queue_wait.{cls.label}", QUEUE_WAIT_BOUNDS)
            for cls in SloClass
        }
        self.drained_queued = 0
        self.drained_running = 0
        self.outages_started = 0
        self.peak_capacity = self.router.total_capacity()

    # ------------------------------------------------------------------ #
    # Accounting helpers

    def _count(self, name: str, amount: float = 1.0) -> None:
        hub = obs.active()
        if hub is not None:
            hub.count(name, amount)

    def _waiting_total(self) -> int:
        return len(self.parked) + sum(
            len(site.queue) for site in self.router.sites if site.up
        )

    def _running_total(self) -> int:
        return sum(len(site.running) for site in self.router.sites)

    def outstanding(self) -> int:
        """Admission's numerator: everything competing for slots now."""
        return self._waiting_total() + self._running_total()

    def load_factor(self) -> float:
        return self.admission.load_factor(
            self.outstanding(), self.router.total_capacity()
        )

    # ------------------------------------------------------------------ #
    # Submission and admission

    def submit(self, request: JobRequest) -> Job:
        """Register one arriving job and push it through admission."""
        job = Job(request)
        self.ledger.register(job)
        self._count(f"control.submitted.{job.slo_class.label}")
        self._try_admit(job, reason="arrival")
        return job

    def _try_admit(self, job: Job, reason: str) -> None:
        """QUEUED -> ADMITTED (routed) | SHED | parked (no capacity)."""
        capacity = self.router.total_capacity()
        if capacity <= 0:
            # Total blackout: hold the job rather than shed it; a region
            # coming back will drain the parking queue.
            self.parked.push(job)
            return
        load = self.admission.load_factor(self.outstanding(), capacity)
        if not self.admission.decide(job, load):
            self._shed(job, reason=f"overload:{reason}")
            return
        site = self.router.choose(job.request.origin)
        if site is None:  # pragma: no cover - capacity>0 implies a site
            self.parked.push(job)
            return
        self.ledger.transition(job, JobState.ADMITTED, self.sim.now, reason)
        job.site = site.name
        site.queue.push(job)
        self._count(f"control.admitted.{job.slo_class.label}")
        self._dispatch(site)

    def _shed(self, job: Job, reason: str) -> None:
        self.ledger.transition(job, JobState.SHED, self.sim.now, reason)
        job.site = None
        self._count(f"control.shed.{job.slo_class.label}")
        hub = obs.active()
        if hub is not None:
            hub.emit(
                "shed", job.job_id, t0=self.sim.now,
                attrs={"class": job.slo_class.label, "reason": reason},
            )

    def _admit_parked(self) -> None:
        """Re-run admission over the parking queue (capacity returned)."""
        while self.router.total_capacity() > 0:
            job = self.parked.pop()
            if job is None:
                return
            self._try_admit(job, reason="unparked")

    # ------------------------------------------------------------------ #
    # Dispatch and completion

    def _dispatch(self, site: SiteRuntime) -> None:
        while site.up and site.headroom() > 0:
            job = site.queue.pop()
            if job is None:
                return
            self.ledger.transition(job, JobState.RUNNING, self.sim.now, "dispatch")
            job.attempts += 1
            site.running[job.job_id] = job
            site.dispatched_total += 1
            self._handles[job.job_id] = self.executor.start(
                job, site, self._on_done
            )

    def _on_done(self, job: Job, ok: bool) -> None:
        self._handles.pop(job.job_id, None)
        site = self.router.site(job.site) if job.site is not None else None
        if site is not None:
            site.running.pop(job.job_id, None)
        if ok:
            self.ledger.transition(job, JobState.DONE, self.sim.now, "complete")
            self.queue_wait[job.slo_class].observe(job.queue_seconds)
            self._count(f"control.done.{job.slo_class.label}")
            hub = obs.active()
            if hub is not None:
                hub.observe(
                    f"control.queue_wait.{job.slo_class.label}",
                    job.queue_seconds, bounds=QUEUE_WAIT_BOUNDS,
                )
        else:
            self._fail_attempt(job, reason="execution_fault")
        if site is not None and site.up:
            self._dispatch(site)
        self._admit_parked()

    def _fail_attempt(self, job: Job, reason: str) -> None:
        """RUNNING -> RETRY_WAIT (backoff) or FAILED (budget spent)."""
        if self.retry.exhausted(job.attempts):
            self.ledger.transition(job, JobState.FAILED, self.sim.now, reason)
            self.dead_letters.record(job, self.sim.now, reason)
            job.site = None
            self._count(f"control.failed.{job.slo_class.label}")
            return
        self.ledger.transition(job, JobState.RETRY_WAIT, self.sim.now, reason)
        job.site = None
        self.retries[job.slo_class] += 1
        self._count(f"control.retries.{job.slo_class.label}")
        delay = self.retry.delay_for(job.attempts)
        self.sim.call_in(delay, lambda: self._retry_requeue(job))

    def _retry_requeue(self, job: Job) -> None:
        self.ledger.transition(job, JobState.QUEUED, self.sim.now, "backoff_done")
        self._try_admit(job, reason="retry")

    # ------------------------------------------------------------------ #
    # Regional outage / failover

    def schedule_outage(
        self, site_name: str, at: float, duration_seconds: float
    ) -> None:
        """Arrange a regional outage: down at ``at``, back after ``duration``."""
        self.router.site(site_name)  # validate early
        if duration_seconds <= 0:
            raise ValueError("outage duration must be positive")
        self.sim.call_at(at, lambda: self.site_down(site_name))
        self.sim.call_at(
            at + duration_seconds, lambda: self.site_up(site_name)
        )

    def site_down(self, site_name: str) -> None:
        """Regional outage: drain the site to survivors, shed the excess."""
        self.outages_started += 1
        queued, running = self.router.mark_down(site_name)
        hub = obs.active()
        if hub is not None:
            hub.count("control.outages")
            hub.emit(
                "outage", site_name, t0=self.sim.now,
                attrs={
                    "queued_drained": len(queued),
                    "running_drained": len(running),
                },
            )
        # In-flight work dies with the region: cancel the modelled
        # completions and send each job through the retry path (the
        # attempt was genuinely consumed).  Cluster-backed jobs have no
        # cancel handle and simply finish on the surviving devices.
        for job in running:
            handle = self._handles.pop(job.job_id, None)
            if handle is None:
                site = self.router.site(site_name)
                site.running[job.job_id] = job  # still genuinely in flight
                continue
            handle.cancel()
            self.drained_running += 1
            self._fail_attempt(job, reason=f"outage:{site_name}")
        # Queued-but-undispatched jobs lose nothing but their place:
        # back to QUEUED, then re-admitted under the survivors' load.
        for job in queued:
            self.drained_queued += 1
            self.ledger.transition(
                job, JobState.QUEUED, self.sim.now, f"drain:{site_name}"
            )
            job.site = None
            self._try_admit(job, reason="failover")
        # The capacity just vanished; shed whatever no longer fits,
        # lowest class first.
        self._overload_sweep(reason=f"outage:{site_name}")

    def site_up(self, site_name: str) -> None:
        site = self.router.mark_up(site_name)
        hub = obs.active()
        if hub is not None:
            hub.count("control.recoveries")
            hub.emit("recovery", site_name, t0=self.sim.now)
        self._note_capacity()
        self._admit_parked()
        self._dispatch(site)

    def _overload_sweep(self, reason: str) -> None:
        queues = [self.parked] + [
            site.queue for site in self.router.sites if site.up
        ]
        shed = self.admission.shed_excess(
            queues, self.outstanding, self.router.total_capacity()
        )
        for job in shed:
            self._shed(job, reason=reason)

    # ------------------------------------------------------------------ #
    # Autoscaling

    def start_autoscaler(self, until: float) -> None:
        """Run periodic capacity ticks up to the ``until`` horizon.

        Horizon-bounded (like :class:`~repro.failures.management.
        FailureSweeper`) so a drained run's event queue actually empties.
        """
        autoscaler = self._autoscaler
        if autoscaler is None:
            raise RuntimeError("plane built without an autoscale config")
        self.sim.process(
            self._autoscale_loop(autoscaler, until), name="control:autoscale"
        )

    def _autoscale_loop(
        self, autoscaler: CapacityAutoscaler, until: float
    ) -> Generator[float, None, None]:
        while self.sim.now + self._autoscale_interval <= until:
            yield self._autoscale_interval
            for site in self.router.sites:  # name-sorted
                if not site.up:
                    continue
                new_slots = autoscaler.evaluate(
                    site.name,
                    waiting=len(site.queue),
                    running=len(site.running),
                    slots=site.slots,
                    min_slots=site.min_slots,
                    max_slots=site.max_slots,
                    at=self.sim.now,
                )
                if new_slots != site.slots:
                    site.slots = new_slots
                    self._count("control.autoscale_actions")
                    self._dispatch(site)
            self._note_capacity()

    @property
    def autoscaler(self) -> Optional[CapacityAutoscaler]:
        return self._autoscaler

    # ------------------------------------------------------------------ #
    # Introspection

    def _note_capacity(self) -> None:
        self.peak_capacity = max(self.peak_capacity, self.router.total_capacity())

    def class_counts(self) -> Dict[str, Dict[str, int]]:
        """Per-class terminal/total accounting straight off the ledger."""
        out: Dict[str, Dict[str, int]] = {}
        for cls in SloClass:
            out[cls.label] = {
                "submitted": 0, "done": 0, "failed": 0, "shed": 0,
                "retries": self.retries[cls],
            }
        for job in self.ledger.jobs.values():
            bucket = out[job.slo_class.label]
            bucket["submitted"] += 1
            if job.state is JobState.DONE:
                bucket["done"] += 1
            elif job.state is JobState.FAILED:
                bucket["failed"] += 1
            elif job.state is JobState.SHED:
                bucket["shed"] += 1
        return out


def make_sites(
    specs: Sequence[Tuple[str, str, Tuple[float, float], int]],
    max_slots_factor: int = 4,
    min_slots: int = 1,
) -> List[SiteRuntime]:
    """Build site runtimes from (name, region, location, slots) tuples."""
    return [
        SiteRuntime(
            site=ClusterSite(name, region, location, capacity=slots),
            slots=slots,
            min_slots=min_slots,
            max_slots=slots * max_slots_factor,
        )
        for name, region, location, slots in specs
    ]
