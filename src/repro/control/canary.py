"""Firmware canary rollout: stage, measure, roll back (Section 5).

The paper's deployment discipline for the fleet's most dangerous
artifact: a candidate firmware build lands on a *canary slice* of hosts
while the rest of the fleet stays on the launch build, both slices
serve identical upload demand through the control plane, and after a
soak window the candidate is judged purely from observable scorecards
-- per-VCU throughput and worker-health deltas between the slices.  A
regression rolls the canary back automatically; a clean soak promotes
the build fleet-wide.

The rollout itself is a hand-maintained state machine
(:data:`LEGAL_ROLLOUT_TRANSITIONS`, choke point
:meth:`FirmwareRollout._set_stage`) verified by the ``state-machine``
analyzer pass, exactly like the job lifecycle and worker-health
ladders.  Jobs flow through a :class:`~repro.control.plane.
ControlPlane` backed by a real cluster, so the run also exercises the
worker health machine (hang strikes, quarantine, rescreen) and the job
ledger's conservation invariant end to end.

As with every catalog scenario the run is a pure function of
``(config, seed)``, and :func:`build_scorecard` is the one place its
keys are named: byte-identical scorecards at any ``--jobs``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.cluster.cluster import TranscodeCluster
from repro.cluster.health import HealthState
from repro.cluster.worker import CpuWorker, VcuWorker
from repro.control.jobs import JobRequest, RetryPolicy, SloClass
from repro.control.live_ladder import stable_host
from repro.control.plane import ClusterExecutor, ControlPlane, make_sites
from repro.control.scenario import job_fields
from repro.failures.injector import FaultInjector
from repro.sim.engine import Simulator
from repro.sim.rng import SeedLike, split_rng
from repro.vcu.chip import Vcu
from repro.vcu.firmware import FirmwareVersion, firmware_release
from repro.vcu.host import VcuHost

#: Bump when the scorecard's key set or semantics change.
SCORECARD_VERSION = 1


class RolloutStage(enum.Enum):
    """Where a firmware release stands in its rollout."""

    BASELINE = "baseline"
    CANARY = "canary"
    ROLLED_BACK = "rolled_back"
    PROMOTED = "promoted"


#: The only stage changes a rollout may perform.  ROLLED_BACK and
#: PROMOTED are terminal: a respun build is a *new* rollout.
LEGAL_ROLLOUT_TRANSITIONS: Dict[RolloutStage, Tuple[RolloutStage, ...]] = {
    RolloutStage.BASELINE: (RolloutStage.CANARY,),
    RolloutStage.CANARY: (RolloutStage.ROLLED_BACK, RolloutStage.PROMOTED),
    RolloutStage.ROLLED_BACK: (),
    RolloutStage.PROMOTED: (),
}


class IllegalRolloutTransition(RuntimeError):
    """A stage change outside :data:`LEGAL_ROLLOUT_TRANSITIONS`."""


class FirmwareRollout:
    """One candidate release's journey through the canary pipeline."""

    def __init__(self, candidate: FirmwareVersion) -> None:
        self.candidate = candidate
        self.stage = RolloutStage.BASELINE
        #: (sim time, new stage label, reason) per transition.
        self.log: List[Tuple[float, str, str]] = []

    def _set_stage(self, new: RolloutStage, at: float, reason: str) -> None:
        """The single choke point for stage transitions.

        Same-state sets no-op; anything outside the declared table
        raises -- the invariant the ``state-machine`` analyzer pass
        proves statically for every call site.
        """
        if new is self.stage:
            return
        if new not in LEGAL_ROLLOUT_TRANSITIONS[self.stage]:
            raise IllegalRolloutTransition(
                f"{self.candidate.version}: rollout {self.stage.value} -> "
                f"{new.value} is not in LEGAL_ROLLOUT_TRANSITIONS"
            )
        self.stage = new
        self.log.append((at, new.value, reason))

    def stage_canary(self, at: float) -> None:
        """Land the candidate on the canary slice."""
        if self.stage is not RolloutStage.BASELINE:
            raise IllegalRolloutTransition(
                f"cannot stage {self.candidate.version} from {self.stage.value}"
            )
        self._set_stage(RolloutStage.CANARY, at, "staged on canary slice")

    def roll_back(self, at: float, reason: str) -> None:
        """Regression detected: restore the launch build on the canary."""
        if self.stage is not RolloutStage.CANARY:
            raise IllegalRolloutTransition(
                f"cannot roll back {self.candidate.version} from {self.stage.value}"
            )
        self._set_stage(RolloutStage.ROLLED_BACK, at, reason)

    def promote(self, at: float, reason: str) -> None:
        """Clean soak: the candidate goes fleet-wide."""
        if self.stage is not RolloutStage.CANARY:
            raise IllegalRolloutTransition(
                f"cannot promote {self.candidate.version} from {self.stage.value}"
            )
        self._set_stage(RolloutStage.PROMOTED, at, reason)


_SLICES = ("baseline", "canary")


@dataclass(frozen=True)
class CanaryConfig:
    """One canary rollout run, fully specified."""

    #: Version name of the candidate build (see vcu.firmware releases).
    candidate: str = "fw-1.1.0-rc1"
    #: Arrivals stop at the horizon; the backlog drains past it.
    horizon_seconds: float = 600.0
    canary_hosts: int = 1
    baseline_hosts: int = 3
    vcus_per_host: int = 1
    cpu_workers: int = 2
    #: Concurrent jobs the control-plane site admits.
    site_slots: int = 256
    #: The candidate lands at ``stage_frac`` and is judged at
    #: ``evaluate_frac`` of the horizon; the window between them is the
    #: soak the slice deltas are measured over.
    stage_frac: float = 0.25
    evaluate_frac: float = 0.75
    #: Fixed-interval upload demand heavy enough to *saturate* the
    #: fleet: the scheduler is first-fit, so only a continuously busy
    #: fleet makes per-slice throughput comparable (an under-loaded one
    #: concentrates all work on whichever workers sort first).
    job_interval_seconds: float = 0.08
    service_seconds: float = 4.0
    #: Rollback criteria: canary per-VCU throughput more than this
    #: fraction below baseline, or the unhealthy-worker fraction more
    #: than this far above baseline, is a regression.
    max_throughput_regression: float = 0.12
    max_unhealthy_delta: float = 0.2

    def __post_init__(self) -> None:
        firmware_release(self.candidate)  # validate the name early
        if self.horizon_seconds <= 0:
            raise ValueError("horizon_seconds must be positive")
        if not 0.0 < self.stage_frac < self.evaluate_frac <= 1.0:
            raise ValueError("need 0 < stage_frac < evaluate_frac <= 1")
        if self.canary_hosts <= 0 or self.baseline_hosts <= 0:
            raise ValueError("both slices need at least one host")
        if self.vcus_per_host <= 0:
            raise ValueError("vcus_per_host must be positive")
        if self.job_interval_seconds <= 0 or self.service_seconds <= 0:
            raise ValueError("demand intervals must be positive")
        if self.max_throughput_regression <= 0 or self.max_unhealthy_delta <= 0:
            raise ValueError("regression thresholds must be positive")

    @property
    def release(self) -> FirmwareVersion:
        return firmware_release(self.candidate)


@dataclass
class CanaryResult:
    """Everything a caller might inspect after the rollout drains."""

    config: CanaryConfig
    plane: ControlPlane
    cluster: TranscodeCluster
    rollout: FirmwareRollout
    requests: List[JobRequest]
    end_time: float
    scorecard: Dict[str, Any]


def _slice_fleet(
    tag: str, host_count: int, vcus_per_host: int
) -> Tuple[List[VcuHost], List[VcuWorker]]:
    hosts = [stable_host(f"{tag}-h{i}", vcus_per_host) for i in range(host_count)]
    workers = [
        VcuWorker(vcu, host=host, golden_screening=False)
        for host in hosts
        for vcu in host.vcus
    ]
    return hosts, workers


def _demand(config: CanaryConfig) -> List[JobRequest]:
    """Fixed-interval upload jobs across the horizon."""
    requests: List[JobRequest] = []
    index = 0
    while True:
        arrival = index * config.job_interval_seconds
        if arrival >= config.horizon_seconds:
            return requests
        index += 1
        requests.append(JobRequest(
            job_id=f"canary-{index:05d}",
            slo_class=SloClass.UPLOAD,
            origin=(0.0, 0.0),
            arrival_time=arrival,
            service_seconds=config.service_seconds,
            megapixels=config.service_seconds * 50.0,
        ))


def _schedule_window_faults(
    injector: FaultInjector,
    vcus: List[Vcu],
    release: FirmwareVersion,
    window_start: float,
    window_end: float,
    seed: SeedLike,
) -> None:
    """Pre-schedule the candidate's fault pressure over the soak window.

    The injector draws all arrival times at call time, so the window is
    laid out here (with absolute times) rather than when the build
    lands -- determinism survives any staging-time refactor.
    """
    rng = split_rng(seed, "canary/faults")
    for rate, inject in (
        (release.hang_rate_per_hour,
         lambda at, vcu: injector.hang_at(
             at, vcu, duration=release.hang_duration_seconds)),
        (release.corruption_rate_per_hour, injector.corrupt_at),
    ):
        if rate <= 0:
            continue
        mean_gap = 3600.0 / rate
        for vcu in vcus:
            t = window_start + float(rng.exponential(mean_gap))
            while t < window_end:
                inject(t, vcu)
                t += float(rng.exponential(mean_gap))


def build_scorecard(
    plane: ControlPlane,
    cluster: TranscodeCluster,
    rollout: FirmwareRollout,
    verdict: Dict[str, Any],
) -> Dict[str, Any]:
    """The flat rollout scorecard, keys sorted, values rounded."""
    card: Dict[str, Any] = {"schema_version": SCORECARD_VERSION}
    card.update(job_fields(plane, classes=()))
    card["rollout.candidate"] = rollout.candidate.version
    card["rollout.stage"] = rollout.stage.value
    card["rollout.regression_detected"] = bool(verdict["regression"])
    card["rollout.rolled_back"] = rollout.stage is RolloutStage.ROLLED_BACK
    card["rollout.promoted"] = rollout.stage is RolloutStage.PROMOTED
    card["delta.throughput_frac"] = round(float(verdict["throughput_frac"]), 6)
    card["delta.unhealthy_frac"] = round(float(verdict["unhealthy_delta"]), 6)
    for name in _SLICES:
        card[f"slice.{name}.vcus"] = verdict[f"{name}_vcus"]
        card[f"slice.{name}.mpix_per_vcu_s"] = round(
            float(verdict[f"{name}_rate"]), 9
        )
        card[f"slice.{name}.unhealthy_frac"] = round(
            float(verdict[f"{name}_unhealthy"]), 6
        )
    stats = cluster.stats
    card["cluster.completed_graphs"] = stats.completed_graphs
    card["cluster.retries"] = stats.retries
    card["cluster.hangs"] = stats.hangs_detected
    card["cluster.corrupt_caught"] = stats.corrupt_caught
    card["cluster.workers_quarantined"] = stats.workers_quarantined
    card["cluster.workers_rehabilitated"] = stats.workers_rehabilitated
    card["cluster.software_fallbacks"] = stats.software_fallbacks
    card["conservation.ok"] = bool(
        plane.ledger.conservation_report()["ok"]
        and stats.completed_graphs == card["jobs.done"]
    )
    return dict(sorted(card.items()))


def run_canary_rollout(
    config: CanaryConfig, seed: SeedLike = 0
) -> CanaryResult:
    """Simulate one canary rollout end to end and score it.

    Arrivals stop at the horizon but the simulation runs until the
    event queue drains, so the conservation verdict is checkable at
    return regardless of the rollout's outcome.
    """
    sim = Simulator()
    release = config.release
    canary_hosts, canary_workers = _slice_fleet(
        "cny", config.canary_hosts, config.vcus_per_host
    )
    baseline_hosts, baseline_workers = _slice_fleet(
        "base", config.baseline_hosts, config.vcus_per_host
    )
    workers = canary_workers + baseline_workers
    cpus = [
        CpuWorker(cores=16, name=f"cny-cpu{i}")
        for i in range(config.cpu_workers)
    ]
    cluster = TranscodeCluster(
        sim, workers, cpus, seed=split_rng(seed, "canary/cluster"),
    )
    plane = ControlPlane(
        sim,
        make_sites((("canary-core", "core", (0.0, 0.0), config.site_slots),)),
        retry=RetryPolicy(),
        executor=ClusterExecutor(cluster),
        seed=seed,
    )
    requests = _demand(config)
    for request in requests:
        sim.call_at(
            request.arrival_time,
            lambda r=request: plane.submit(r),
        )

    canary_ids = [vcu.vcu_id for host in canary_hosts for vcu in host.vcus]
    baseline_ids = [vcu.vcu_id for host in baseline_hosts for vcu in host.vcus]
    t_stage = config.stage_frac * config.horizon_seconds
    t_eval = config.evaluate_frac * config.horizon_seconds

    injector = FaultInjector(
        sim,
        [vcu for host in canary_hosts for vcu in host.vcus],
        seed=split_rng(seed, "canary/injector"),
    )
    _schedule_window_faults(
        injector, injector.vcus, release, t_stage, t_eval, seed
    )

    rollout = FirmwareRollout(release)
    base_overheads = {w.name: w.step_overhead_seconds for w in workers}

    def slice_megapixels(ids: List[str]) -> float:
        per_vcu = cluster.stats.per_vcu_megapixels
        return sum(per_vcu.get(vcu_id, 0.0) for vcu_id in ids)

    def unhealthy_frac(slice_workers: List[VcuWorker]) -> float:
        unhealthy = sum(
            1 for w in slice_workers if w.health is not HealthState.HEALTHY
        )
        return unhealthy / len(slice_workers)

    window_start: Dict[str, float] = {}
    verdict: Dict[str, Any] = {}

    def stage() -> None:
        rollout.stage_canary(sim.now)
        for worker in canary_workers:
            worker.step_overhead_seconds = (
                base_overheads[worker.name] * release.step_overhead_multiplier
            )
        window_start["canary"] = slice_megapixels(canary_ids)
        window_start["baseline"] = slice_megapixels(baseline_ids)

    def evaluate() -> None:
        window = t_eval - t_stage
        canary_rate = (
            (slice_megapixels(canary_ids) - window_start["canary"])
            / (len(canary_ids) * window)
        )
        baseline_rate = (
            (slice_megapixels(baseline_ids) - window_start["baseline"])
            / (len(baseline_ids) * window)
        )
        throughput_frac = (
            (baseline_rate - canary_rate) / baseline_rate
            if baseline_rate > 0 else 0.0
        )
        unhealthy_delta = (
            unhealthy_frac(canary_workers) - unhealthy_frac(baseline_workers)
        )
        regression = (
            throughput_frac > config.max_throughput_regression
            or unhealthy_delta > config.max_unhealthy_delta
        )
        verdict.update(
            regression=regression,
            throughput_frac=throughput_frac,
            unhealthy_delta=unhealthy_delta,
            canary_vcus=len(canary_ids),
            baseline_vcus=len(baseline_ids),
            canary_rate=canary_rate,
            baseline_rate=baseline_rate,
            canary_unhealthy=unhealthy_frac(canary_workers),
            baseline_unhealthy=unhealthy_frac(baseline_workers),
        )
        if regression:
            for worker in canary_workers:
                worker.step_overhead_seconds = base_overheads[worker.name]
            rollout.roll_back(
                sim.now,
                f"throughput -{throughput_frac:.3f}, "
                f"unhealthy +{unhealthy_delta:.3f}",
            )
        else:
            for worker in baseline_workers:
                worker.step_overhead_seconds = (
                    base_overheads[worker.name]
                    * release.step_overhead_multiplier
                )
            rollout.promote(sim.now, "clean soak window")

    sim.call_at(t_stage, stage)
    sim.call_at(t_eval, evaluate)
    sim.run()
    return CanaryResult(
        config=config,
        plane=plane,
        cluster=cluster,
        rollout=rollout,
        requests=requests,
        end_time=sim.now,
        scorecard=build_scorecard(plane, cluster, rollout, verdict),
    )
