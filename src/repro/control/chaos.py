"""Correlated-outage chaos campaign at fleet scale (Section 5).

The failure mode the paper's serving stack is engineered around is not
the lone flaky card -- it is the *correlated* event: a bad PCIe riser
batch, a rack power event, an uncorrectable-ECC storm that takes whole
hosts out at once while the repair pipeline can only drain and re-card
a bounded number of them concurrently.  This campaign sweeps blast
radius (hosts hit by a simultaneous ECC storm) against repair capacity
(the :class:`~repro.failures.management.FailureManager` concurrency
cap) on a cluster driven by the bucketed calendar engine, with a
regional power outage layered mid-run for good measure.

Two invariants are scored per arm and gated in CI:

* **conservation** -- every submitted job completes despite disables,
  drains, and repairs (retries and CPU fallback absorb the blast);
* **availability bookkeeping** -- the cluster's incremental healthy-VCU
  counter exactly matches a full recount at drain.

As with every catalog scenario the run is a pure function of
``(config, seed)``, and :func:`build_scorecard` is the one place its
keys are named: byte-identical scorecards at any ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.cluster.cluster import TranscodeCluster
from repro.cluster.worker import CpuWorker, VcuWorker
from repro.control.live_ladder import stable_host
from repro.failures.injector import FaultInjector
from repro.failures.management import FailureManager, FailureSweeper
from repro.sim.engine import Simulator
from repro.sim.rng import SeedLike, split_rng
from repro.transcode.modes import WorkloadClass
from repro.transcode.pipeline import build_transcode_graph
from repro.vcu.telemetry import FaultKind
from repro.video.frame import resolution

#: Bump when the scorecard's key set or semantics change.
SCORECARD_VERSION = 1


@dataclass(frozen=True)
class ChaosCampaignConfig:
    """One (blast radius, repair capacity) arm, fully specified."""

    #: Arrivals stop at the horizon; the backlog drains past it.
    horizon_seconds: float = 900.0
    hosts: int = 8
    vcus_per_host: int = 2
    cpu_workers: int = 2
    #: Hosts hit by the simultaneous uncorrectable-ECC storm.
    blast_hosts: int = 2
    #: FailureManager concurrency cap on in-flight host repairs.
    repair_cap: int = 2
    #: Disabled-VCU count that queues a host for card-swap repair.
    card_swap_threshold: int = 2
    blast_at_frac: float = 0.25
    #: Uncorrectable-ECC faults per VCU in the storm; at or above the
    #: telemetry disable threshold so the next sweep disables the card.
    blast_faults_per_vcu: int = 3
    blast_stagger_seconds: float = 2.0
    #: A regional power event on the tail hosts, layered mid-run.
    outage_hosts: int = 2
    outage_start_frac: float = 0.55
    outage_duration_frac: float = 0.10
    outage_stagger_seconds: float = 3.0
    #: A transient hang storm on the fleet's first host -- the one the
    #: first-fit scheduler keeps busiest -- shortly *before* the blast,
    #: so the watchdog/retry path is exercised against in-flight work in
    #: every arm regardless of blast/repair timing.
    storm_at_frac: float = 0.15
    storm_duration_seconds: float = 30.0
    storm_stagger_seconds: float = 1.0
    sweep_interval_seconds: float = 30.0
    repair_seconds: float = 120.0
    #: Fixed-interval upload demand (small clips) across the horizon,
    #: heavy enough that the blasted hosts carry in-flight work.
    job_interval_seconds: float = 0.2
    frames_per_job: int = 90
    source: str = "480p"

    def __post_init__(self) -> None:
        if self.horizon_seconds <= 0:
            raise ValueError("horizon_seconds must be positive")
        if self.hosts <= 0 or self.vcus_per_host <= 0:
            raise ValueError("fleet dimensions must be positive")
        if not 0 < self.blast_hosts < self.hosts:
            raise ValueError("blast_hosts must be in 1..hosts-1")
        if self.blast_hosts + self.outage_hosts >= self.hosts:
            raise ValueError(
                "blast, storm, and outage host sets must not overlap"
            )
        if not 0.0 < self.storm_at_frac < 1.0:
            raise ValueError("storm_at_frac must be in (0, 1)")
        if self.repair_cap <= 0:
            raise ValueError("repair_cap must be positive")
        if not 0.0 < self.blast_at_frac < 1.0:
            raise ValueError("blast_at_frac must be in (0, 1)")
        if not 0.0 < self.outage_start_frac < 1.0:
            raise ValueError("outage_start_frac must be in (0, 1)")
        if self.job_interval_seconds <= 0 or self.frames_per_job <= 0:
            raise ValueError("demand parameters must be positive")


@dataclass
class ChaosResult:
    """Everything a caller might inspect after the campaign drains."""

    config: ChaosCampaignConfig
    cluster: TranscodeCluster
    manager: FailureManager
    sweeper: FailureSweeper
    submitted: int
    end_time: float
    scorecard: Dict[str, Any]


def build_scorecard(
    config: ChaosCampaignConfig,
    cluster: TranscodeCluster,
    manager: FailureManager,
    sweeper: FailureSweeper,
    workers: List[VcuWorker],
    submitted: int,
) -> Dict[str, Any]:
    """The flat campaign scorecard, keys sorted."""
    stats = cluster.stats
    available = sum(1 for worker in workers if worker.available())
    card: Dict[str, Any] = {
        "schema_version": SCORECARD_VERSION,
        "campaign.blast_hosts": config.blast_hosts,
        "campaign.repair_cap": config.repair_cap,
        "jobs.submitted": submitted,
        "jobs.completed": stats.completed_graphs,
        "steps.completed": stats.completed_steps,
        "cluster.retries": stats.retries,
        "cluster.hangs": stats.hangs_detected,
        "cluster.corrupt_caught": stats.corrupt_caught,
        "cluster.software_fallbacks": stats.software_fallbacks,
        "cluster.workers_quarantined": stats.workers_quarantined,
        "cluster.workers_rehabilitated": stats.workers_rehabilitated,
        "cluster.host_evictions": stats.host_evictions,
        "fleet.vcus": len(workers),
        "fleet.available_end": available,
        "fleet.disabled_by_sweeps": len(manager.disabled_vcus),
        "sweeper.sweeps": sweeper.sweeps,
        "sweeper.repairs_started": sweeper.repairs_started,
        "sweeper.repairs_completed": sweeper.repairs_completed,
        "repair.hosts_repaired": len(manager.repair_queue.repaired),
        "availability.exact": bool(cluster.healthy_vcu_count() == available),
        "conservation.ok": bool(submitted == stats.completed_graphs),
    }
    return dict(sorted(card.items()))


def run_chaos_campaign(
    config: ChaosCampaignConfig, seed: SeedLike = 0
) -> ChaosResult:
    """Simulate one campaign arm end to end and score it.

    Arrivals stop at the horizon but the simulation runs until the
    event queue drains (in-flight repairs included), so the verdicts
    describe a settled fleet.
    """
    sim = Simulator()
    hosts = [
        stable_host(f"chaos-h{i:02d}", config.vcus_per_host)
        for i in range(config.hosts)
    ]
    workers = [
        VcuWorker(vcu, host=host, golden_screening=False)
        for host in hosts
        for vcu in host.vcus
    ]
    cpus = [
        CpuWorker(cores=16, name=f"chaos-cpu{i}")
        for i in range(config.cpu_workers)
    ]
    cluster = TranscodeCluster(
        sim, workers, cpus,
        seed=split_rng(seed, "chaos/cluster"),
    )
    injector = FaultInjector(
        sim,
        [vcu for host in hosts for vcu in host.vcus],
        seed=split_rng(seed, "chaos/faults"),
    )
    t_blast = config.blast_at_frac * config.horizon_seconds
    for index, host in enumerate(hosts[: config.blast_hosts]):
        injector.correlated_host_fault(
            t_blast + index * config.blast_stagger_seconds,
            host,
            kind=FaultKind.ECC_UNCORRECTABLE,
            count_per_vcu=config.blast_faults_per_vcu,
            stagger_seconds=0.5,
        )
    injector.correlated_hangs(
        config.storm_at_frac * config.horizon_seconds,
        hosts[0].vcus,
        duration=config.storm_duration_seconds,
        stagger_seconds=config.storm_stagger_seconds,
    )
    if config.outage_hosts > 0:
        injector.regional_outage(
            config.outage_start_frac * config.horizon_seconds,
            hosts[-config.outage_hosts:],
            duration=config.outage_duration_frac * config.horizon_seconds,
            stagger_seconds=config.outage_stagger_seconds,
        )
    manager = FailureManager(
        hosts,
        repair_cap=config.repair_cap,
        card_swap_threshold=config.card_swap_threshold,
    )
    sweeper = FailureSweeper(
        sim, manager,
        interval_seconds=config.sweep_interval_seconds,
        repair_seconds=config.repair_seconds,
        cluster=cluster,
    )
    sweeper.start(until=config.horizon_seconds)

    source = resolution(config.source)
    submitted = 0
    index = 0
    while True:
        arrival = index * config.job_interval_seconds
        if arrival >= config.horizon_seconds:
            break
        index += 1
        submitted += 1
        graph = build_transcode_graph(
            video_id=f"chaos-{index:05d}",
            source=source,
            total_frames=config.frames_per_job,
            fps=30.0,
            workload=WorkloadClass.UPLOAD,
        )
        sim.call_at(arrival, lambda g=graph: cluster.submit(g))

    sim.run()
    return ChaosResult(
        config=config,
        cluster=cluster,
        manager=manager,
        sweeper=sweeper,
        submitted=submitted,
        end_time=sim.now,
        scorecard=build_scorecard(
            config, cluster, manager, sweeper, workers, submitted
        ),
    )
