"""The live-ladder scenario: segment streams under the control plane.

The latency-axis counterpart of :mod:`repro.control.scenario`: instead
of modelled slot occupancy, every dispatched job runs as a *segment
stream* on a real :class:`~repro.cluster.cluster.TranscodeCluster` --
live legs drip source segments in virtual real time, uploads burst
whole files, each segment fans out into per-(codec, rung) VCU tasks,
and manifests advance through alignment barriers.  Optionally, Poisson
device faults run throughout and one region's hosts hang mid-run (the
regional outage), forcing watchdog recovery and opportunistic software
fallback while live deadlines keep ticking.

The output is the **latency SLO scorecard**: time-to-first-segment and
manifest-stall percentiles, per-rung queue waits, deadline-miss rates,
and fallback/retry accounting next to the job-conservation verdict.
As with the platform-day scenario :func:`build_scorecard` is the one
place the card's keys are named (one ``rung.*`` pair per rung of the
live source's ladder), and the whole run is a pure function of
``(config, seed)`` -- byte-identical scorecards at any ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.cluster.cluster import TranscodeCluster
from repro.cluster.worker import CpuWorker, VcuWorker
from repro.control.jobs import JobRequest, RetryPolicy, SloClass
from repro.control.plane import ControlPlane, make_sites
from repro.control.scenario import job_fields
from repro.control.streaming import StreamingExecutor
from repro.failures.injector import FaultInjector
from repro.obs.latency import QUEUE_WAIT_BOUNDS, STALL_BOUNDS, TTFS_BOUNDS
from repro.sim.engine import Simulator
from repro.sim.rng import SeedLike, split_rng
from repro.transcode.streaming import LadderDispatcher
from repro.vcu.host import VcuHost
from repro.vcu.spec import HostSpec
from repro.video.frame import output_ladder, resolution
from repro.workloads.streams import LadderDemandConfig, LadderDemandWorkload

#: Bump when the scorecard's key set or semantics change.
SCORECARD_VERSION = 1

_CLASSES = (SloClass.LIVE, SloClass.UPLOAD)
_PER_CLASS_FIELDS = ("submitted", "done", "shed", "queue_p50", "queue_p99")


@dataclass(frozen=True)
class LiveLadderConfig:
    """One live-ladder run, fully specified."""

    #: Arrivals stop at the horizon; the backlog drains past it.
    horizon_seconds: float = 480.0
    live_rate: float = 0.01
    upload_rate: float = 0.02
    live_duration_seconds: float = 30.0
    upload_duration_mean: float = 16.0
    segment_seconds: float = 2.0
    #: Manifest due this long after each live segment's release.
    live_deadline_seconds: float = 8.0
    codecs: Tuple[str, ...] = ("h264",)
    live_source: str = "1080p"
    upload_source: str = "720p"
    #: Fleet shape: regions x hosts x VCUs (stable ids throughout).
    regions: Tuple[str, ...] = ("east", "west")
    hosts_per_region: int = 2
    vcus_per_host: int = 2
    cpu_workers: int = 3
    #: Concurrent streams the control-plane site admits.
    site_slots: int = 64
    #: Mid-run regional outage (the experiment's treatment arm).
    outage: bool = False
    outage_region: str = "east"
    outage_start_frac: float = 0.40
    outage_duration_frac: float = 0.15
    outage_stagger_seconds: float = 5.0
    #: Poisson device-fault pressure, per VCU-hour (0 = healthy run).
    hang_rate_per_hour: float = 0.0
    corruption_rate_per_hour: float = 0.0

    def __post_init__(self) -> None:
        if self.horizon_seconds <= 0:
            raise ValueError("horizon_seconds must be positive")
        if self.segment_seconds <= 0:
            raise ValueError("segment_seconds must be positive")
        if self.hosts_per_region <= 0 or self.vcus_per_host <= 0:
            raise ValueError("fleet must contain at least one VCU")
        if not 0.0 <= self.outage_start_frac < 1.0:
            raise ValueError("outage_start_frac must be in [0, 1)")
        if self.outage_duration_frac <= 0:
            raise ValueError("outage_duration_frac must be positive")
        if self.outage and self.outage_region not in self.regions:
            raise ValueError(
                f"outage_region {self.outage_region!r} not in {self.regions}"
            )
        if self.hang_rate_per_hour < 0 or self.corruption_rate_per_hour < 0:
            raise ValueError("fault rates must be >= 0")
        outage_seconds = self.outage_duration_frac * self.horizon_seconds
        last_onset = (self.hosts_per_region - 1) * self.outage_stagger_seconds
        if self.outage and last_onset >= outage_seconds:
            raise ValueError(
                f"the outage's stagger puts the last host's onset at"
                f" +{last_onset:g} s, past the {outage_seconds:g} s outage"
                " (outage_duration_frac x horizon_seconds); lengthen the"
                " horizon or shorten the stagger"
            )

    def rung_names(self) -> Tuple[str, ...]:
        return tuple(r.name for r in output_ladder(resolution(self.live_source)))

    def demand_config(self) -> LadderDemandConfig:
        return LadderDemandConfig(
            live_rate=self.live_rate,
            upload_rate=self.upload_rate,
            live_duration_seconds=self.live_duration_seconds,
            upload_duration_mean=self.upload_duration_mean,
        )


@dataclass
class LiveLadderResult:
    """Everything a caller might inspect after the run drains."""

    config: LiveLadderConfig
    plane: ControlPlane
    cluster: TranscodeCluster
    dispatcher: LadderDispatcher
    requests: List[JobRequest]
    end_time: float
    scorecard: Dict[str, Any]


def stable_host(tag: str, vcus: int) -> VcuHost:
    """A host with run-independent ids (the global counters differ
    between runs in one process, which would break golden traces)."""
    host = VcuHost(
        host_spec=HostSpec(vcus_per_card=vcus, cards_per_tray=1, trays_per_host=1),
        host_id=tag,
    )
    for index, vcu in enumerate(host.vcus):
        vcu.vcu_id = f"{tag}-v{index}"
        vcu.telemetry.vcu_id = vcu.vcu_id
    return host


def build_fleet(
    config: LiveLadderConfig,
) -> Tuple[List[VcuHost], List[VcuWorker], List[CpuWorker]]:
    """The scenario's stable-id fleet, grouped per region."""
    hosts = [
        stable_host(f"{region}-h{i}", config.vcus_per_host)
        for region in config.regions
        for i in range(config.hosts_per_region)
    ]
    workers = [
        VcuWorker(vcu, host=host) for host in hosts for vcu in host.vcus
    ]
    cpus = [
        CpuWorker(cores=16, name=f"lad-cpu{i}")
        for i in range(config.cpu_workers)
    ]
    return hosts, workers, cpus


def build_scorecard(
    plane: ControlPlane,
    cluster: TranscodeCluster,
    dispatcher: LadderDispatcher,
    rungs: Sequence[str],
) -> Dict[str, Any]:
    """The flat latency scorecard, keys sorted, values rounded.

    Every ladder figure is a query over the dispatcher's ``ladder.*``
    registry; a count or histogram that recorded nothing reads zero.
    """
    metrics = dispatcher.metrics

    def count(name: str) -> int:
        return int(metrics.counter(f"ladder.{name}").value)

    card: Dict[str, Any] = {"schema_version": SCORECARD_VERSION}
    card.update(job_fields(plane, _CLASSES, _PER_CLASS_FIELDS))
    card["streams.started"] = count("streams.started")
    card["streams.completed"] = count("streams.completed")
    released = count("segments.released")
    manifested = count("manifests.emitted")
    lost = released - manifested
    card["segments.released"] = released
    card["segments.manifested"] = manifested
    card["segments.lost"] = lost
    ttfs = metrics.histogram("ladder.ttfs_seconds", TTFS_BOUNDS)
    card["ttfs.p50"] = round(ttfs.quantile(0.50), 9)
    card["ttfs.p90"] = round(ttfs.quantile(0.90), 9)
    card["ttfs.p99"] = round(ttfs.quantile(0.99), 9)
    stall = metrics.histogram("ladder.manifest_stall_seconds", STALL_BOUNDS)
    card["stall.p50"] = round(stall.quantile(0.50), 9)
    card["stall.p99"] = round(stall.quantile(0.99), 9)
    tracked = count("deadlines.tracked")
    missed = count("deadlines.missed")
    card["deadline.tracked"] = tracked
    card["deadline.missed"] = missed
    card["deadline.miss_rate"] = round(missed / tracked if tracked else 0.0, 6)
    card["fallback.software"] = cluster.stats.software_fallbacks
    card["fallback.opportunistic"] = cluster.stats.opportunistic_fallbacks
    card["cluster.retries"] = cluster.stats.retries
    card["cluster.hangs"] = cluster.stats.hangs_detected
    card["cluster.corrupt_caught"] = cluster.stats.corrupt_caught
    card["cluster.host_evictions"] = cluster.stats.host_evictions
    card["outages.count"] = plane.outages_started
    card["conservation.ok"] = bool(
        plane.ledger.conservation_report()["ok"]
        and lost == 0
        and not dispatcher.unfinished()
    )
    for rung in rungs:
        histogram = metrics.histogram(f"ladder.queue_wait.{rung}", QUEUE_WAIT_BOUNDS)
        card[f"rung.{rung}.queue_p50"] = round(histogram.quantile(0.50), 9)
        card[f"rung.{rung}.queue_p99"] = round(histogram.quantile(0.99), 9)
    return dict(sorted(card.items()))


def run_live_ladder(
    config: LiveLadderConfig, seed: SeedLike = 0
) -> LiveLadderResult:
    """Simulate one live-ladder run end to end and score it.

    Arrivals stop at the horizon but the simulation runs until the event
    queue drains, so every stream's last manifest is published and the
    conservation verdict is checkable at return.
    """
    sim = Simulator()
    hosts, workers, cpus = build_fleet(config)
    cluster = TranscodeCluster(
        sim, workers, cpus, seed=split_rng(seed, "ladder/cluster"),
    )
    dispatcher = LadderDispatcher(sim, cluster)
    executor = StreamingExecutor(
        dispatcher,
        segment_seconds=config.segment_seconds,
        live_source=resolution(config.live_source),
        upload_source=resolution(config.upload_source),
        live_deadline_seconds=config.live_deadline_seconds,
        codecs=config.codecs,
    )
    sites = make_sites(
        (("stream-core", "core", (0.0, 0.0), config.site_slots),)
    )
    plane = ControlPlane(
        sim, sites, retry=RetryPolicy(), executor=executor, seed=seed,
    )
    workload = LadderDemandWorkload(config.demand_config(), seed=seed)
    requests = workload.requests(until=config.horizon_seconds)
    for request in requests:
        sim.call_at(
            request.arrival_time,
            lambda r=request: plane.submit(r),
        )
    injector = FaultInjector(
        sim,
        [vcu for host in hosts for vcu in host.vcus],
        seed=split_rng(seed, "ladder/faults"),
    )
    if config.hang_rate_per_hour > 0:
        injector.random_hangs(
            config.hang_rate_per_hour, until=config.horizon_seconds
        )
    if config.corruption_rate_per_hour > 0:
        injector.random_corruptions(
            config.corruption_rate_per_hour, until=config.horizon_seconds
        )
    if config.outage:
        outage_hosts = [
            h for h in hosts
            if h.host_id.startswith(f"{config.outage_region}-")
        ]
        injector.regional_outage(
            at_time=config.outage_start_frac * config.horizon_seconds,
            hosts=outage_hosts,
            duration=config.outage_duration_frac * config.horizon_seconds,
            stagger_seconds=config.outage_stagger_seconds,
        )
    sim.run()
    rungs = config.rung_names()
    return LiveLadderResult(
        config=config,
        plane=plane,
        cluster=cluster,
        dispatcher=dispatcher,
        requests=requests,
        end_time=sim.now,
        scorecard=build_scorecard(plane, cluster, dispatcher, rungs),
    )
