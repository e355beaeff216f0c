"""The post-launch deployment timeline (Figures 9a/9b/9c, Section 4.3).

Each month after launch is one cluster-simulation configuration: how much
of the workload has migrated to VCUs, whether the NUMA-aware scheduling
fix has rolled out, and how aggressively hardware decode is shifted back
to the host CPU.  Running the months in sequence replays the paper's
longitudinal charts:

* 9a -- chunked upload workload throughput: 50% on VCU at launch, 100% by
  month 7, with software-stack fixes compounding on top.
* 9b -- live transcoding adoption ramp.
* 9c -- average hardware-decoder (millidecode) utilization dropping from
  ~98% to ~91% when opportunistic software decoding lands after month 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster.cluster import TranscodeCluster
from repro.cluster.worker import CpuWorker, VcuWorker
from repro.sim.engine import Simulator
from repro.sim.rng import SeedLike, make_rng
from repro.transcode.ladder import LadderPolicy
from repro.vcu.chip import Vcu
from repro.vcu.spec import VcuSpec
from repro.workloads.upload import UploadGenerator


@dataclass(frozen=True)
class MonthConfig:
    """One month's deployment state."""

    month: int
    fraction_on_vcu: float
    numa_aware: bool
    software_decode_fraction: float
    vcu_fleet_scale: float  # relative fleet size as racks keep landing
    #: Per-step software-stack overhead, shrinking as continuous profiling
    #: finds and fixes bottlenecks (Section 4.3).
    step_overhead_seconds: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction_on_vcu <= 1.0:
            raise ValueError("fraction_on_vcu must be in [0, 1]")
        if not 0.0 <= self.software_decode_fraction <= 1.0:
            raise ValueError("software_decode_fraction must be in [0, 1]")


def default_timeline(months: int = 12) -> List[MonthConfig]:
    """The launch-and-iterate schedule matching the paper's milestones.

    Launch serves 50% of the chunked upload workload, reaching 100% in
    month 7; NUMA-aware scheduling rolls out in month 4; opportunistic
    software decode turns on after month 6; the VCU fleet keeps growing as
    racks are deployed; and per-step software overheads shrink steadily
    under continuous profiling.
    """
    configs = []
    for month in range(1, months + 1):
        fraction = min(1.0, 0.5 + 0.5 * (month - 1) / 6.0)
        fleet = 1.0 + 0.35 * (month - 1)
        overhead = 0.8 - 0.5 * min(1.0, (month - 1) / 10.0)
        configs.append(
            MonthConfig(
                month=month,
                fraction_on_vcu=fraction,
                numa_aware=month >= 4,
                software_decode_fraction=0.45 if month > 6 else 0.0,
                vcu_fleet_scale=fleet,
                step_overhead_seconds=overhead,
            )
        )
    return configs


@dataclass
class MonthResult:
    """Measurements from one simulated month."""

    month: int
    total_megapixels: float
    wall_seconds: float
    decoder_utilization: float
    encoder_utilization: float
    vcu_workers: int

    @property
    def throughput_mpix_s(self) -> float:
        return self.total_megapixels / self.wall_seconds if self.wall_seconds else 0.0


def run_month(
    config: MonthConfig,
    base_vcu_workers: int = 6,
    horizon_seconds: float = 120.0,
    seed: SeedLike = 0,
    spec: Optional[VcuSpec] = None,
    decode_safety_factor: float = 2.2,
) -> MonthResult:
    """Simulate one month's configuration on a scaled-down cluster.

    Uploads arrive continuously at a demand rate that grew with the fleet;
    the VCU share of videos runs on the accelerators, the rest grinds
    through the legacy CPU workers.  Throughput is what completed within
    the fixed horizon; decoder utilization is the millidecode dimension's
    time-weighted average -- the quantity Figure 9c plots.
    """
    spec = spec or VcuSpec()
    rng = make_rng(seed)
    sim = Simulator()
    worker_count = max(1, round(base_vcu_workers * config.vcu_fleet_scale))
    vcu_workers = [
        VcuWorker(
            Vcu(spec, vcu_id=f"m{config.month}-vcu{i}"),
            numa_aware=config.numa_aware,
            decode_safety_factor=decode_safety_factor,
            step_overhead_seconds=config.step_overhead_seconds,
        )
        for i in range(worker_count)
    ]
    cpu_workers = [CpuWorker(cores=24, name=f"m{config.month}-cpu{i}") for i in range(2)]
    cluster = TranscodeCluster(
        sim, vcu_workers, cpu_workers, seed=rng.integers(0, 2**31)
    )

    # Demand sized to keep the fleet saturated (and growing with it).
    arrivals_per_second = 0.10 * worker_count
    generator = UploadGenerator(
        arrivals_per_second=arrivals_per_second,
        seed=int(rng.integers(0, 2**31)),
        mean_duration_seconds=45.0,
    )
    policy = LadderPolicy(vp9_at_upload=True)
    for video in generator.videos(until=horizon_seconds):
        on_vcu = rng.random() < config.fraction_on_vcu
        if on_vcu:
            software_decode = rng.random() < config.software_decode_fraction
            graph = generator.to_graph(video, policy, software_decode=software_decode)
        else:
            # Software-era path: H.264-only ladders (VP9 was unaffordable
            # at upload time), ground out on the legacy CPU workers.
            graph = generator.to_graph(video, LadderPolicy(vp9_at_upload=False))
            for step in graph.steps:
                step.software_only = True
        sim.call_at(video.arrival_time, lambda g=graph: cluster.submit(g))

    end = sim.run(until=horizon_seconds)
    return MonthResult(
        month=config.month,
        total_megapixels=cluster.stats.throughput.total_megapixels,
        wall_seconds=horizon_seconds,
        decoder_utilization=cluster.decoder_util.average(end),
        encoder_utilization=cluster.encoder_util.average(end),
        vcu_workers=worker_count,
    )


def live_adoption_curve(months: int = 12, saturation: float = 4.0) -> List[float]:
    """Figure 9b's live-transcoding ramp: normalized throughput per month.

    Live migration was gated on operational confidence rather than
    capacity; the ramp is a logistic adoption curve saturating at
    ``saturation`` times the launch throughput.
    """
    curve = []
    for month in range(1, months + 1):
        value = saturation / (1.0 + math.exp(-(month - 5.5) / 1.8))
        curve.append(value)
    base = curve[0]
    return [v / base for v in curve]
