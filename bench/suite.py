"""The benchmark's five workloads.

Each workload is a fixed-size batch job run in a closed loop with
concurrency 1: one repetition builds its inputs from the seed
(:meth:`setup`), runs one timed batch (:meth:`body`), and then reports
what the batch simulated (:meth:`outcome`).  Inside the simulations,
arrivals are open-loop in virtual time.  Sizes are fixed; the seed only
changes which inputs are drawn.

The workloads are chosen so that each optimisation the ROADMAP plans has
one workload that exercises it and one that bypasses it:

* ``fleet-day`` -- a 20k-VCU fleet under sweeps and placements (the
  sweep path and the scheduler dominate);
* ``saturated-timeline`` -- the Figure 9 months on small exact-mode
  fleets with deep pending queues (the same scheduler and cluster code,
  used the other way);
* ``scenario-catalog`` -- the catalog scenarios (control plane,
  streaming, firmware, failures);
* ``observed-chaos`` -- two of those scenarios again with observability
  on, so the pair isolates what ``obs`` costs;
* ``codec-rd`` -- real encodes, bypassing the simulator entirely.

Sizes are smaller than the paper-shape experiments so that several
repetitions fit in one benchmark run; ``tiny=True`` shrinks them further
for the tests.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Any, Dict, List, Optional


def digest(value: Any) -> str:
    """sha256 of a canonical JSON rendering (sorted keys, no spaces)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """What one repetition simulated, and whether it was right."""

    #: Operations attempted: graphs, months, units or titles.
    ops: int
    #: Results the digest covers, independent of process-global ids.
    canonical: Any
    #: Seconds of virtual time offered (arrivals stop there; the backlog
    #: drains past it), or of video encoded for codec-rd.
    sim_s: float
    #: Invariant violations; any of them fails every op of the repetition.
    problems: List[str] = field(default_factory=list)
    #: Per-unit results, keyed ``experiment/index`` (catalog units only).
    units: Dict[str, Any] = field(default_factory=dict)
    #: Modelled throughput per VCU (paper Figure 8), 0 without a cluster.
    mpix_per_vcu_s: float = 0.0
    #: Human-readable extras printed with the report.
    extra: Dict[str, float] = field(default_factory=dict)


class FleetDay:
    name = "fleet-day"
    why = ("1000 hosts (20k VCUs) under uploads, telemetry sweeps and repairs:"
           " the sweep path and the scheduler dominate")
    default_seed: Optional[int] = 8

    def setup(self, seed: Optional[int], out_dir: str, tiny: bool = False):
        from repro.cluster import CpuWorker, TranscodeCluster, VcuWorker
        from repro.failures import FailureManager, FailureSweeper, FaultInjector
        from repro.sim.engine import Simulator
        from repro.sim.rng import split_rng
        from repro.transcode import PopularityBucket, build_transcode_graph
        from repro.vcu.host import VcuHost
        from repro.vcu.telemetry import FaultKind
        from repro.video.frame import resolution

        seed = self.default_seed if seed is None else seed
        hosts_n, cpus_n, horizon = (10, 4, 300.0) if tiny else (1000, 100, 1200.0)
        interval = 1.5
        sim = Simulator()
        hosts = [VcuHost(host_id=f"day-h{i}") for i in range(hosts_n)]
        workers = [
            VcuWorker(vcu, host=host, golden_screening=False)
            for host in hosts
            for vcu in host.vcus
        ]
        cpus = [CpuWorker(cores=16, name=f"day-cpu{i}") for i in range(cpus_n)]
        # Pass the fleet-scale knobs only while they exist, so collapsing
        # the cluster's dual paths does not need a benchmark edit.
        accepted = inspect.signature(TranscodeCluster).parameters
        knobs = {
            knob: value
            for knob, value in (("fleet_mode", True), ("telemetry_mode", "sampled"))
            if knob in accepted
        }
        cluster = TranscodeCluster(sim, workers, cpus, seed=seed, **knobs)
        manager = FailureManager(hosts, repair_cap=8, card_swap_threshold=2)
        sweeper = FailureSweeper(
            sim, manager, interval_seconds=60.0, repair_seconds=900.0,
            cluster=cluster,
        )
        sweeper.start(until=horizon)
        injector = FaultInjector(
            sim, [vcu for host in hosts for vcu in host.vcus],
            seed=split_rng(seed, "fleet-day/faults"),
        )
        # ~200 hard faults over the 20 minutes: enough to disable devices
        # and queue ~10 card-swap repairs, not a fault benchmark.
        faults = injector.random_hard_faults(
            0.03, until=horizon, kind=FaultKind.ECC_UNCORRECTABLE, count=3,
        )
        source = resolution("720p")
        submitted: List[Any] = []

        def uploader():
            while sim.now + interval <= horizon:
                yield interval
                graph = build_transcode_graph(
                    video_id=f"day-v{len(submitted)}",
                    source=source,
                    total_frames=300,
                    fps=30.0,
                    bucket=PopularityBucket.WARM,
                )
                submitted.append(graph)
                cluster.submit(graph)

        sim.process(uploader(), name="fleet-uploader")
        return SimpleNamespace(
            sim=sim, cluster=cluster, workers=workers, manager=manager,
            sweeper=sweeper, faults=faults, submitted=submitted, horizon=horizon,
        )

    def body(self, state) -> None:
        state.sim.run()

    def outcome(self, state, result: None) -> Outcome:
        cluster, workers = state.cluster, state.workers
        stats = cluster.stats
        submitted = len(state.submitted)
        healthy = cluster.healthy_vcu_count()
        scanned = sum(1 for worker in workers if worker.available())
        problems = []
        if stats.completed_graphs != submitted:
            problems.append(
                f"{submitted - stats.completed_graphs} of {submitted} graphs"
                " never completed"
            )
        if healthy != scanned:
            problems.append(
                f"healthy_vcu_count() is {healthy}, a fresh scan finds {scanned}"
            )
        snapshot = stats.counter_snapshot()
        # VCU ids come from process-global counters; key by fleet position.
        position = {worker.vcu.vcu_id: i for i, worker in enumerate(workers)}
        per_vcu = snapshot.pop("per_vcu_megapixels")
        canonical = {
            "stats": snapshot,
            "per_worker_megapixels": sorted(
                (position[vcu_id], mpix) for vcu_id, mpix in per_vcu
            ),
            "graphs_submitted": submitted,
            "faults": len(state.faults),
            "sweeps": state.sweeper.sweeps,
            "repairs": state.sweeper.repairs_completed,
            "disabled": len(state.manager.disabled_vcus),
            "healthy": healthy,
            "end": round(state.sim.now, 6),
        }
        return Outcome(
            ops=submitted,
            canonical=canonical,
            sim_s=state.horizon,
            problems=problems,
            mpix_per_vcu_s=stats.per_vcu_mpix_per_second(state.sim.now, len(workers)),
            extra={
                "vcus": len(workers),
                "faults": len(state.faults),
                "repairs": state.sweeper.repairs_completed,
            },
        )


class SaturatedTimeline:
    name = "saturated-timeline"
    why = ("Figure 9's 16 months (6-38 VCUs) at 80 s on exact-mode fleets whose pending"
           " queues average 250-1060 steps: the scheduler and cluster code used the other way")
    default_seed: Optional[int] = 5
    MONTHS = 16
    HORIZON = 80.0
    BASE_VCU_WORKERS = 6

    def setup(self, seed: Optional[int], out_dir: str, tiny: bool = False):
        from repro.cluster.timeline import default_timeline, run_month
        from repro.sim.rng import split_rng

        seed = self.default_seed if seed is None else seed
        months = default_timeline(self.MONTHS)
        # A seed per month: a saturated month's cost grows with its
        # backlog, and months sharing one seed swing together (run_s
        # spreads ~20% across seeds that way, ~9% with a seed per month).
        draws = [
            (config, int(split_rng(seed, f"{self.name}/month{config.month}")
                         .integers(2**31)))
            for config in (months[:2] if tiny else months)
        ]
        return SimpleNamespace(
            run_month=run_month, draws=draws, horizon=10.0 if tiny else self.HORIZON,
        )

    def body(self, state) -> list:
        return [
            state.run_month(
                config,
                base_vcu_workers=self.BASE_VCU_WORKERS,
                horizon_seconds=state.horizon,
                seed=month_seed,
            )
            for config, month_seed in state.draws
        ]

    def outcome(self, state, result: list) -> Outcome:
        problems = []
        months = []
        for (config, _), month in zip(state.draws, result):
            workers = max(1, round(self.BASE_VCU_WORKERS * config.vcu_fleet_scale))
            if month.vcu_workers != workers:
                problems.append(f"month {month.month}: {month.vcu_workers} workers")
            utils = (month.decoder_utilization, month.encoder_utilization)
            if not all(0.0 <= u <= 1.0 for u in utils):
                problems.append(f"month {month.month}: utilization {utils}")
            if month.total_megapixels <= 0:
                problems.append(f"month {month.month}: no throughput")
            # Rounded exactly as the tuning-timeline scorecard rounds them.
            months.append({
                "month": month.month,
                "throughput_mpix_s": round(month.throughput_mpix_s, 4),
                "total_megapixels": round(month.total_megapixels, 3),
                "decoder_util": round(month.decoder_utilization, 5),
                "encoder_util": round(month.encoder_utilization, 5),
                "vcu_workers": month.vcu_workers,
            })
        per_vcu = [
            month.total_megapixels / state.horizon / month.vcu_workers
            for month in result
        ]
        return Outcome(
            ops=len(result),
            canonical=months,
            sim_s=state.horizon * len(result),
            problems=problems,
            mpix_per_vcu_s=sum(per_vcu) / len(per_vcu),
        )


#: Catalog experiments and the horizons they run at here: the full grid
#: of arms, over shorter horizons than the committed grids.
CATALOG_UNITS: Dict[str, Dict[str, float]] = {
    "canary-rollout": {"horizon_seconds": 60.0},
    "chaos-campaign": {"horizon_seconds": 180.0},
    "live-ladder": {"horizon_seconds": 360.0},
    "platform-day": {"day_seconds": 900.0},
    "surge-mix": {"day_seconds": 900.0},
}
TINY_CATALOG_UNITS: Dict[str, Dict[str, float]] = {
    "canary-rollout": {"horizon_seconds": 12.0},
    "chaos-campaign": {"horizon_seconds": 60.0},
    "live-ladder": {"horizon_seconds": 60.0},
    "platform-day": {"day_seconds": 120.0},
    "surge-mix": {"day_seconds": 120.0},
}


def catalog_units(names, seed: Optional[int], overrides: Dict[str, Dict[str, float]]) -> list:
    """``(experiment, unit)`` pairs for ``names``, through the runner's registry.

    ``overrides`` replaces grid parameters per experiment (an empty
    mapping keeps the committed grid); ``seed`` replaces each unit's
    ``scenario_seed``, and ``None`` keeps the committed per-experiment
    seeds.
    """
    from repro.runner.experiments import default_registry

    registry = default_registry()
    units = []
    for name in names:
        experiment = registry.get(name)
        for unit in experiment.units():
            params = dict(unit.params, **overrides.get(name, {}))
            if seed is not None:
                params["scenario_seed"] = seed
            units.append((experiment, replace(unit, params=params)))
    return units


def _horizon(unit) -> float:
    params = unit.params
    return float(params.get("horizon_seconds", params.get("day_seconds", 0.0)))


def _scenario_outcome(units, results) -> Outcome:
    problems = []
    by_unit = {}
    for (experiment, unit), result in zip(units, results):
        key = f"{experiment.name}/{unit.index}"
        by_unit[key] = result
        if result["scorecard"].get("conservation.ok") is not True:
            problems.append(f"{key}: conservation.ok is not true")
    return Outcome(
        ops=len(results),
        canonical=by_unit,
        # Seconds of offered demand; each run drains its backlog past it.
        sim_s=sum(_horizon(unit) for _, unit in units),
        problems=problems,
        units=by_unit,
    )


class ScenarioCatalog:
    name = "scenario-catalog"
    why = ("12 catalog units (canary, chaos, live ladder, platform day, surge):"
           " control plane, streaming, firmware and failures on exact-mode clusters")
    default_seed: Optional[int] = None

    def setup(self, seed: Optional[int], out_dir: str, tiny: bool = False):
        return catalog_units(
            list(CATALOG_UNITS), seed, TINY_CATALOG_UNITS if tiny else CATALOG_UNITS
        )

    def body(self, units) -> list:
        return [experiment.run_unit(unit) for experiment, unit in units]

    def outcome(self, units, results: list) -> Outcome:
        return _scenario_outcome(units, results)


class ObservedChaos:
    name = "observed-chaos"
    why = ("the chaos and live-ladder units again with a fresh obs hub each and"
           " the trace written and re-read: the only workload paying for obs")
    default_seed: Optional[int] = None

    def setup(self, seed: Optional[int], out_dir: str, tiny: bool = False):
        from repro import obs
        from repro.obs import report

        units = catalog_units(
            ("chaos-campaign", "live-ladder"), seed,
            TINY_CATALOG_UNITS if tiny else CATALOG_UNITS,
        )
        return SimpleNamespace(units=units, obs=obs, report=report, out_dir=out_dir)

    def body(self, state) -> list:
        rows = []
        for experiment, unit in state.units:
            # A fresh hub per unit: one hub reused across two simulations
            # fails ("time moved backwards") when the second binds its clock.
            with state.obs.installed() as hub:
                result = experiment.run_unit(unit)
            path = os.path.join(
                state.out_dir, f"obs-{experiment.name}-{unit.index}.jsonl"
            )
            written = hub.trace.write_jsonl(path)
            summary = state.report.summarize(state.report.load(path))
            os.remove(path)
            rows.append((result, written, hub.trace.dropped, summary.spans))
        return rows

    def outcome(self, state, rows: list) -> Outcome:
        outcome = _scenario_outcome(state.units, [row[0] for row in rows])
        for (experiment, unit), (_, written, _, read) in zip(state.units, rows):
            if read != written:
                outcome.problems.append(
                    f"{experiment.name}/{unit.index}: wrote {written} spans,"
                    f" read back {read}"
                )
        outcome.extra = {
            "spans_written": sum(row[1] for row in rows),
            "spans_dropped": sum(row[2] for row in rows),
        }
        return outcome


class CodecRd:
    name = "codec-rd"
    why = ("RD curves for presentation, desktop and bike (4 profiles x 5 QPs):"
           " real encodes that bypass the simulator and scheduler entirely")
    default_seed: Optional[int] = 2
    TITLES = ("presentation", "desktop", "bike")
    FRAMES = 2
    PROXY_HEIGHT = 60
    #: Figure 7's comparisons: name -> (reference profile, test profile).
    COMPARISONS = {
        "libvpx_vs_libx264": ("libx264", "libvpx"),
        "vcu_h264_vs_libx264": ("libx264", "vcu-h264"),
        "vcu_vp9_vs_libvpx": ("libvpx", "vcu-vp9"),
        "vcu_vp9_vs_libx264": ("libx264", "vcu-vp9"),
    }

    def setup(self, seed: Optional[int], out_dir: str, tiny: bool = False):
        from repro.codec.encoder import encode_video
        from repro.codec.profiles import ALL_PROFILES
        from repro.harness.rd import DEFAULT_QPS
        from repro.video.content import SyntheticVideo
        from repro.video.vbench import vbench_video

        seed = self.default_seed if seed is None else seed
        titles = self.TITLES[:1] if tiny else self.TITLES
        proxy_height = 36 if tiny else self.PROXY_HEIGHT
        videos = [
            SyntheticVideo(vbench_video(title).spec, seed=seed, proxy_height=proxy_height)
            .video(self.FRAMES)
            for title in titles
        ]
        return SimpleNamespace(
            encode_video=encode_video, profiles=list(ALL_PROFILES),
            qps=tuple(DEFAULT_QPS), videos=videos,
        )

    def body(self, state) -> list:
        curves = []
        for video in state.videos:
            curves.append({
                profile.name: [
                    state.encode_video(video, profile, qp=qp)
                    for qp in state.qps
                ]
                for profile in state.profiles
            })
        return curves

    def outcome(self, state, curves: list) -> Outcome:
        from repro.metrics.quality import RDPoint, bd_rate

        problems = []
        titles = []
        frames = 0
        video_s = 0.0
        for video, by_profile in zip(state.videos, curves):
            points = {}
            for profile, chunks in sorted(by_profile.items()):
                encoded = sum(len(chunk.frames) for chunk in chunks)
                frames += encoded
                video_s += encoded / video.fps
                rates = [chunk.bitrate_bps for chunk in chunks]
                quality = [chunk.psnr for chunk in chunks]
                if not all(math.isfinite(v) and v > 0 for v in rates + quality):
                    problems.append(f"{video.name}/{profile}: non-positive point")
                if any(a <= b for a, b in zip(rates, rates[1:])):
                    problems.append(f"{video.name}/{profile}: bitrate not falling with QP")
                points[profile] = [RDPoint(bitrate=r, psnr=q) for r, q in zip(rates, quality)]
            bd_rates = {
                name: round(float(bd_rate(points[ref], points[test])), 4)
                for name, (ref, test) in sorted(self.COMPARISONS.items())
            }
            # Rounded as the fig7-bd-rates experiment rounds its results.
            titles.append({
                "title": video.name,
                "curves": {
                    profile: [[round(float(p.bitrate), 2), round(float(p.psnr), 4)]
                              for p in profile_points]
                    for profile, profile_points in points.items()
                },
                "bd_rates": bd_rates,
            })
        return Outcome(
            ops=len(titles),
            canonical=titles,
            sim_s=video_s,
            problems=problems,
            extra={"frames": frames},
        )


WORKLOADS: Dict[str, Any] = {
    workload.name: workload
    for workload in (
        FleetDay(), SaturatedTimeline(), ScenarioCatalog(), ObservedChaos(), CodecRd(),
    )
}
