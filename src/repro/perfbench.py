"""Perf-regression harness: measures the batched hot paths vs their
pre-batching reference implementations.

Three layers carry explicit fast/reference pairs (bit-identical results,
very different speed):

* the codec -- batched kernels + SAD-map motion search vs the per-block
  scalar walk (``Encoder(fast=...)``);
* the bin-packing scheduler -- indexed availability arrays vs the linear
  fleet scan (``place`` vs ``place_scan``);
* the event engine -- the calendar-queue loop (:mod:`repro.sim.engine`)
  vs the frozen single-heap engine (:mod:`repro.sim.reference`), on both
  a tie-heavy (aligned) and a tie-free (scattered) workload;
* the batched transform kernels, reported as absolute throughput.

The end-to-end face of the same work is the benchmark's fleet day,
``python3 bench/run.py --workload fleet-day``: a 20k-VCU fleet runs a
simulated day -- uploads arriving continuously, the failure sweeper
disabling and repairing devices underneath, utilization recorded
exactly at every admit and release -- and reports how many simulated
seconds each wall second buys.

``repro-bench perf`` runs everything and writes ``BENCH_PR8.json`` so CI
can archive the numbers per commit; ``--smoke`` shrinks the workload for
a quick regression signal.  Wall-clock measurements are best-of-N to cut
scheduler noise.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import numpy as np

from repro.sim.rng import make_rng

ENCODE_PROFILES = ("libx264", "libvpx", "vcu-h264", "vcu-vp9")


def _best_of(repeats: int, fn: Callable[[], None]) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()  # lint: allow=determinism -- wall-clock harness
        fn()
        best = min(best, time.perf_counter() - t0)  # lint: allow=determinism -- wall-clock harness
    return best


def _pair(fast_s: float, reference_s: float) -> Dict[str, float]:
    return {
        "fast_s": round(fast_s, 4),
        "reference_s": round(reference_s, 4),
        "speedup": round(reference_s / fast_s, 2),
    }


def _synthetic_frames(
    height: int, width: int, count: int, seed: int = 11
) -> List[np.ndarray]:
    """Smoothed noise with per-frame global motion -- textured enough to
    exercise every mode decision, moving enough to exercise the search."""
    rng = make_rng(seed)
    base = rng.uniform(0, 255, (height + 8 * count, width + 8 * count))
    for _ in range(2):
        base = (
            base
            + np.roll(base, 1, 0) + np.roll(base, 1, 1)
            + np.roll(base, -1, 0) + np.roll(base, -1, 1)
        ) / 5.0
    frames = []
    for i in range(count):
        oy, ox = 2 * i, 3 * i
        data = base[oy : oy + height, ox : ox + width] + rng.normal(
            0.0, 2.0, (height, width)
        )
        frames.append(np.clip(data, 0, 255).astype(np.float32))
    return frames


def bench_encode(smoke: bool = False, repeats: int = 3) -> Dict[str, Dict]:
    """Whole-frame encode, fast vs reference, per Figure-7 profile."""
    from repro.codec.encoder import Encoder
    from repro.codec.profiles import PROFILES_BY_NAME
    from repro.video.frame import Frame, Resolution

    height, width, count = (64, 96, 2) if smoke else (96, 160, 4)
    repeats = 1 if smoke else repeats
    frames = _synthetic_frames(height, width, count)
    nominal = Resolution(
        pixels=width * height, width=width, height=height, name="perfbench"
    )

    def encode(profile, fast: bool) -> None:
        encoder = Encoder(profile, keyframe_interval=150, fast=fast)
        for i, data in enumerate(frames):
            encoder.encode_frame(Frame(data, nominal, i), 30.0)

    results: Dict[str, Dict] = {}
    total_fast = total_reference = 0.0
    for name in ENCODE_PROFILES:
        profile = PROFILES_BY_NAME[name]
        fast_s = _best_of(repeats, lambda: encode(profile, True))
        reference_s = _best_of(repeats, lambda: encode(profile, False))
        total_fast += fast_s
        total_reference += reference_s
        results[name] = _pair(fast_s, reference_s)
    results["aggregate"] = _pair(total_fast, total_reference)
    results["aggregate"]["frames"] = count
    results["aggregate"]["resolution"] = f"{width}x{height}"
    return results


def _scheduler_stream(
    scheduler, place: Callable, placements: int, seed: int = 3
) -> int:
    """Drive ``placements`` placement attempts with interleaved releases.

    Requests vary in shape; ~8 in-flight steps per worker keep the fleet
    near saturation, which is where the linear scan hurts the most (every
    placement probes many full workers).  Returns accepted placements.
    """
    rng = make_rng(seed)
    shapes = [
        {"millidecode": 250.0, "milliencode": 1200.0, "dram_bytes": 40e6},
        {"millidecode": 500.0, "milliencode": 3750.0, "dram_bytes": 160e6},
        {"millidecode": 120.0, "milliencode": 600.0, "dram_bytes": 20e6},
        {"millidecode": 1000.0, "milliencode": 7500.0, "dram_bytes": 330e6},
    ]
    choices = rng.integers(0, len(shapes), size=placements)
    in_flight: List = []
    accepted = 0
    for i in range(placements):
        request = shapes[choices[i]]
        worker = place(request)
        if worker is not None:
            accepted += 1
            in_flight.append((worker, request))
        else:
            # Fleet full: drain the oldest half before continuing.
            drain = max(1, len(in_flight) // 2)
            for worker, request in in_flight[:drain]:
                scheduler.release(worker, request)
            del in_flight[:drain]
    for worker, request in in_flight:
        scheduler.release(worker, request)
    return accepted


def bench_scheduler(smoke: bool = False, repeats: int = 3) -> Dict[str, Dict]:
    """10k placements on a 200-VCU fleet: indexed place vs linear scan."""
    from repro.cluster.scheduler import BinPackingScheduler
    from repro.cluster.worker import VcuWorker
    from repro.vcu.chip import Vcu
    from repro.vcu.spec import DEFAULT_VCU_SPEC

    workers_n, placements = (40, 1000) if smoke else (200, 10_000)
    repeats = 1 if smoke else repeats

    def run(indexed: bool) -> None:
        workers = [
            VcuWorker(Vcu(DEFAULT_VCU_SPEC, vcu_id=f"bench-vcu{i}"))
            for i in range(workers_n)
        ]
        scheduler = BinPackingScheduler(workers)
        place = scheduler.place if indexed else scheduler.place_scan
        _scheduler_stream(scheduler, place, placements)

    fast_s = _best_of(repeats, lambda: run(True))
    reference_s = _best_of(repeats, lambda: run(False))
    result = _pair(fast_s, reference_s)
    result["workers"] = workers_n
    result["placements"] = placements
    return {"bin_packing": result}


def bench_engine(smoke: bool = False, repeats: int = 3) -> Dict[str, float]:
    """Raw event-loop throughput: calendar buckets + batched dispatch."""
    from repro.sim import engine

    events = 10_000 if smoke else 100_000
    per_process = events // 100
    repeats = 1 if smoke else repeats
    seconds = _best_of(repeats, lambda: _engine_run(engine, False, per_process))
    return {
        "events": 100 * per_process,
        "seconds": round(seconds, 4),
        "events_per_s": round(100 * per_process / seconds),
    }


def _engine_run(module, scattered: bool, per_process: int) -> None:
    """100 tickers on ``module``'s Simulator; aligned or scattered clocks.

    Aligned tickers share every timestamp (100-deep calendar buckets, the
    batched-dispatch best case); scattered tickers use coprime-ish
    periods so almost every event sits alone at its timestamp (the
    bucketing worst case -- the calendar must still win on heap traffic
    alone).
    """
    sim = module.Simulator()

    def ticker(delay: float) -> object:
        for _ in range(per_process):
            yield delay

    for i in range(100):
        delay = 0.001 + i * 0.0001937 if scattered else 0.001
        sim.process(ticker(delay), name=f"ticker{i}")
    sim.run()


def bench_calendar(smoke: bool = False, repeats: int = 3) -> Dict[str, Dict]:
    """Calendar-queue engine vs the frozen single-heap reference.

    Both engines run the exact same workload in-process, so the speedup
    is machine-independent in a way an absolute events/s floor is not;
    the absolute rate is reported alongside for the curious.
    """
    from repro.sim import engine, reference

    per_process = 100 if smoke else 1_000
    repeats = 1 if smoke else repeats
    events = 100 * per_process

    results: Dict[str, Dict] = {}
    for key, scattered in (("aligned", False), ("scattered", True)):
        fast_s = _best_of(
            repeats, lambda: _engine_run(engine, scattered, per_process)
        )
        reference_s = _best_of(
            repeats, lambda: _engine_run(reference, scattered, per_process)
        )
        row = _pair(fast_s, reference_s)
        row["events"] = events
        row["events_per_s"] = round(events / fast_s)
        results[key] = row
    return results


def bench_kernels(smoke: bool = False, repeats: int = 5) -> Dict[str, Dict]:
    """Batched transform stack vs the equivalent per-block scalar loop."""
    from repro.codec.kernels import batch_transform_rd
    from repro.codec.transform import transform_rd

    blocks, size = (64, 8) if smoke else (256, 8)
    repeats = 2 if smoke else repeats
    rng = make_rng(5)
    stack = rng.uniform(-128, 128, (blocks, size, size))

    fast_s = _best_of(repeats, lambda: batch_transform_rd(stack, 30.0))
    reference_s = _best_of(
        repeats, lambda: [transform_rd(block, 30.0) for block in stack]
    )
    result = _pair(fast_s, reference_s)
    result["blocks"] = blocks
    return {"transform_rd": result}


def run_all(smoke: bool = False) -> Dict[str, Dict]:
    report = {
        "benchmark": "PR8 calendar engine + fleet-scale hot paths",
        "smoke": smoke,
        "encode": bench_encode(smoke=smoke),
        "scheduler": bench_scheduler(smoke=smoke),
        "engine": bench_engine(smoke=smoke),
        "calendar": bench_calendar(smoke=smoke),
        "kernels": bench_kernels(smoke=smoke),
    }
    return report


def write_report(path: str, smoke: bool = False) -> Dict[str, Dict]:
    from repro.runner.manifest import dump_json

    report = run_all(smoke=smoke)
    dump_json(path, report)
    return report


def render(report: Dict[str, Dict]) -> str:
    lines = [f"perf harness ({'smoke' if report['smoke'] else 'full'} mode)"]
    lines.append("  whole-frame encode (fast vs reference):")
    for name, row in report["encode"].items():
        lines.append(
            f"    {name:10s} {row['fast_s']:8.3f}s vs {row['reference_s']:8.3f}s"
            f"  -> {row['speedup']:.2f}x"
        )
    sched = report["scheduler"]["bin_packing"]
    lines.append(
        f"  scheduler ({sched['placements']} placements, {sched['workers']} workers):"
        f" {sched['fast_s']:.3f}s vs {sched['reference_s']:.3f}s"
        f" -> {sched['speedup']:.2f}x"
    )
    engine = report["engine"]
    lines.append(
        f"  engine: {engine['events']} events in {engine['seconds']:.3f}s"
        f" ({engine['events_per_s']:,} events/s)"
    )
    lines.append("  calendar engine vs single-heap reference:")
    for key, row in report["calendar"].items():
        lines.append(
            f"    {key:10s} {row['events_per_s']:>10,} events/s"
            f" -> {row['speedup']:.2f}x"
        )
    kern = report["kernels"]["transform_rd"]
    lines.append(
        f"  batched transform ({kern['blocks']} blocks):"
        f" {kern['speedup']:.2f}x vs per-block loop"
    )
    return "\n".join(lines)
