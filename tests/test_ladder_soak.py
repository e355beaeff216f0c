"""Soak test: a 1000-segment live stream survives faults and an outage.

One long-running live leg drips a thousand segments through a small
two-region fleet while Poisson device faults (hangs + silent
corruptions) run for the whole show and one region's hosts go dark
mid-stream.  The invariants under all of that pressure:

* no segment is lost (every released segment is manifested) and none is
  double-encoded (the assembler raises ``BarrierViolation`` on a
  duplicate completion, so mere termination proves it);
* the manifest is emitted strictly in segment order with monotone
  timestamps;
* the latency scorecard stays finite: TTFS recorded once, stall
  percentiles defined, deadline accounting consistent.
"""

from __future__ import annotations

import pytest

from repro.cluster import CpuWorker, TranscodeCluster, VcuWorker
from repro.control.live_ladder import stable_host
from repro.failures import FaultInjector
from repro.sim import Simulator
from repro.sim.rng import split_rng
from repro.transcode import LadderDispatcher, StreamKind, StreamSpec
from repro.video.frame import resolution

SEGMENTS = 1000
SEGMENT_SECONDS = 2.0
SHOW_SECONDS = SEGMENTS * SEGMENT_SECONDS


@pytest.fixture(scope="module")
def soak_run():
    sim = Simulator()
    # Two regions, two hosts each, two VCUs per host; a 480p source keeps
    # the per-segment fan-out at four rungs so the soak stays fast.
    hosts = [
        stable_host(f"{region}-h{i}", 2)
        for region in ("east", "west")
        for i in range(2)
    ]
    workers = [VcuWorker(v, host=h) for h in hosts for v in h.vcus]
    cpus = [CpuWorker(cores=16, name=f"soak-cpu{i}") for i in range(2)]
    cluster = TranscodeCluster(
        sim, workers, cpus, seed=split_rng(17, "soak/cluster")
    )
    dispatcher = LadderDispatcher(sim, cluster)
    spec = StreamSpec(
        stream_id="soak-live",
        kind=StreamKind.LIVE,
        source=resolution("480p"),
        segment_count=SEGMENTS,
        segment_seconds=SEGMENT_SECONDS,
        deadline_seconds=8.0,
    )
    session = dispatcher.start_stream(spec)

    injector = FaultInjector(
        sim,
        [v for h in hosts for v in h.vcus],
        seed=split_rng(17, "soak/faults"),
    )
    injector.random_hangs(2.0, until=SHOW_SECONDS)
    injector.random_corruptions(2.0, until=SHOW_SECONDS)
    injector.regional_outage(
        at_time=SHOW_SECONDS / 2,
        hosts=[h for h in hosts if h.host_id.startswith("east-")],
        duration=SHOW_SECONDS * 0.1,
        stagger_seconds=5.0,
    )
    sim.run()
    return sim, cluster, dispatcher, session


def test_stream_drains_completely(soak_run):
    sim, _, dispatcher, session = soak_run
    assert session.done
    assert dispatcher.unfinished() == []
    assert len(session.watcher.released) == SEGMENTS
    assert sim.now >= SHOW_SECONDS


def test_no_segment_lost_or_double_encoded(soak_run):
    _, _, _, session = soak_run
    # Double encodes would have raised BarrierViolation during the run;
    # loss shows up as released-but-unpublished segments here.
    assert session.assembler.pending_indices() == []
    indices = [e.index for e in session.assembler.entries]
    assert indices == list(range(SEGMENTS))
    assert len(set(indices)) == SEGMENTS


def test_manifest_timestamps_are_ordered_and_monotone(soak_run):
    _, _, _, session = soak_run
    emitted = [e.emitted_at for e in session.assembler.entries]
    assert emitted == sorted(emitted)
    for entry in session.assembler.entries:
        assert entry.emitted_at >= entry.aligned_at >= entry.released_at
        assert entry.stall_seconds >= 0.0


def test_fault_pressure_actually_hit_the_stream(soak_run):
    _, cluster, _, _ = soak_run
    assert cluster.stats.hangs_detected >= 1
    assert cluster.stats.retries >= 1
    assert cluster.stats.corrupt_caught >= 1


def test_latency_scorecard_stays_finite(soak_run):
    _, _, dispatcher, session = soak_run
    metrics = dispatcher.metrics
    released = metrics.counter("ladder.segments.released").value
    assert released == metrics.counter("ladder.manifests.emitted").value == SEGMENTS
    assert metrics.histogram("ladder.ttfs_seconds").total == 1
    ttfs = session.assembler.time_to_first_segment
    assert ttfs is not None and 0.0 < ttfs < SHOW_SECONDS
    manifest_stall = metrics.histogram("ladder.manifest_stall_seconds")
    assert manifest_stall.total == SEGMENTS
    for quantile in (0.5, 0.9, 0.99):
        stall = manifest_stall.quantile(quantile)
        assert 0.0 <= stall < float("inf")
    assert metrics.counter("ladder.deadlines.tracked").value == SEGMENTS
    assert 0 <= metrics.counter("ladder.deadlines.missed").value <= SEGMENTS
