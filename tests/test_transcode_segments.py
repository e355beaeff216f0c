"""Unit tests for the segment-streaming dataflow.

Covers the pieces between the pure barrier algebra (property-tested in
``test_segment_properties``) and the full live-ladder scenario: stream
specs, the segment watcher's release timing, per-rung step graphs with
rung-differentiated footprints, and the dispatcher/session wiring that
runs a whole stream on a real (tiny) cluster.
"""

from __future__ import annotations

import pytest

from repro.cluster import CpuWorker, TranscodeCluster, VcuWorker
from repro.sim import Simulator
from repro.transcode import (
    LadderDispatcher,
    SegmentWatcher,
    StreamKind,
    StreamSpec,
    build_segment_graph,
)
from repro.transcode.segments import (
    SegmentRelease,
    rung_key_of,
    segment_index_of,
)
from repro.vcu.host import VcuHost
from repro.vcu.spec import HostSpec
from repro.video.frame import resolution


def live_spec(**overrides):
    base = dict(
        stream_id="live-1",
        kind=StreamKind.LIVE,
        source=resolution("720p"),
        segment_count=4,
        segment_seconds=2.0,
        deadline_seconds=6.0,
    )
    base.update(overrides)
    return StreamSpec(**base)


class TestStreamSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            live_spec(segment_count=0)
        with pytest.raises(ValueError):
            live_spec(segment_seconds=0.0)
        with pytest.raises(ValueError):
            live_spec(codecs=())
        with pytest.raises(ValueError):
            live_spec(codecs=("av1",))
        with pytest.raises(ValueError):
            live_spec(deadline_seconds=-1.0)

    def test_rung_keys_cross_codecs_with_the_output_ladder(self):
        spec = live_spec(codecs=("h264", "vp9"))
        rungs = [r.name for r in spec.rungs()]
        assert rungs[0] == "720p" and "144p" in rungs
        assert spec.rung_keys() == tuple(
            f"{codec}/{name}" for codec in ("h264", "vp9") for name in rungs
        )

    def test_segment_frames_rounds_from_duration(self):
        assert live_spec(segment_seconds=2.0, fps=30.0).segment_frames == 60


class TestSegmentWatcher:
    def collect(self, spec, start_at=0.0):
        sim = Simulator()
        releases = []
        watcher = SegmentWatcher(sim, spec, releases.append)
        sim.call_at(start_at, watcher.start)
        sim.run()
        return releases

    def test_live_segments_drip_one_per_segment_duration(self):
        releases = self.collect(live_spec(segment_count=3), start_at=10.0)
        assert [r.index for r in releases] == [0, 1, 2]
        assert [r.released_at for r in releases] == [12.0, 14.0, 16.0]
        assert [r.deadline for r in releases] == [18.0, 20.0, 22.0]

    def test_upload_segments_all_release_at_start(self):
        spec = live_spec(
            stream_id="up-1", kind=StreamKind.UPLOAD, segment_count=3,
            deadline_seconds=None,
        )
        releases = self.collect(spec, start_at=5.0)
        assert [r.released_at for r in releases] == [5.0, 5.0, 5.0]
        assert all(r.deadline is None for r in releases)

    def test_watcher_cannot_be_started_twice(self):
        sim = Simulator()
        watcher = SegmentWatcher(sim, live_spec(), lambda r: None)
        watcher.start()
        with pytest.raises(RuntimeError):
            watcher.start()


class TestSegmentGraph:
    def graph(self, **overrides):
        spec = live_spec(**overrides)
        release = SegmentRelease(
            stream_id=spec.stream_id, index=2, released_at=6.0, deadline=12.0
        )
        return spec, build_segment_graph(spec, release)

    def test_one_sot_step_per_codec_rung_with_unique_ids(self):
        spec, graph = self.graph(codecs=("h264", "vp9"))
        steps = graph.transcode_steps()
        assert len(steps) == len(spec.rung_keys())
        assert len({s.step_id for s in steps}) == len(steps)
        assert sorted(rung_key_of(s) for s in steps) == sorted(spec.rung_keys())
        assert all(segment_index_of(s) == 2 for s in steps)
        assert all(s.deadline == 12.0 for s in steps)
        assert graph.video_id == "live-1#2"

    def test_footprints_are_rung_differentiated(self):
        _, graph = self.graph()
        by_rung = {s.rung: s.vcu_task for s in graph.transcode_steps()}
        assert by_rung["720p"].output_pixels > by_rung["144p"].output_pixels
        assert not any(task.is_mot for task in by_rung.values())

    def test_only_low_rungs_are_opportunistic(self):
        _, graph = self.graph()
        flags = {s.rung: s.fallback_opportunistic
                 for s in graph.transcode_steps()}
        assert flags["720p"] is False and flags["480p"] is False
        assert flags["360p"] is True and flags["144p"] is True

    def test_opportunistic_ceiling_zero_disables_fallback(self):
        _, graph = self.graph(opportunistic_max_pixels=0)
        assert not any(
            s.fallback_opportunistic for s in graph.transcode_steps()
        )


def tiny_cluster(sim, vcus=2, cpus=1, seed=7):
    host = VcuHost(
        host_spec=HostSpec(
            vcus_per_card=vcus, cards_per_tray=1, trays_per_host=1
        ),
        host_id="seg-host",
    )
    workers = [VcuWorker(v, host=host) for v in host.vcus]
    cpu_workers = [CpuWorker(cores=16, name=f"seg-cpu{i}") for i in range(cpus)]
    return TranscodeCluster(sim, workers, cpu_workers, seed=seed)


class TestDispatcherEndToEnd:
    def run_stream(self, spec, **cluster_kwargs):
        sim = Simulator()
        cluster = tiny_cluster(sim, **cluster_kwargs)
        dispatcher = LadderDispatcher(sim, cluster)
        finished = []
        dispatcher.start_stream(spec, on_final=finished.append)
        sim.run()
        return sim, dispatcher, finished

    def test_live_stream_manifests_in_order_and_records_ttfs(self):
        sim, dispatcher, finished = self.run_stream(live_spec())
        session = dispatcher.session("live-1")
        assert finished == [session] and session.done
        indices = [e.index for e in session.assembler.entries]
        assert indices == [0, 1, 2, 3]
        assert session.assembler.pending_indices() == []
        ttfs = session.assembler.time_to_first_segment
        # First segment releases at 2 s, so TTFS is at least that.
        assert ttfs is not None and ttfs >= 2.0
        metrics = dispatcher.metrics
        started = metrics.counter("ladder.streams.started").value
        assert started == metrics.counter("ladder.streams.completed").value == 1
        released = metrics.counter("ladder.segments.released").value
        assert released == metrics.counter("ladder.manifests.emitted").value == 4
        assert metrics.histogram("ladder.ttfs_seconds").total == 1
        assert metrics.counter("ladder.deadlines.tracked").value == 4

    def test_upload_stream_floods_then_aligns(self):
        spec = live_spec(
            stream_id="up-1", kind=StreamKind.UPLOAD, segment_count=3,
            deadline_seconds=None,
        )
        _, dispatcher, finished = self.run_stream(spec)
        assert len(finished) == 1
        session = dispatcher.session("up-1")
        assert [e.index for e in session.assembler.entries] == [0, 1, 2]
        assert dispatcher.metrics.counter("ladder.deadlines.tracked").value == 0

    def test_queue_waits_are_recorded_per_rung(self):
        _, dispatcher, _ = self.run_stream(live_spec())
        prefix = "ladder.queue_wait."
        names = [n for n in dispatcher.metrics.names() if n.startswith(prefix)]
        rungs = [name[len(prefix):] for name in names]
        assert "720p" in rungs and "144p" in rungs
        for name in names:
            assert dispatcher.metrics.histogram(name).total > 0

    def test_saturated_cluster_takes_opportunistic_fallbacks(self):
        # One VCU against two flooding uploads: low rungs overflow to CPU.
        sim = Simulator()
        cluster = tiny_cluster(sim, vcus=1, cpus=2)
        dispatcher = LadderDispatcher(sim, cluster)
        for n in range(2):
            dispatcher.start_stream(live_spec(
                stream_id=f"up-{n + 1}", kind=StreamKind.UPLOAD,
                segment_count=8, deadline_seconds=None,
            ))
        sim.run()
        assert dispatcher.unfinished() == []
        assert cluster.stats.opportunistic_fallbacks > 0
        assert cluster.stats.software_fallbacks >= (
            cluster.stats.opportunistic_fallbacks
        )

    def test_duplicate_stream_id_is_rejected(self):
        sim = Simulator()
        dispatcher = LadderDispatcher(sim, tiny_cluster(sim))
        dispatcher.start_stream(live_spec())
        with pytest.raises(ValueError):
            dispatcher.start_stream(live_spec())
