"""Each distinct VCU task is priced once (DESIGN.md "A task is priced once").

The step-graph builder gives equal transcode steps one ``VcuTask``
through a weak intern table, and the task memoises its price: the
resource request per worker configuration, the device time per spec and
granted request, and its I/O time.  The scheduler finds a request's
shape by the request's identity.  These tests pin that the sharing is
exact: equal tasks are one object and unequal ones are not, a memoised
value equals the unmemoised expression bit for bit on every worker of a
heterogeneous fleet, nothing outlives its simulation, a request's
identity can never hand a later object a stale shape, and a saturated
month places every step exactly where the linear-scan oracle does.
"""

from __future__ import annotations

import gc
import weakref
from types import MappingProxyType

import pytest

from repro.cluster import CpuWorker, VcuWorker
from repro.cluster.scheduler import BinPackingScheduler
from repro.cluster.timeline import default_timeline, run_month
from repro.transcode import build_transcode_graph, pipeline
from repro.transcode.segments import (
    SegmentRelease,
    StreamKind,
    StreamSpec,
    build_segment_graph,
)
from repro.vcu.chip import (
    IO_BYTES_PER_SECOND,
    PIXELS_PER_BIT,
    Vcu,
    processing_seconds,
    resource_request,
)
from repro.vcu.spec import DEFAULT_VCU_SPEC, VcuSpec
from repro.video.frame import resolution
from tests.oracles.scheduler import place_scan

SOURCE = resolution("720p")


def _tasks(graph):
    return [step.vcu_task for step in graph.transcode_steps()]


class TestInterning:
    def test_equal_chunks_share_one_task(self):
        first = build_transcode_graph("ti-a", SOURCE, 450, 30.0)
        second = build_transcode_graph("ti-b", SOURCE, 450, 30.0)
        a, b = _tasks(first), _tasks(second)
        assert len(a) == len(b) == 6  # 3 chunks x 2 codecs
        assert all(x is y for x, y in zip(a, b))
        # Within one video, equal chunks share too.
        assert a[0] is a[2] and a[1] is a[3]

    def test_a_short_last_chunk_or_another_rung_is_another_task(self):
        graph = build_transcode_graph("ti-short", SOURCE, 400, 30.0)
        tasks = _tasks(graph)
        assert tasks[-1].frame_count == 100 and tasks[0].frame_count == 150
        assert tasks[-1] is not tasks[0] and tasks[-1] != tasks[0]
        sot = _tasks(build_transcode_graph("ti-sot", SOURCE, 150, 30.0, use_mot=False))
        assert len({id(task) for task in sot}) == len(sot) > 1
        assert len({(task.codec, task.outputs[0].name) for task in sot}) == len(sot)

    def test_segments_and_chunks_share_equal_tasks(self):
        spec = StreamSpec(
            "ti-stream", StreamKind.UPLOAD, SOURCE, segment_count=2,
            segment_seconds=5.0, fps=30.0,
        )
        segment = build_segment_graph(spec, SegmentRelease("ti-stream", 0, 0.0))
        later = build_segment_graph(spec, SegmentRelease("ti-stream", 1, 5.0))
        chunked = build_transcode_graph(
            "ti-chunks", SOURCE, 150, 30.0, use_mot=False
        )
        by_rung = {
            (task.codec, task.outputs[0].name): task for task in _tasks(chunked)
        }
        shared = 0
        for step, again in zip(segment.transcode_steps(), later.transcode_steps()):
            assert step.vcu_task is again.vcu_task
            twin = by_rung.get((step.vcu_task.codec, step.rung))
            if twin is not None:
                assert twin == step.vcu_task and twin is step.vcu_task
                shared += 1
        assert shared > 0

    def test_a_name_reused_by_another_resolution_is_not_merged(self):
        own = _tasks(build_transcode_graph("ti-real", SOURCE, 150, 30.0))
        impostor = type(SOURCE)(
            pixels=1280 * 800, width=1280, height=800, name=SOURCE.name
        )
        other = _tasks(build_transcode_graph("ti-impostor", impostor, 150, 30.0))
        # Same names in and out, so the same intern key as ``own``.
        assert [
            [r.name for r in task.outputs] for task in other
        ] == [[r.name for r in task.outputs] for task in own]
        for mine, theirs in zip(own, other):
            assert theirs.input_resolution is impostor
            assert theirs is not mine and theirs != mine

    def test_a_finished_month_leaves_no_task_and_no_cycle(self, monkeypatch):
        class CountingTable(weakref.WeakValueDictionary):
            stored = 0

            def __setitem__(self, key, value):
                type(self).stored += 1
                super().__setitem__(key, value)

        table = CountingTable()
        monkeypatch.setattr(pipeline, "_TASKS", table)
        month = default_timeline(16)[7]

        def run():
            return run_month(month, horizon_seconds=10.0, seed=5)

        run()  # warm-up: first runs fill import-time caches
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = run()
            garbage = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert result.total_megapixels > 0 and CountingTable.stored > 0
        assert len(table) == 0
        assert garbage == 0


def _task(total_frames=150, source=SOURCE, software_decode=False):
    graph = build_transcode_graph(
        "tp-v", source, total_frames, 30.0, software_decode=software_decode
    )
    return _tasks(graph)[0]


class TestMemo:
    def test_a_memoised_request_equals_a_fresh_one(self):
        slow = VcuSpec(encode_pixel_rate={"h264": 250e6, "vp9": 260e6})
        for software_decode in (False, True):
            task = _task(software_decode=software_decode)
            for spec in (DEFAULT_VCU_SPEC, slow):
                for speedup, safety in ((5.0, 1.0), (5.0, 2.2), (2.5, 1.0)):
                    request = task.priced_request(spec, speedup, safety)
                    assert dict(request) == resource_request(task, spec, speedup, safety)
                    assert task.priced_request(spec, speedup, safety) is request
        fast = _task().priced_request(DEFAULT_VCU_SPEC, 5.0, 1.0)
        assert fast != _task().priced_request(slow, 5.0, 1.0)

    def test_a_shared_request_cannot_be_written(self):
        worker = VcuWorker(Vcu(DEFAULT_VCU_SPEC, vcu_id="tp-ro"))
        request = worker.request_for(_task())
        assert isinstance(request, MappingProxyType)
        with pytest.raises(TypeError):
            request["milliencode"] = 0.0
        with pytest.raises(TypeError):
            del request["dram_bytes"]
        cpu = CpuWorker(cores=6, name="tp-cpu")
        for shared in (cpu.request_for_cpu_step(1.0), cpu.request_for_transcode(_task())):
            with pytest.raises(TypeError):
                shared["cpu_cores"] = 99.0
        assert cpu.request_for_cpu_step(2.0) is cpu.request_for_cpu_step(3.0)
        assert dict(cpu.request_for_cpu_step(1.0)) == {"cpu_cores": 4.0}
        assert dict(cpu.request_for_transcode(_task())) == {"cpu_cores": 6}

    def test_a_caller_owned_grant_is_never_remembered(self):
        task = _task()
        granted = {"milliencode": 4000.0, "millidecode": 1000.0}
        before = task.device_seconds(DEFAULT_VCU_SPEC, granted)
        granted["milliencode"] = 2000.0
        after = task.device_seconds(DEFAULT_VCU_SPEC, granted)
        assert after == processing_seconds(task, DEFAULT_VCU_SPEC, granted) > before

    def test_step_seconds_is_the_unmemoised_expression_on_every_worker(self):
        """Probe and placed workers differ in spec, host multiplier and
        corrupt flag; every pairing reads the same bits as the expression
        the memo replaced, whichever worker priced the task first."""
        specs = (
            DEFAULT_VCU_SPEC,
            VcuSpec(encode_pixel_rate={"h264": 250e6, "vp9": 260e6}),
            VcuSpec(decode_pixel_rate=300e6),
        )
        workers = []
        for i, spec in enumerate(specs):
            for multiplier in (1.0, 1.0 / 1.20):
                worker = VcuWorker(
                    Vcu(spec, vcu_id=f"tp-h{i}-{multiplier:.2f}"),
                    host_multiplier=multiplier, decode_safety_factor=1.0 + i,
                )
                workers.append(worker)
        workers[1].vcu.mark_corrupt()
        workers[4].vcu.mark_corrupt()
        tasks = [_task(), _task(100), _task(source=resolution("1080p")),
                 _task(software_decode=True)]

        def unmemoised(worker, task, granted):
            spec = worker.vcu.spec
            device = processing_seconds(task, spec, granted)
            pixels = float(task.input_resolution.pixels * task.frame_count) + float(
                sum(r.pixels for r in task.outputs) * task.frame_count
            )
            io = pixels / PIXELS_PER_BIT / 8.0 / IO_BYTES_PER_SECOND
            if worker.vcu.corrupt:
                device *= 0.3
            return device / worker.host_multiplier + worker.step_overhead_seconds + io

        for rounds in range(2):  # the first round fills the memo
            for task in tasks:
                for probe in workers[::-1] if rounds else workers:
                    granted = probe.request_for(task)
                    for placed in workers:
                        assert placed.step_seconds(task, granted) == unmemoised(
                            placed, task, granted
                        )


def _read_only(**request):
    return MappingProxyType(request)


class TestShapeIdentity:
    def test_a_reused_request_id_gets_its_own_shape(self):
        workers = [VcuWorker(Vcu(DEFAULT_VCU_SPEC, vcu_id=f"tp-s{i}")) for i in range(2)]
        scheduler = BinPackingScheduler(workers)
        first = _read_only(milliencode=9000.0)
        assert scheduler.place(first) is workers[0]
        second = _read_only(milliencode=9000.0)  # takes the shape's pin over
        assert scheduler.place(second) is workers[1]
        stale = id(first)
        del first
        held = []
        fresh = _read_only(milliencode=500.0)
        while id(fresh) != stale and len(held) < 1000:
            held.append(fresh)
            fresh = _read_only(milliencode=500.0)
        assert id(fresh) == stale, "the allocator never reused the freed id"
        # Both workers have 1,000 millicores left: the small request fits,
        # where the 9,000-millicore shape it would inherit fits nowhere.
        assert scheduler.place(fresh) is workers[0]
        assert scheduler._shape_of[stale][3] is fresh

    def test_a_written_dict_is_placed_by_its_new_items(self):
        workers = [VcuWorker(Vcu(DEFAULT_VCU_SPEC, vcu_id=f"tp-w{i}")) for i in range(2)]
        scheduler = BinPackingScheduler(workers)
        request = {"milliencode": 9000.0}
        assert scheduler.place(request) is workers[0]
        request["milliencode"] = 500.0
        assert scheduler.place(request) is workers[0]
        request["milliencode"] = 9000.0
        assert scheduler.place(request) is workers[1]
        assert scheduler.place(request) is None
        assert not scheduler._shape_of

    def test_a_saturated_month_places_like_the_scan(self, monkeypatch):
        month = default_timeline(7)[6]
        place = BinPackingScheduler.place

        def decisions(placer):
            made = []

            def recorded(scheduler, request, excluded=frozenset(), preference=None):
                worker = placer(scheduler, request, excluded, preference)
                made.append(None if worker is None else worker.name)
                return worker

            monkeypatch.setattr(BinPackingScheduler, "place", recorded)
            result = run_month(month, horizon_seconds=20.0, seed=5)
            return made, result.total_megapixels

        indexed, indexed_mpix = decisions(place)
        scanned, scanned_mpix = decisions(place_scan)
        assert indexed == scanned and indexed_mpix == scanned_mpix
        assert indexed.count(None) > len(indexed) // 2
