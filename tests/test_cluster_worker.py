"""Unit tests for VCU and CPU workers."""

import math

import pytest

from repro.cluster.worker import STEP_OVERHEAD_SECONDS, CpuWorker, VcuWorker
from repro.vcu.chip import IO_BYTES_PER_SECOND, Vcu, VcuTask
from repro.vcu.spec import DEFAULT_VCU_SPEC, EncodingMode
from repro.video.frame import output_ladder, resolution


def make_task(source="720p", is_mot=True, frames=150):
    src = resolution(source)
    return VcuTask(
        codec="h264", mode=EncodingMode.OFFLINE_TWO_PASS,
        input_resolution=src,
        outputs=output_ladder(src) if is_mot else [src],
        frame_count=frames, fps=30.0, is_mot=is_mot,
    )


class TestVcuWorker:
    @pytest.mark.parametrize("param, value", [
        ("target_speedup", 0.0), ("target_speedup", -1.0),
        ("target_speedup", math.nan), ("target_speedup", math.inf),
        ("decode_safety_factor", 0.0), ("decode_safety_factor", 0.5),
        ("decode_safety_factor", math.nan), ("decode_safety_factor", math.inf),
        ("host_multiplier", 0.0), ("host_multiplier", -1.2),
        ("host_multiplier", math.nan), ("host_multiplier", math.inf),
        ("step_overhead_seconds", -5.0), ("step_overhead_seconds", math.nan),
        ("step_overhead_seconds", math.inf),
    ])
    def test_rejects_values_that_would_fail_mid_run(self, param, value):
        # Each of these used to construct and then fail (or, for a NaN
        # speedup, silently never finish) when a step was first placed.
        with pytest.raises(ValueError, match=param):
            VcuWorker(Vcu(DEFAULT_VCU_SPEC), **{param: value})

    def test_accepts_the_boundary_values(self):
        worker = VcuWorker(
            Vcu(DEFAULT_VCU_SPEC), decode_safety_factor=1.0, step_overhead_seconds=0.0,
        )
        task = make_task()
        assert worker.step_seconds(task, worker.request_for(task)) > 0

    def test_step_time_includes_overhead_and_io(self):
        worker = VcuWorker(Vcu(DEFAULT_VCU_SPEC))
        task = make_task()
        request = worker.request_for(task)
        seconds = worker.step_seconds(task, request)
        device = task.duration_seconds / worker.target_speedup
        assert seconds > device + STEP_OVERHEAD_SECONDS * 0.99

    def test_numa_oblivious_slower(self):
        task = make_task()
        aware = VcuWorker(Vcu(DEFAULT_VCU_SPEC), numa_aware=True)
        oblivious = VcuWorker(Vcu(DEFAULT_VCU_SPEC), numa_aware=False)
        request = aware.request_for(task)
        assert oblivious.step_seconds(task, request) > aware.step_seconds(task, request)

    def test_corrupt_vcu_is_fast(self):
        task = make_task()
        healthy = VcuWorker(Vcu(DEFAULT_VCU_SPEC), golden_screening=False)
        bad_vcu = Vcu(DEFAULT_VCU_SPEC)
        bad_vcu.mark_corrupt()
        corrupt = VcuWorker(bad_vcu, golden_screening=False)
        request = healthy.request_for(task)
        assert corrupt.step_seconds(task, request) < healthy.step_seconds(task, request)

    def test_admit_tracks_active_steps(self):
        worker = VcuWorker(Vcu(DEFAULT_VCU_SPEC))
        request = worker.request_for(make_task())
        assert worker.is_idle()
        assert worker.try_admit(request)
        assert not worker.is_idle()
        worker.release(request)
        assert worker.is_idle()

    def test_refused_worker_rejects_admission(self):
        vcu = Vcu(DEFAULT_VCU_SPEC)
        vcu.mark_corrupt()
        worker = VcuWorker(vcu, golden_screening=True)
        assert not worker.try_admit({"milliencode": 1.0})

    def test_quarantine(self):
        worker = VcuWorker(Vcu(DEFAULT_VCU_SPEC))
        assert worker.available()
        worker.abort_and_quarantine()
        assert not worker.available()

    def test_io_time_scales_with_pixels(self):
        # Resolutions small enough that neither task hits the millicore
        # caps (a capped grant would stretch device time and mask I/O).
        worker = VcuWorker(Vcu(DEFAULT_VCU_SPEC))
        small, big = make_task("360p"), make_task("720p")
        small_req, big_req = worker.request_for(small), worker.request_for(big)
        # Same content duration and speedup: the difference is I/O bytes.
        delta = worker.step_seconds(big, big_req) - worker.step_seconds(small, small_req)
        expected_io_delta = (
            (big.input_pixels + big.output_pixels)
            - (small.input_pixels + small.output_pixels)
        ) / 6.1 / 8.0 / IO_BYTES_PER_SECOND
        assert delta == pytest.approx(expected_io_delta, rel=0.05)


class TestCpuWorker:
    def test_transcode_time_uses_skylake_model(self):
        worker = CpuWorker(cores=16)
        task = make_task(is_mot=False, source="1080p")
        request = worker.request_for_transcode(task)
        seconds = worker.transcode_seconds(task, request)
        # 150 frames of 1080p H.264 on 8 cores: minutes, not milliseconds.
        assert 3.0 < seconds < 600.0

    def test_vp9_slower_than_h264(self):
        import dataclasses

        worker = CpuWorker(cores=16)
        h264 = make_task(is_mot=False, source="1080p")
        vp9 = dataclasses.replace(h264, codec="vp9")
        request = worker.request_for_transcode(h264)
        assert worker.transcode_seconds(vp9, request) > 3.0 * worker.transcode_seconds(
            h264, request
        )

    def test_cpu_step_scales_with_grant(self):
        worker = CpuWorker(cores=16)
        one = worker.cpu_step_seconds(8.0, {"cpu_cores": 1.0})
        four = worker.cpu_step_seconds(8.0, {"cpu_cores": 4.0})
        assert one == pytest.approx(4 * four)

    def test_validates_cores(self):
        with pytest.raises(ValueError):
            CpuWorker(cores=0)
