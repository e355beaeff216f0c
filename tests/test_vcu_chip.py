"""Tests for the VCU chip model: tasks, resource requests, health."""

import math

import pytest

from repro.vcu.chip import (
    Vcu,
    VcuTask,
    decode_core_seconds,
    dram_footprint_bytes,
    encode_core_seconds,
    processing_seconds,
    resource_request,
)
from repro.vcu.spec import DEFAULT_VCU_SPEC, EncodingMode
from repro.vcu.telemetry import FaultKind
from repro.video.frame import output_ladder, resolution

SPEC = DEFAULT_VCU_SPEC


def make_task(codec="h264", mode=EncodingMode.OFFLINE_TWO_PASS, source="1080p",
              is_mot=True, software_decode=False, frames=150, fps=30.0):
    src = resolution(source)
    outputs = output_ladder(src) if is_mot else [src]
    return VcuTask(
        codec=codec, mode=mode, input_resolution=src, outputs=outputs,
        frame_count=frames, fps=fps, is_mot=is_mot, software_decode=software_decode,
    )


class TestVcuTask:
    def test_pixels_accounting(self):
        task = make_task()
        ladder_px = sum(r.pixels for r in output_ladder(resolution("1080p")))
        assert task.output_pixels == ladder_px * 150
        assert task.input_pixels == resolution("1080p").pixels * 150
        assert task.duration_seconds == pytest.approx(5.0)

    def test_sot_single_output_enforced(self):
        with pytest.raises(ValueError):
            VcuTask(
                codec="h264", mode=EncodingMode.OFFLINE_TWO_PASS,
                input_resolution=resolution("1080p"),
                outputs=[resolution("1080p"), resolution("720p")],
                frame_count=10, fps=30, is_mot=False,
            )

    @pytest.mark.parametrize("fps", [math.nan, math.inf, -math.inf, 0.0])
    def test_fps_must_be_finite_and_positive(self, fps):
        # A NaN rate priced every step at NaN millicores, which nothing
        # fits, and an infinite one divided by zero at the first placement.
        with pytest.raises(ValueError, match="fps"):
            make_task(fps=fps)

    def test_outputs_required(self):
        with pytest.raises(ValueError):
            make_task().__class__(
                codec="h264", mode=EncodingMode.OFFLINE_TWO_PASS,
                input_resolution=resolution("1080p"), outputs=[],
                frame_count=10, fps=30,
            )


class TestCosts:
    def test_mot_encode_cheaper_per_pixel_than_sot(self):
        mot = make_task(is_mot=True)
        sot = make_task(is_mot=False)
        mot_per_px = encode_core_seconds(mot, SPEC) / mot.output_pixels
        sot_per_px = encode_core_seconds(sot, SPEC) / sot.output_pixels
        assert mot_per_px < sot_per_px

    def test_software_decode_frees_hardware_decoders(self):
        hw = make_task(software_decode=False)
        sw = make_task(software_decode=True)
        assert decode_core_seconds(hw, SPEC) > 0
        assert decode_core_seconds(sw, SPEC) == 0.0

    def test_offline_decodes_twice(self):
        offline = make_task(mode=EncodingMode.OFFLINE_TWO_PASS)
        realtime = make_task(mode=EncodingMode.LOW_LATENCY_ONE_PASS)
        assert decode_core_seconds(offline, SPEC) == pytest.approx(
            2 * decode_core_seconds(realtime, SPEC)
        )

    def test_dram_footprint_paper_bands(self):
        # Appendix A.4: ~700 MiB per 2160p MOT, ~500 MiB per SOT.
        MiB = 1024**2
        mot = dram_footprint_bytes(make_task(source="2160p", is_mot=True), SPEC) / MiB
        sot = dram_footprint_bytes(make_task(source="2160p", is_mot=False), SPEC) / MiB
        assert 500 <= mot <= 900
        assert 350 <= sot <= 650
        assert mot > sot

    def test_low_latency_footprint_smaller(self):
        offline = dram_footprint_bytes(make_task(source="2160p"), SPEC)
        low = dram_footprint_bytes(
            make_task(source="2160p", mode=EncodingMode.LOW_LATENCY_ONE_PASS), SPEC
        )
        assert low < offline


class TestResourceRequest:
    def test_request_has_scheduler_dimensions(self):
        request = resource_request(make_task(), SPEC, target_speedup=5.0)
        assert set(request) == {"milliencode", "millidecode", "dram_bytes", "host_decode"}
        assert 0 < request["milliencode"] <= SPEC.milliencode
        assert 0 < request["millidecode"] <= SPEC.millidecode

    def test_faster_target_needs_more_cores(self):
        slow = resource_request(make_task(), SPEC, target_speedup=1.0)
        fast = resource_request(make_task(), SPEC, target_speedup=4.0)
        assert fast["milliencode"] == pytest.approx(4 * slow["milliencode"], rel=0.01)

    def test_decode_safety_factor_inflates_decode_only(self):
        base = resource_request(make_task(), SPEC, target_speedup=5.0)
        inflated = resource_request(
            make_task(), SPEC, target_speedup=5.0, decode_safety_factor=2.0
        )
        assert inflated["millidecode"] == pytest.approx(2 * base["millidecode"])
        assert inflated["milliencode"] == base["milliencode"]

    def test_software_decode_uses_synthetic_dimension(self):
        request = resource_request(make_task(software_decode=True), SPEC, 5.0)
        assert request["millidecode"] == 0.0
        assert request["host_decode"] > 0

    def test_processing_time_respects_grant(self):
        task = make_task()
        request = resource_request(task, SPEC, target_speedup=5.0)
        wall = processing_seconds(task, SPEC, request)
        assert wall == pytest.approx(task.duration_seconds / 5.0, rel=0.05)

    def test_processing_requires_cores(self):
        with pytest.raises(ValueError):
            processing_seconds(make_task(), SPEC, {"milliencode": 0})

    def test_bad_speedup_rejected(self):
        with pytest.raises(ValueError):
            resource_request(make_task(), SPEC, target_speedup=0)


class TestVcuHealth:
    def test_admission_and_release(self):
        vcu = Vcu(SPEC)
        request = resource_request(make_task(), SPEC, 5.0)
        assert vcu.try_admit(request)
        assert vcu.encoder_utilization() > 0
        vcu.release(request)
        assert vcu.resources.is_idle()
        assert vcu.completed_tasks == 1

    def test_disabled_vcu_rejects_work(self):
        vcu = Vcu(SPEC)
        vcu.disable()
        assert not vcu.try_admit({"milliencode": 1})

    def test_golden_check_detects_corruption(self):
        vcu = Vcu(SPEC)
        assert vcu.golden_check()
        vcu.mark_corrupt()
        assert not vcu.golden_check()
        vcu.enable()
        assert vcu.golden_check()

    def test_telemetry_thresholds(self):
        vcu = Vcu(SPEC)
        assert not vcu.telemetry.should_disable()
        vcu.telemetry.record(FaultKind.ECC_UNCORRECTABLE, count=3)
        assert vcu.telemetry.should_disable()

    def test_telemetry_snapshot(self):
        vcu = Vcu(SPEC)
        vcu.telemetry.record(FaultKind.RESET)
        snapshot = vcu.telemetry.snapshot()
        assert snapshot["reset"] == 1.0
        assert "temperature_c" in snapshot
