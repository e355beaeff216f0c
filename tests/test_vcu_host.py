"""Tests for cards, trays, hosts, and the pipeline efficiency model."""

import pytest

from repro.vcu.cores import (
    DEFAULT_PIPELINE,
    DecoderCoreModel,
    EncoderCoreModel,
    pipeline_efficiency,
)
from repro.vcu.host import VcuHost
from repro.vcu.spec import EncodingMode
from repro.vcu.telemetry import FaultKind
from repro.video.frame import resolution


class TestHostHierarchy:
    def test_host_has_20_vcus(self):
        host = VcuHost()
        assert len(host.vcus) == 20
        assert len(host.trays) == 2
        assert all(len(t.cards) == 5 for t in host.trays)

    def test_vcu_ids_unique(self):
        host = VcuHost()
        ids = [v.vcu_id for v in host.vcus]
        assert len(set(ids)) == 20

    def test_disable_single_vcu_keeps_rest(self):
        # Independent power rails: one swept VCU is disabled alone.
        host = VcuHost()
        host.vcus[3].telemetry.record(FaultKind.ECC_UNCORRECTABLE, count=5)
        host.sweep_telemetry()
        assert len(host.healthy_vcus()) == 19
        assert not host.unusable

    def test_component_faults_mark_host_unusable(self):
        # Every sweep disable is a component fault; the host's budget of
        # them takes the whole host out.
        host = VcuHost()
        for vcu in host.vcus[:host.fault_budget]:
            vcu.telemetry.record(FaultKind.ECC_UNCORRECTABLE, count=5)
        assert len(host.sweep_telemetry()) == host.fault_budget
        assert host.unusable
        assert host.healthy_vcus() == []

    def test_telemetry_sweep_disables_faulty_vcus(self):
        host = VcuHost()
        host.vcus[0].telemetry.record(FaultKind.ECC_UNCORRECTABLE, count=5)
        disabled = host.sweep_telemetry()
        assert [v.vcu_id for v in disabled] == [host.vcus[0].vcu_id]
        assert host.vcus[0].disabled

    def test_numa_oblivious_pays_penalty(self):
        aware = VcuHost(numa_aware=True)
        oblivious = VcuHost(numa_aware=False)
        assert aware.throughput_multiplier == 1.0
        gain = aware.throughput_multiplier / oblivious.throughput_multiplier
        assert 1.16 <= gain <= 1.25  # the paper's 16-25% NUMA gains


class TestCoreModels:
    def test_encoder_realtime_fps_anchor(self):
        model = EncoderCoreModel()
        fps = model.realtime_fps("h264", 3840, 2160, EncodingMode.LOW_LATENCY_ONE_PASS)
        assert fps >= 60.0

    def test_encode_seconds_scale_linearly(self):
        model = EncoderCoreModel()
        one = model.encode_seconds(1e6, "h264", EncodingMode.OFFLINE_TWO_PASS)
        two = model.encode_seconds(2e6, "h264", EncodingMode.OFFLINE_TWO_PASS)
        assert two == pytest.approx(2 * one)

    def test_dram_bytes_compression_modes(self):
        model = EncoderCoreModel()
        typical = model.dram_bytes(1e6)
        worst = model.dram_bytes(1e6, worst_case=True)
        raw = model.dram_bytes(1e6, reference_compression=False)
        assert typical < worst < raw

    def test_decoder_bandwidth_anchor(self):
        # The decoder consistently uses 2.2 GiB/s while active.
        model = DecoderCoreModel()
        assert model.dram_bytes(1.0) == pytest.approx(2.2 * 1024**3)

    def test_negative_pixels_rejected(self):
        with pytest.raises(ValueError):
            EncoderCoreModel().encode_seconds(-1, "h264", EncodingMode.OFFLINE_TWO_PASS)


class TestPipelineModel:
    def test_fifos_recover_variability_loss(self):
        # Section 3.2: stages are decoupled with FIFOs because per-block
        # cost variability would otherwise stall the pipeline.
        rigid = pipeline_efficiency(fifo_depth=0)
        decoupled = pipeline_efficiency(fifo_depth=8)
        assert rigid < 0.70
        assert decoupled > 0.90
        assert pipeline_efficiency(fifo_depth=64) > decoupled

    def test_stage_names_match_figure4(self):
        names = [s.name for s in DEFAULT_PIPELINE]
        assert names[0].startswith("motion_estimation")
        assert len(names) == 3

    def test_negative_fifo_rejected(self):
        with pytest.raises(ValueError):
            pipeline_efficiency(fifo_depth=-1)
