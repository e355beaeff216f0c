"""Tests for ladders, workload modes, and step-graph construction."""

import pytest

from repro.transcode import (
    LadderPolicy,
    PopularityBucket,
    StepKind,
    WorkloadClass,
    build_transcode_graph,
    mode_for,
    variants_for,
)
from repro.transcode.pipeline import StepGraph, Step
from repro.vcu.spec import EncodingMode
from repro.video.frame import resolution


class TestLadder:
    def test_cold_videos_get_h264_only(self):
        variants = variants_for(resolution("1080p"), PopularityBucket.COLD)
        codecs = {codec for codec, _ in variants}
        assert codecs == {"h264"}

    def test_hot_videos_get_both_formats(self):
        variants = variants_for(resolution("1080p"), PopularityBucket.HOT)
        codecs = {codec for codec, _ in variants}
        assert codecs == {"h264", "vp9"}

    def test_software_era_defers_vp9(self):
        policy = LadderPolicy(vp9_at_upload=False)
        variants = policy.variants(resolution("1080p"), PopularityBucket.HOT)
        assert {codec for codec, _ in variants} == {"h264"}

    def test_full_ladder_for_each_format(self):
        variants = variants_for(resolution("720p"), PopularityBucket.WARM)
        per_codec = [r for codec, r in variants if codec == "vp9"]
        assert [r.name for r in per_codec] == ["720p", "480p", "360p", "240p", "144p"]


class TestModes:
    def test_upload_is_offline_two_pass(self):
        assert mode_for(WorkloadClass.UPLOAD).mode is EncodingMode.OFFLINE_TWO_PASS

    def test_live_is_lagged_with_tight_latency(self):
        live = mode_for(WorkloadClass.LIVE)
        assert live.mode is EncodingMode.LAGGED_TWO_PASS
        assert live.latency_target_seconds <= 5.0

    def test_gaming_is_low_latency_two_pass(self):
        gaming = mode_for(WorkloadClass.GAMING)
        assert gaming.mode is EncodingMode.LOW_LATENCY_TWO_PASS
        assert gaming.latency_target_seconds <= 0.1


class TestGraphBuilding:
    def build(self, **kwargs):
        defaults = dict(
            video_id="v1", source=resolution("1080p"), total_frames=450,
            fps=30.0, bucket=PopularityBucket.WARM,
        )
        defaults.update(kwargs)
        return build_transcode_graph(**defaults)

    def test_mot_step_count(self):
        # 450 frames -> 3 chunks; 2 codecs -> 6 MOT steps.
        graph = self.build(use_mot=True)
        assert len(graph.transcode_steps()) == 6
        assert all(s.vcu_task.is_mot for s in graph.transcode_steps())

    def test_sot_step_count(self):
        # 3 chunks x 2 codecs x 6 rungs = 36 SOT steps.
        graph = self.build(use_mot=False)
        assert len(graph.transcode_steps()) == 36
        assert all(not s.vcu_task.is_mot for s in graph.transcode_steps())

    def test_sot_and_mot_produce_same_pixels(self):
        mot = self.build(use_mot=True)
        sot = self.build(use_mot=False)
        assert mot.output_megapixels() == pytest.approx(sot.output_megapixels())

    def test_assembly_depends_on_all_transcodes(self):
        graph = self.build()
        assemble = [s for s in graph.steps if s.kind is StepKind.ASSEMBLE]
        assert len(assemble) == 1
        assert set(assemble[0].depends_on) == set(graph.transcode_steps())

    def test_non_transcode_steps_present(self):
        graph = self.build()
        kinds = {s.kind for s in graph.steps}
        assert StepKind.THUMBNAIL in kinds
        assert StepKind.FINGERPRINT in kinds
        assert StepKind.SEARCH_SIGNALS in kinds

    def test_step_ids_unique(self):
        graph = self.build()
        ids = [s.step_id for s in graph.steps]
        assert len(set(ids)) == len(ids)

    def test_cold_bucket_halves_transcodes(self):
        cold = self.build(bucket=PopularityBucket.COLD)
        warm = self.build(bucket=PopularityBucket.WARM)
        assert len(cold.transcode_steps()) * 2 == len(warm.transcode_steps())

    def test_cycle_detection(self):
        a = Step(step_id="a", kind=StepKind.ASSEMBLE, video_id="v")
        b = Step(step_id="b", kind=StepKind.ASSEMBLE, video_id="v", depends_on=[a])
        a.depends_on.append(b)
        with pytest.raises(ValueError):
            StepGraph(video_id="v", steps=[a, b], workload=WorkloadClass.UPLOAD)

    def test_a_graph_needs_a_step(self):
        # A cluster finishes a graph with its last step, so an empty one
        # would sit in the cluster forever, never reported done.
        with pytest.raises(ValueError, match="'empty'"):
            StepGraph(video_id="empty", steps=[], workload=WorkloadClass.UPLOAD)

    def test_software_decode_flag_propagates(self):
        graph = self.build(software_decode=True)
        assert all(s.vcu_task.software_decode for s in graph.transcode_steps())
