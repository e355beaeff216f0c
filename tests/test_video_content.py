"""Unit tests for the synthetic content generator and vbench suite."""

import numpy as np
import pytest

from repro.video.content import MIN_PROXY_HEIGHT, ContentSpec, SyntheticVideo
from repro.video.gop import chunk_metadata, chunk_video
from repro.video.frame import resolution
from repro.video.vbench import VBENCH_SUITE, materialize, vbench_video


def test_determinism_same_seed():
    spec = ContentSpec(name="x", motion=1.0, noise=1.0)
    a = SyntheticVideo(spec, seed=5, proxy_height=36).frames(3)
    b = SyntheticVideo(spec, seed=5, proxy_height=36).frames(3)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.data, fb.data)


def test_different_seeds_differ():
    spec = ContentSpec(name="x")
    a = SyntheticVideo(spec, seed=1, proxy_height=36).next_frame()
    b = SyntheticVideo(spec, seed=2, proxy_height=36).next_frame()
    assert not np.array_equal(a.data, b.data)


def test_frames_are_in_range():
    spec = ContentSpec(name="x", noise=5.0, detail=1.0)
    for frame in SyntheticVideo(spec, seed=0, proxy_height=36).frames(4):
        assert frame.data.min() >= 0.0
        assert frame.data.max() <= 255.0


def test_motion_moves_content():
    spec = ContentSpec(name="x", motion=3.0, noise=0.0, sprites=4)
    gen = SyntheticVideo(spec, seed=0, proxy_height=36)
    first, second = gen.next_frame(), gen.next_frame()
    assert np.abs(first.data - second.data).mean() > 0.05


def test_static_spec_is_nearly_static():
    spec = ContentSpec(name="x", motion=0.0, noise=0.0, sprites=2)
    gen = SyntheticVideo(spec, seed=0, proxy_height=36)
    first, second = gen.next_frame(), gen.next_frame()
    assert np.abs(first.data - second.data).mean() < 1e-4


def test_scene_change_resets_content():
    spec = ContentSpec(name="x", motion=0.0, noise=0.0, scene_change_every=2)
    gen = SyntheticVideo(spec, seed=0, proxy_height=36)
    frames = gen.frames(3)
    # Frames 0,1 same scene; frame 2 is a new scene.
    assert np.abs(frames[0].data - frames[1].data).mean() < 1e-4
    assert np.abs(frames[1].data - frames[2].data).mean() > 1.0


def test_frame_indices_increment():
    spec = ContentSpec(name="x")
    frames = SyntheticVideo(spec, seed=0, proxy_height=36).frames(3)
    assert [f.index for f in frames] == [0, 1, 2]


def test_nominal_resolution_respected():
    spec = ContentSpec(name="x", resolution_name="2160p")
    video = SyntheticVideo(spec, seed=0, proxy_height=36).video(2)
    assert video.nominal == resolution("2160p")


def test_proxy_height_below_a_sprite_rejected():
    with pytest.raises(ValueError, match="proxy_height must be >= 6"):
        SyntheticVideo(ContentSpec(), proxy_height=MIN_PROXY_HEIGHT - 1)
    frame = SyntheticVideo(ContentSpec(), proxy_height=MIN_PROXY_HEIGHT).next_frame()
    assert frame.data.shape[0] == MIN_PROXY_HEIGHT


class TestVbench:
    def test_suite_has_15_titles(self):
        assert len(VBENCH_SUITE) == 15
        assert len({v.name for v in VBENCH_SUITE}) == 15

    def test_legend_titles_present(self):
        names = {v.name for v in VBENCH_SUITE}
        for expected in ("presentation", "desktop", "holi", "game_1", "cricket"):
            assert expected in names

    def test_difficulty_ranks_are_a_permutation(self):
        ranks = sorted(v.difficulty_rank for v in VBENCH_SUITE)
        assert ranks == list(range(15))

    def test_holi_is_hardest(self):
        holi = vbench_video("holi")
        assert holi.difficulty_rank == 14
        assert holi.spec.noise > vbench_video("presentation").spec.noise

    def test_unknown_title_raises(self):
        with pytest.raises(KeyError):
            vbench_video("nope")

    def test_materialize(self):
        video = materialize(vbench_video("desktop"), frame_count=2, seed=1)
        assert len(video) == 2
        assert video.nominal == resolution("1080p")


class TestChunking:
    def test_chunk_video_partitions_frames(self, tiny_video):
        chunks = chunk_video(tiny_video, gop_frames=2, video_id="v")
        assert [c.frame_count for c in chunks] == [2, 2, 1]
        assert [c.index for c in chunks] == [0, 1, 2]
        assert all(c.video_id == "v" for c in chunks)

    def test_chunk_ids_unique(self, tiny_video):
        chunks = chunk_video(tiny_video, gop_frames=2, video_id="v")
        assert len({c.chunk_id for c in chunks}) == len(chunks)

    def test_chunk_duration(self, tiny_video):
        chunks = chunk_video(tiny_video, gop_frames=3)
        assert chunks[0].duration_seconds == pytest.approx(3 / tiny_video.fps)

    def test_metadata_chunking_matches_paper_example(self):
        # A 150-frame 2160p chunk is 5 seconds at 30 FPS (Section 4.5).
        chunks = chunk_metadata("v", total_frames=150, fps=30, nominal=resolution("2160p"))
        assert len(chunks) == 1
        assert chunks[0].duration_seconds == pytest.approx(5.0)
        assert chunks[0].frames is None

    def test_metadata_chunking_counts(self):
        chunks = chunk_metadata("v", total_frames=400, fps=30, nominal=resolution("720p"))
        assert [c.frame_count for c in chunks] == [150, 150, 100]

    def test_bad_gop_rejected(self, tiny_video):
        with pytest.raises(ValueError):
            chunk_video(tiny_video, gop_frames=0)
