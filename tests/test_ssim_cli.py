"""Tests for the SSIM metric and the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.codec.encoder import encode_video
from repro.codec.profiles import LIBX264
from repro.metrics.ssim import sequence_ssim, ssim
from repro.video.frame import Frame, resolution


class TestSsim:
    def test_identical_is_one(self):
        plane = np.random.default_rng(0).uniform(0, 255, (16, 16))
        assert ssim(plane, plane) == pytest.approx(1.0)

    def test_noise_lowers_score(self):
        rng = np.random.default_rng(1)
        plane = rng.uniform(0, 255, (32, 32))
        noisy = plane + rng.normal(0, 25, plane.shape)
        assert ssim(plane, noisy) < 0.95

    def test_more_noise_is_worse(self):
        rng = np.random.default_rng(2)
        plane = rng.uniform(50, 200, (32, 32))
        little = plane + rng.normal(0, 5, plane.shape)
        lots = plane + rng.normal(0, 40, plane.shape)
        assert ssim(plane, lots) < ssim(plane, little)

    def test_luminance_shift_penalized(self):
        plane = np.random.default_rng(3).uniform(50, 200, (16, 16))
        shifted = plane + 40.0
        assert ssim(plane, shifted) < 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((8, 8)), np.zeros((8, 9)))

    def test_tiny_plane_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4)), np.zeros((4, 4)), window=8)

    def test_tracks_encoder_quality(self, tiny_video):
        """Lower QP (better PSNR) also means better SSIM."""
        res = tiny_video.nominal
        good = encode_video(tiny_video, LIBX264, qp=18)
        bad = encode_video(tiny_video, LIBX264, qp=46)
        good_frames = [Frame(f.recon.astype(np.float32), res, f.index) for f in good.frames]
        bad_frames = [Frame(f.recon.astype(np.float32), res, f.index) for f in bad.frames]
        assert sequence_ssim(tiny_video.frames, good_frames) > sequence_ssim(
            tiny_video.frames, bad_frames
        )

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            sequence_ssim([], [])


class TestCli:
    def test_table1(self, tmp_path, capsys):
        # Table 1's rows come from its registered experiment.
        assert main(["run", "--only", "table1-throughput", "--no-cache",
                     "--out", str(tmp_path / "table1.json")]) == 0
        out = capsys.readouterr().out
        assert "| 20xVCU | h264 | 14931.3 |" in out

    def test_balance(self, capsys):
        assert main(["balance"]) == 0
        out = capsys.readouterr().out
        assert "Gpixel/s per host" in out
        assert "realtime 30" in out

    def test_gaming(self, capsys):
        assert main(["gaming"]) == 0
        out = capsys.readouterr().out
        assert "meets" in out and "MISSES" in out

    def test_live(self, capsys):
        assert main(["live", "--duration", "30"]) == 0
        out = capsys.readouterr().out
        assert "software" in out and "VCU" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
