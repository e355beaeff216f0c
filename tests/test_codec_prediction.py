"""Unit tests for intra prediction and motion search."""

import numpy as np
import pytest

from repro.codec.prediction import (
    MotionVector,
    best_inter,
    best_intra,
    intra_predict,
    motion_search,
    sample_block,
)
from tests.oracles.codec import motion_search_reference


def _plane(height=32, width=32, seed=0):
    return np.random.default_rng(seed).uniform(0, 255, (height, width))


def _smooth_plane(height=32, width=32, seed=0):
    """A textured-but-smooth plane so SAD landscapes have a clean minimum."""
    rough = np.random.default_rng(seed).uniform(0, 255, (height, width))
    padded = np.pad(rough, 2, mode="wrap")
    out = np.zeros_like(rough)
    for dy in range(5):
        for dx in range(5):
            out += padded[dy : dy + height, dx : dx + width]
    return out / 25.0


class TestIntra:
    def test_dc_without_neighbours_is_mid_grey(self):
        recon = np.zeros((16, 16))
        prediction = intra_predict(recon, 0, 0, 8, "dc")
        np.testing.assert_allclose(prediction, 128.0)

    def test_dc_uses_neighbour_mean(self):
        recon = np.zeros((16, 16))
        recon[3, 4:12] = 100.0  # top row of block at (4,4)
        recon[4:12, 3] = 50.0  # left column
        prediction = intra_predict(recon, 4, 4, 8, "dc")
        np.testing.assert_allclose(prediction, 75.0)

    def test_vertical_copies_top_row(self):
        recon = np.zeros((16, 16))
        recon[3, 4:12] = np.arange(8)
        prediction = intra_predict(recon, 4, 4, 8, "vertical")
        np.testing.assert_array_equal(prediction[0], np.arange(8))
        np.testing.assert_array_equal(prediction[7], np.arange(8))

    def test_horizontal_copies_left_column(self):
        recon = np.zeros((16, 16))
        recon[4:12, 3] = np.arange(8)
        prediction = intra_predict(recon, 4, 4, 8, "horizontal")
        np.testing.assert_array_equal(prediction[:, 0], np.arange(8))
        np.testing.assert_array_equal(prediction[:, 7], np.arange(8))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            intra_predict(np.zeros((8, 8)), 0, 0, 4, "wavelet")

    def test_best_intra_picks_lower_sad(self):
        recon = np.zeros((16, 16))
        recon[3, 4:12] = 200.0
        block = np.full((8, 8), 200.0)
        mode, prediction, sad = best_intra(block, recon, 4, 4, 8, candidate_rounds=2)
        assert mode == "vertical"
        assert sad == pytest.approx(0.0)

    def test_candidate_rounds_bound_mode_set(self):
        recon = np.zeros((16, 16))
        block = np.zeros((8, 8))
        # With one round only 3 modes are tried; tm excluded either way here,
        # just verify it runs and returns a valid mode.
        mode, _, _ = best_intra(block, recon, 4, 4, 8, candidate_rounds=1)
        assert mode in ("dc", "vertical", "horizontal")


class TestSampleBlock:
    def test_integer_position_is_exact(self):
        plane = _plane()
        block = sample_block(plane, 4, 6, 8)
        np.testing.assert_array_equal(block, plane[4:12, 6:14])

    def test_out_of_frame_returns_none(self):
        plane = _plane()
        assert sample_block(plane, -1, 0, 8) is None
        assert sample_block(plane, 0, 28, 8) is None

    def test_half_pel_interpolates(self):
        plane = np.zeros((8, 8))
        plane[:, 4] = 100.0
        block = sample_block(plane, 0, 3.5, 4)
        assert block[0, 0] == pytest.approx(50.0)  # between columns 3 and 4
        assert block[0, 1] == pytest.approx(50.0)  # between columns 4 and 5
        assert block[0, 2] == pytest.approx(0.0)  # between columns 5 and 6


class TestMotionSearch:
    def test_finds_pure_translation(self):
        reference = _smooth_plane(seed=3)
        dy, dx = 3, -2
        y, x, size = 8, 8, 8
        source = reference[y + dy : y + dy + size, x + dx : x + dx + size]
        mv, prediction, sad = motion_search(
            source, reference, y, x, size, search_range=8, half_pel=False
        )
        assert (mv.dy, mv.dx) == (dy, dx)
        assert sad == pytest.approx(0.0)

    def test_respects_search_range(self):
        reference = _plane(seed=4)
        source = reference[20:28, 20:28]
        mv, _, _ = motion_search(
            source, reference, 0, 0, 8, search_range=4, half_pel=False
        )
        assert abs(mv.dy) <= 4.5 and abs(mv.dx) <= 4.5

    def test_half_pel_improves_subpixel_motion(self):
        # Build a reference and a source shifted by half a pixel.
        plane = _plane(16, 16, seed=5)
        shifted = (plane[:, :-1] + plane[:, 1:]) / 2.0
        source = shifted[4:12, 4:12]
        _, _, sad_full = motion_search(
            source, plane, 4, 4, 8, search_range=2, half_pel=False
        )
        _, _, sad_half = motion_search(
            source, plane, 4, 4, 8, search_range=2, half_pel=True
        )
        assert sad_half <= sad_full

    def test_predicted_mv_seed_helps_large_motion(self):
        reference = _plane(64, 64, seed=6)
        dy, dx = 10, 10  # beyond one diamond pass from origin
        y, x, size = 16, 16, 8
        source = reference[y + dy : y + dy + size, x + dx : x + dx + size]
        mv, _, sad = motion_search(
            source, reference, y, x, size, search_range=16, half_pel=False,
            predicted_mv=MotionVector(dx=10.0, dy=10.0),
        )
        assert sad == pytest.approx(0.0)

    @pytest.mark.parametrize("half_pel", [False, True])
    def test_reference_one_block_in_size(self, half_pel):
        """One candidate whose window is already contiguous: the batched
        search scores its own copy (the window view is read-only) and
        equals the scalar walk."""
        reference, source = _plane(8, 8, seed=7), _plane(8, 8, seed=8)
        mv, prediction, sad = motion_search(
            source, reference, 0, 0, 8, search_range=8, half_pel=half_pel
        )
        want_mv, want_prediction, want_sad = motion_search_reference(
            source, reference, 0, 0, 8, search_range=8, half_pel=half_pel
        )
        assert (mv, sad) == (want_mv, want_sad)
        assert np.array_equal(prediction, want_prediction)


class TestBestInter:
    def test_picks_matching_reference(self):
        target = _plane(seed=7)
        decoy = _plane(seed=8)
        source = target[8:16, 8:16]
        ref_index, mv, _, sad = best_inter(
            source, [decoy, target], 8, 8, 8, search_range=4, half_pel=False
        )
        assert ref_index == 1
        assert sad == pytest.approx(0.0)

    def test_early_exit_on_first_good_reference(self):
        plane = _plane(seed=9)
        source = plane[8:16, 8:16]
        # Identical first reference: search must stop there.
        ref_index, _, _, _ = best_inter(
            source, [plane, _plane(seed=10)], 8, 8, 8, search_range=4, half_pel=False
        )
        assert ref_index == 0

    def test_requires_references(self):
        with pytest.raises(ValueError):
            best_inter(np.zeros((8, 8)), [], 0, 0, 8, 4, False)
