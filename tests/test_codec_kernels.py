"""Bit-exactness parity suite: batched hot paths vs scalar references.

The PR3 performance overhaul rewrote the codec's inner loops as batched
kernel passes (``repro.codec.kernels``), a SAD-map motion search, and a
vectorized intra scorer.  The contract is *bit-exactness*: same encoded
bits, same PSNRs, same reconstruction, element for element.  This suite
is the proof -- every fast path is compared against its preserved
reference implementation (``tests/oracles/codec.py``) with
``np.array_equal`` (no tolerances).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec import entropy
from repro.codec.decoder import Decoder
from repro.codec.encoder import Encoder, encode_video
from repro.codec.kernels import (
    batch_block_bits,
    batch_dequantize,
    batch_forward_dct,
    batch_inverse_dct,
    batch_quantize,
    batch_sad,
    batch_transform_rd,
)
from repro.codec.prediction import (
    MotionVector,
    SearchPlanes,
    best_intra,
    motion_search,
    sample_block,
)
from repro.codec.profiles import PROFILES_BY_NAME
from repro.codec.transform import (
    dequantize,
    forward_dct,
    inverse_dct,
    quantize,
    transform_rd,
    transform_rd_single,
)
from repro.video.frame import Frame, Resolution
from tests.oracles.codec import (
    ReferenceEncoder,
    best_intra_reference,
    block_bits_reference,
    motion_search_reference,
)


def _frames(height, width, count, seed=7, sigma=2.0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0, 255, (height + 4 * count, width + 4 * count))
    for _ in range(2):
        base = (
            base
            + np.roll(base, 1, 0) + np.roll(base, 1, 1)
            + np.roll(base, -1, 0) + np.roll(base, -1, 1)
        ) / 5.0
    out = []
    for i in range(count):
        data = base[2 * i : 2 * i + height, 3 * i : 3 * i + width]
        data = data + rng.normal(0.0, sigma, (height, width))
        out.append(np.clip(data, 0, 255).astype(np.float32))
    return out


def _resolution(height, width):
    return Resolution(
        pixels=width * height, width=width, height=height, name="parity"
    )


class TestBatchedKernels:
    """Stacked kernel passes == per-block scalar transforms, bitwise."""

    @pytest.mark.parametrize("size", [4, 8, 16])
    @pytest.mark.parametrize("qp", [12.0, 30.0, 45.0])
    def test_transform_stack_matches_per_block(self, size, qp):
        rng = np.random.default_rng(size)
        stack = rng.uniform(-255, 255, (17, size, size))
        coefficients = batch_forward_dct(stack)
        levels = batch_quantize(coefficients, qp)
        reconstructed = batch_inverse_dct(batch_dequantize(levels, qp))
        for i in range(stack.shape[0]):
            block_coeff = forward_dct(stack[i])
            assert np.array_equal(coefficients[i], block_coeff)
            block_levels = quantize(block_coeff, qp)
            assert np.array_equal(levels[i], block_levels)
            assert np.array_equal(
                reconstructed[i], inverse_dct(dequantize(block_levels, qp))
            )

    @pytest.mark.parametrize("qp", [20.0, 36.0])
    def test_batch_transform_rd_matches_scalar(self, qp):
        rng = np.random.default_rng(3)
        stack = rng.uniform(-128, 128, (23, 8, 8))
        levels, reconstructed, distortions = batch_transform_rd(stack, qp)
        for i in range(stack.shape[0]):
            ref_levels, ref_recon, ref_dist = transform_rd(stack[i], qp)
            assert np.array_equal(levels[i], ref_levels)
            assert np.array_equal(reconstructed[i], ref_recon)
            assert float(distortions[i]) == ref_dist

    def test_transform_rd_single_matches_reference(self):
        rng = np.random.default_rng(9)
        for qp in (8.0, 30.0, 48.0):
            residual = rng.uniform(-200, 200, (8, 8))
            fast = transform_rd_single(residual, qp)
            reference = transform_rd(residual, qp)
            assert np.array_equal(fast[0], reference[0])
            assert np.array_equal(fast[1], reference[1])
            assert fast[2] == reference[2]

    def test_batch_block_bits_matches_both_scalars(self):
        rng = np.random.default_rng(4)
        stack = rng.integers(-40, 40, (31, 8, 8)).astype(np.int64)
        stack[0][:] = 0  # skip block
        stack[1][:] = 0
        stack[1][0, 0] = 3  # DC-only block
        for ee in (0.85, 1.0):
            batched = batch_block_bits(stack, ee)
            for i in range(stack.shape[0]):
                reference = block_bits_reference(stack[i], ee)
                assert float(batched[i]) == reference
                assert entropy.block_bits(stack[i], ee) == reference

    def test_block_bits_huge_levels_fall_back_exactly(self):
        levels = np.zeros((8, 8), dtype=np.int64)
        levels[0, 0] = 5000  # beyond the Golomb LUT
        levels[3, 5] = -4097
        reference = block_bits_reference(levels)
        assert entropy.block_bits(levels) == reference
        assert float(batch_block_bits(levels[np.newaxis])[0]) == reference

    def test_block_bits_non_square_matches(self):
        rng = np.random.default_rng(6)
        levels = rng.integers(-9, 9, (4, 6)).astype(np.int64)
        assert entropy.block_bits(levels) == block_bits_reference(levels)

    def test_batch_sad_matches_scalar_sums(self):
        rng = np.random.default_rng(8)
        stack = rng.uniform(0, 255, (9, 8, 8))
        source = rng.uniform(0, 255, (8, 8))
        sads = batch_sad(stack, source)
        for i in range(stack.shape[0]):
            assert float(sads[i]) == float(np.abs(stack[i] - source).sum())

    def test_stack_shape_validated(self):
        with pytest.raises(ValueError):
            batch_forward_dct(np.zeros((4, 8)))
        with pytest.raises(ValueError):
            batch_block_bits(np.zeros((4, 8, 6), dtype=np.int64))


class TestPredictionParity:
    """Vectorized intra/motion search == the scalar walks, decision for
    decision (same winners, same tie-breaks, same SADs)."""

    @pytest.mark.parametrize("rounds", [1, 2])
    def test_best_intra_matches_reference(self, rounds):
        rng = np.random.default_rng(12)
        recon = rng.uniform(0, 255, (40, 48))
        source = rng.uniform(0, 255, (40, 48))
        for y, x, size in [(0, 0, 8), (0, 16, 8), (16, 0, 8), (24, 24, 8), (8, 8, 4)]:
            block = source[y : y + size, x : x + size]
            fast = best_intra(block, recon, y, x, size, rounds)
            reference = best_intra_reference(block, recon, y, x, size, rounds)
            assert fast[0] == reference[0]
            assert np.array_equal(fast[1], reference[1])
            assert fast[2] == reference[2]

    def test_search_planes_sample_matches_sample_block(self):
        rng = np.random.default_rng(13)
        reference = rng.uniform(0, 255, (32, 40))
        planes = SearchPlanes(reference)
        for y in (0.0, 3.0, 3.5, 27.5, -1.0, 30.0):
            for x in (0.0, 5.0, 5.5, 35.5, -0.5):
                expected = sample_block(reference, y, x, 8)
                got = planes.sample(y, x, 8)
                if expected is None:
                    assert got is None
                else:
                    assert np.array_equal(got, expected)

    @pytest.mark.parametrize("half_pel", [True, False])
    @pytest.mark.parametrize("search_range", [4, 8, 12])
    def test_motion_search_matches_reference(self, half_pel, search_range):
        rng = np.random.default_rng(search_range)
        reference = rng.uniform(0, 255, (48, 64))
        # Shifted + noisy source so searches move and refine.
        source_plane = np.roll(np.roll(reference, 2, axis=0), -3, axis=1)
        source_plane = source_plane + rng.normal(0, 3.0, reference.shape)
        planes = SearchPlanes(reference)
        predicted = MotionVector(dx=-3.0, dy=2.0)
        for y in (0, 8, 24, 40):
            for x in (0, 16, 56):
                source = source_plane[y : y + 8, x : x + 8]
                for pmv in (MotionVector(0.0, 0.0), predicted):
                    fast = motion_search(
                        source, reference, y, x, 8, search_range, half_pel,
                        pmv, planes=planes,
                    )
                    ref = motion_search_reference(
                        source, reference, y, x, 8, search_range, half_pel, pmv
                    )
                    assert fast[0] == ref[0]
                    assert np.array_equal(fast[1], ref[1])
                    assert fast[2] == ref[2]


class TestEncoderParity:
    """The batched and reference encoders emit identical bitstreams."""

    @pytest.mark.parametrize("name", sorted(PROFILES_BY_NAME))
    def test_fast_and_reference_encoders_bit_identical(self, name):
        profile = PROFILES_BY_NAME[name]
        height, width = 40, 56
        frames = _frames(height, width, 4, seed=21)
        nominal = _resolution(height, width)
        outputs = []
        for encoder_class in (Encoder, ReferenceEncoder):
            encoder = encoder_class(profile, keyframe_interval=3)
            outputs.append(
                [
                    encoder.encode_frame(Frame(data, nominal, i), qp)
                    for i, (data, qp) in enumerate(
                        zip(frames, (20.0, 36.0, 28.0, 36.0))
                    )
                ]
            )
        fast_frames, reference_frames = outputs
        for a, b in zip(fast_frames, reference_frames):
            assert a.bits == b.bits
            assert a.sad == b.sad
            assert np.array_equal(a.recon, b.recon)
            assert self._records_equal(a.records, b.records)

    @staticmethod
    def _records_equal(a_records, b_records):
        if len(a_records) != len(b_records):
            return False
        for a, b in zip(a_records, b_records):
            if (a.y, a.x, a.size, a.mode) != (b.y, b.x, b.size, b.mode):
                return False
            if a.mode == "split":
                if not TestEncoderParity._records_equal(a.split, b.split):
                    return False
                continue
            if (a.intra_mode, a.ref_index, a.mv, a.dc) != (
                b.intra_mode, b.ref_index, b.mv, b.dc
            ):
                return False
            if not np.array_equal(a.levels, b.levels):
                return False
        return True

    def test_ragged_frame_parity(self):
        # Odd dimensions exercise the edge-block path in both modes.
        height, width = 37, 51
        frames = _frames(height, width, 2, seed=33)
        nominal = _resolution(height, width)
        video = type("V", (), {
            "frames": [Frame(f, nominal, i) for i, f in enumerate(frames)],
            "fps": 30.0,
            "nominal": nominal,
        })()
        profile = PROFILES_BY_NAME["libx264"]
        chunk = encode_video(video, profile, 30.0)
        reference = ReferenceEncoder(profile)
        recons = [
            [f.recon for f in chunk.frames],
            [reference.encode_frame(f, 30.0).recon for f in video.frames],
        ]
        for a, b in zip(*recons):
            assert np.array_equal(a, b)


class TestDecoderParity:
    """The decoder -- its whole-frame batched residual pass included --
    replays every profile's bitstream to the encoder's reconstruction."""

    #: A frame of whole blocks; a ragged one whose edge blocks take the
    #: DC/PCM path; one whose corner is a coded 4x4 block; and a single
    #: block, whose inter reference is exactly one block in size.
    SHAPES = [(40, 56), (37, 51), (12, 20), (8, 8)]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("name", sorted(PROFILES_BY_NAME))
    def test_decode_matches_encoder_recon(self, name, shape):
        profile = PROFILES_BY_NAME[name]
        height, width = shape
        frames = _frames(height, width, 6, seed=40)
        nominal = _resolution(height, width)
        encoder = Encoder(profile, keyframe_interval=3)
        encoded = [
            encoder.encode_frame(Frame(data, nominal, i), 30.0)
            for i, data in enumerate(frames)
        ]
        assert any(frame.frame_type == "inter" for frame in encoded)
        decoder = Decoder(profile, (height, width))
        for frame in encoded:
            recon = decoder.decode_frame(frame)
            assert np.array_equal(recon, frame.recon)
