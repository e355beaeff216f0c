"""The bounded partition search against the exhaustive one.

``Encoder._encode_block`` stops a split candidate as soon as the
partition signalling plus one floor for each sub-block not yet encoded
reaches the whole block's RD cost (DESIGN.md, "Bounded partition
search").  The floor must be a true lower bound on a coded block's cost,
and a stopped split must leave the reconstruction as the whole block
wrote it, or the bitstream moves.  ``Encoder`` and the parity suite's
``ReferenceEncoder`` (``tests/oracles/codec.py``) share that one
search, so the batched/reference parity suite cannot see a bound bug.
The oracle here is the search without the bound: an encoder whose
``_encode_block`` encodes all four sub-blocks of every split candidate,
compared with ``np.array_equal`` and exact float equality.

The frames come in three families.  Uniform noise and shifted-plus-noise
motion exercise the search on busy content; piecewise-constant 4x4 tiles
make sub-blocks that cost little more than the floor, which is where a
floor set too high (say, at the inter mode's signalling) starts to
prune splits that would have won.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codec import entropy
from repro.codec.encoder import (
    SPLIT_GATE_SAD_PER_PIXEL,
    BlockRecord,
    Encoder,
)
from repro.codec.prediction import MotionVector, SearchPlanes
from repro.codec.profiles import ALL_PROFILES, LIBX264
from repro.video.frame import Frame, Resolution
from tests.oracles.codec import ReferenceEncoder

#: The four Figure 7 profiles (8x8 blocks, one split level) and a deeper
#: search: 16x16 blocks split down to 4x4.
PROFILES = [*ALL_PROFILES, replace(LIBX264, block_size=16, max_split_depth=2)]
FAMILIES = ("noise", "motion", "tiles")


class CountingEncoder(Encoder):
    """The encoder under test, keeping ``(lam, cost)`` for every
    whole-block encode it makes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.whole_costs: List[Tuple[float, float]] = []

    def _encode_whole(
        self, block, recon, references, y, x, size, qp, lam, predicted_mv,
        planes=None,
    ):
        result = super()._encode_whole(
            block, recon, references, y, x, size, qp, lam, predicted_mv, planes
        )
        self.whole_costs.append((lam, result[1]))
        return result


class ExhaustiveEncoder(CountingEncoder):
    """The oracle: every split candidate encodes all four sub-blocks and
    the cheaper RD cost wins (the search as it was before the bound)."""

    def _encode_block(
        self,
        source: np.ndarray,
        recon: np.ndarray,
        references: Sequence[np.ndarray],
        y: int,
        x: int,
        size: int,
        qp: float,
        lam: float,
        split_depth: int,
        predicted_mv: MotionVector,
        planes: Optional[List[SearchPlanes]] = None,
    ) -> Tuple[BlockRecord, float, float, float]:
        """Encode one square block; returns (record, rd_cost, bits, sad).

        Writes the chosen reconstruction into ``recon`` in place.
        """
        block = source[y : y + size, x : x + size]
        saved = recon[y : y + size, x : x + size].copy()

        record, cost, bits, sad = self._encode_whole(
            block, recon, references, y, x, size, qp, lam, predicted_mv, planes
        )

        if (
            split_depth > 0
            and size >= 8
            and sad > SPLIT_GATE_SAD_PER_PIXEL * size * size
        ):
            whole_recon = recon[y : y + size, x : x + size].copy()
            recon[y : y + size, x : x + size] = saved
            half = size // 2
            sub_records: List[BlockRecord] = []
            split_cost = lam * 2.0  # partition signalling
            split_bits = 2.0
            split_sad = 0.0
            for oy in (0, half):
                for ox in (0, half):
                    sub, sub_cost, sub_bits, sub_sad = self._encode_block(
                        source, recon, references, y + oy, x + ox, half,
                        qp, lam, split_depth - 1, predicted_mv, planes,
                    )
                    sub_records.append(sub)
                    split_cost += sub_cost
                    split_bits += sub_bits
                    split_sad += sub_sad
            if split_cost < cost:
                return (
                    BlockRecord(y=y, x=x, size=size, mode="split", split=sub_records),
                    split_cost,
                    split_bits,
                    split_sad,
                )
            recon[y : y + size, x : x + size] = whole_recon
        return record, cost, bits, sad


class ReferenceCountingEncoder(ReferenceEncoder, CountingEncoder):
    """:class:`CountingEncoder` on the scalar reference kernels."""


class ReferenceExhaustiveEncoder(ReferenceEncoder, ExhaustiveEncoder):
    """:class:`ExhaustiveEncoder` on the scalar reference kernels."""


#: ``reference`` -> (the encoder under test, its oracle).
ENCODERS = {
    False: (CountingEncoder, ExhaustiveEncoder),
    True: (ReferenceCountingEncoder, ReferenceExhaustiveEncoder),
}


def content(family: str, seed: int, height: int, width: int, count: int):
    """``count`` frames of one family, as float32 planes."""
    rng = np.random.default_rng(seed)
    if family == "noise":
        planes = [rng.uniform(0.0, 255.0, (height, width)) for _ in range(count)]
    elif family == "motion":
        planes = [rng.uniform(0.0, 255.0, (height, width))]
        for _ in range(count - 1):
            shift = tuple(int(v) for v in rng.integers(-3, 4, 2))
            moved = np.roll(planes[-1], shift, (0, 1))
            planes.append(np.clip(moved + rng.normal(0.0, 4.0, moved.shape), 0, 255))
    else:
        planes = [
            np.kron(
                rng.integers(0, 256, (height // 4 + 1, width // 4 + 1)),
                np.ones((4, 4)),
            )[:height, :width]
            for _ in range(count)
        ]
    return [plane.astype(np.float32) for plane in planes]


def flatten(records: List[BlockRecord]):
    """Every field of every record, depth first, in comparable form."""
    out = []
    for r in records:
        levels = None if r.levels is None else (r.levels.shape, r.levels.tobytes())
        out.append((r.y, r.x, r.size, r.mode, r.intra_mode, r.ref_index, r.mv,
                    r.dc, levels, r.split is None))
        if r.split is not None:
            out.extend(flatten(r.split))
    return out


def encode_both(profile, qp, frames, reference):
    """Encode ``frames`` (a key frame, then inter frames) with the pruned
    encoder and the oracle, both on the batched kernels or both on the
    reference ones; assert every output is identical."""
    height, width = frames[0].shape
    nominal = Resolution(pixels=height * width, width=width, height=height,
                         name="bound")
    pruned_class, oracle_class = ENCODERS[reference]
    pruned = pruned_class(profile)
    oracle = oracle_class(profile)
    for index, plane in enumerate(frames):
        frame = Frame(plane, nominal, index)
        got, want = pruned.encode_frame(frame, qp), oracle.encode_frame(frame, qp)
        assert got.frame_type == want.frame_type
        assert got.bits == want.bits
        assert got.sad == want.sad
        assert got.intra_blocks == want.intra_blocks
        assert got.inter_blocks == want.inter_blocks
        assert np.array_equal(got.recon, want.recon)
        assert flatten(got.records) == flatten(want.records)
    return pruned, oracle


def floor(profile, lam: float) -> float:
    """The least a coded block can cost: no distortion, a skipped
    residual and the intra mode signal."""
    return lam * (
        entropy.SKIP_BITS * profile.entropy_efficiency + entropy.MODE_BITS_INTRA
    )


@settings(max_examples=60, deadline=None)
@given(
    profile=st.sampled_from(PROFILES),
    qp=st.integers(0, 51).map(float),
    height=st.integers(8, 40),
    width=st.integers(8, 40),
    count=st.integers(2, 3),
    family=st.sampled_from(FAMILIES),
    seed=st.integers(0, 2**32 - 1),
    reference=st.booleans(),
)
# Tiles whose split wins by less than the inter mode's extra signalling:
# a floor of MODE_BITS_INTER prunes it and moves the bitstream.
@example(profile=LIBX264, qp=45.0, height=32, width=32, count=2,
         family="tiles", seed=7, reference=False)
def test_pruned_search_equals_exhaustive(
    profile, qp, height, width, count, family, seed, reference
):
    frames = content(family, seed, height, width, count)
    pruned, oracle = encode_both(profile, qp, frames, reference)
    for lam, cost in pruned.whole_costs + oracle.whole_costs:
        assert cost >= floor(profile, lam)


def test_the_bound_prunes_at_high_qp():
    """At QP 44 on a fixed frame the bound stops some split candidates,
    so the pruned search encodes strictly fewer whole blocks."""
    frames = content("motion", 3, 32, 40, 2)
    pruned, oracle = encode_both(LIBX264, 44.0, frames, reference=False)
    assert len(pruned.whole_costs) < len(oracle.whole_costs)
