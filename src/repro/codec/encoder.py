"""The block-based encoder.

The encoder walks each frame in raster order of superblocks.  For every
block it evaluates intra candidates and, on inter frames, a motion search
over up to three references (plus the temporal-filtered alternate
reference for VP9 profiles); the winner by SAD gets the full
transform/quantize/reconstruct treatment (the paper's "approximate
encoding/decoding" candidate selection).  When the profile allows
partitioning, the block is also encoded as four recursively-coded
sub-blocks and the cheaper RD cost wins -- the bounded recursive
partition search of Section 3.2.  The split candidate stops as soon as
the partition signal, the sub-blocks coded so far and the least cost of
each one left (:func:`_split_bound`) reach the whole block's cost: the
split can then no longer win, so the search picks exactly what trying
every sub-block would pick (DESIGN.md, "Bounded partition search").

Every decision is appended to a symbolic bitstream (a list of
:class:`BlockRecord`) that :mod:`repro.codec.decoder` can replay to the
bit-identical reconstruction, which is how round-trip tests validate the
codec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.codec import entropy
from repro.codec.prediction import MotionVector, SearchPlanes, best_inter, best_intra
from repro.codec.profiles import EncoderProfile
from repro.codec.temporal_filter import build_altref
from repro.codec.transform import qp_to_lambda, transform_rd_single
from repro.video.frame import Frame, RawVideo, sequence_psnr

#: References kept in the DPB (sliding window), before the altref slot.
_MAX_DPB = 3
#: Frames between alternate-reference rebuilds (VP9 builds altrefs per
#: golden-frame group, not per frame).
ALTREF_INTERVAL = 4
#: Mean prediction error per pixel below which the recursive partition
#: search is skipped -- the "bounded" part of the paper's bounded
#: recursive search (flat, well-predicted blocks never benefit from
#: smaller partitions).
SPLIT_GATE_SAD_PER_PIXEL = 2.0
#: Mean intra error per pixel below which motion search is skipped.
INTRA_GOOD_ENOUGH_PER_PIXEL = 0.75


def _split_bound(cost: float, floor: float, remaining: int) -> float:
    """A lower bound on a split's final RD cost: the ``cost`` summed so
    far plus ``floor`` once for each of the ``remaining`` sub-blocks.

    The floors are added one at a time, in the order the split adds the
    sub-block costs they stand for.  Rounded addition is monotone, so
    the bound never exceeds the sum it bounds.
    """
    for _ in range(remaining):
        cost += floor
    return cost


@dataclass
class BlockRecord:
    """One coded block: everything a decoder needs to reproduce it."""

    y: int
    x: int
    size: int
    mode: str  # "intra" or "inter"
    intra_mode: Optional[str] = None
    ref_index: Optional[int] = None
    mv: Optional[MotionVector] = None
    levels: Optional[np.ndarray] = None
    split: Optional[List["BlockRecord"]] = None
    dc: Optional[float] = None  # edge-block DC predictor (PCM-ish path)


@dataclass
class EncodedFrame:
    """Per-frame encode output: modelled bits, recon, and statistics."""

    index: int
    frame_type: str  # "key" or "inter"
    qp: float
    bits: float
    recon: np.ndarray
    records: List[BlockRecord]
    sad: float  # total prediction SAD (first-pass complexity signal)
    intra_blocks: int = 0
    inter_blocks: int = 0


@dataclass
class EncodedChunk:
    """A fully encoded sequence plus its aggregate quality numbers."""

    profile_name: str
    frames: List[EncodedFrame]
    fps: float
    nominal_pixels_per_frame: int
    proxy_pixels_per_frame: int
    psnr: float

    @property
    def total_bits_proxy(self) -> float:
        return sum(f.bits for f in self.frames)

    @property
    def total_bits(self) -> float:
        """Bits scaled from the proxy plane to the nominal resolution."""
        scale = self.nominal_pixels_per_frame / self.proxy_pixels_per_frame
        return self.total_bits_proxy * scale

    @property
    def duration_seconds(self) -> float:
        return len(self.frames) / self.fps

    @property
    def bitrate_bps(self) -> float:
        return self.total_bits / self.duration_seconds

    @property
    def bits_per_pixel(self) -> float:
        return self.total_bits_proxy / (
            self.proxy_pixels_per_frame * len(self.frames)
        )


class Encoder:
    """A stateful encoder for one stream (one profile, one resolution).

    Four kernels do the per-block arithmetic: intra selection, inter
    search, the transform/quantize/reconstruct step and the entropy bit
    count.  Each instance binds them from this module's names when it is
    built, so a tracer that rebinds those names sees every call.  The
    parity suite's ``ReferenceEncoder`` (``tests/oracles/codec.py``)
    binds the scalar walks instead and must emit the same bitstream.
    """

    def __init__(self, profile: EncoderProfile, keyframe_interval: int = 150):
        if keyframe_interval < 1:
            raise ValueError("keyframe_interval must be >= 1")
        self.profile = profile
        self.keyframe_interval = keyframe_interval
        self._best_intra = best_intra
        self._best_inter = best_inter
        self._block_bits = entropy.block_bits
        self._transform_rd = transform_rd_single
        self._dpb: List[np.ndarray] = []  # decoded picture buffer, newest first
        self._altref: Optional[np.ndarray] = None
        self._frame_index = 0

    def reset(self) -> None:
        self._dpb.clear()
        self._altref = None
        self._frame_index = 0

    def references(self) -> List[np.ndarray]:
        """Current reference list: DPB slots then the altref, bounded by profile."""
        refs = list(self._dpb[: self.profile.reference_frames])
        if self.profile.temporal_filter and self._altref is not None:
            refs.append(self._altref)
        return refs

    def encode_frame(self, frame: Frame, qp: float) -> EncodedFrame:
        """Encode one frame at the given QP and update reference state."""
        is_key = self._frame_index % self.keyframe_interval == 0 or not self._dpb
        source = frame.data.astype(np.float64)
        recon = np.zeros_like(source)
        references = [] if is_key else self.references()
        # One SearchPlanes per reference per frame: every block shares the
        # sliding-window gathers and lazily-built half-pel planes.
        planes = [SearchPlanes(reference) for reference in references]
        lam = qp_to_lambda(qp)

        records: List[BlockRecord] = []
        total_bits = 0.0
        total_sad = 0.0
        intra_blocks = 0
        inter_blocks = 0

        size = self.profile.block_size
        height, width = source.shape
        predicted_mv = MotionVector(0.0, 0.0)
        for y in range(0, height, size):
            for x in range(0, width, size):
                block_h = min(size, height - y)
                block_w = min(size, width - x)
                if block_h != block_w or block_h < 4:
                    # Ragged frame edge: code as intra DC without splitting.
                    record, bits, sad = self._encode_edge_block(
                        source, recon, y, x, block_h, block_w, qp
                    )
                else:
                    record, _, bits, sad = self._encode_block(
                        source, recon, references, y, x, block_h, qp, lam,
                        self.profile.max_split_depth, predicted_mv, planes,
                    )
                    if record.mode == "inter" and record.mv is not None:
                        predicted_mv = record.mv
                records.append(record)
                total_bits += bits
                total_sad += sad
                if record.mode == "inter" or (
                    record.split
                    and any(r.mode == "inter" for r in record.split)
                ):
                    inter_blocks += 1
                else:
                    intra_blocks += 1

        total_bits *= self.profile.bit_scale
        total_bits += 64.0  # frame header

        self._push_reference(recon)
        encoded = EncodedFrame(
            index=self._frame_index,
            frame_type="key" if is_key else "inter",
            qp=qp,
            bits=total_bits,
            recon=recon,
            records=records,
            sad=total_sad,
            intra_blocks=intra_blocks,
            inter_blocks=inter_blocks,
        )
        self._frame_index += 1
        return encoded

    def _push_reference(self, recon: np.ndarray) -> None:
        self._dpb.insert(0, recon)
        del self._dpb[_MAX_DPB:]
        if (
            self.profile.temporal_filter
            and len(self._dpb) >= 3
            and self._frame_index % ALTREF_INTERVAL == 0
        ):
            # Synthetic alternate reference from the last three recons
            # (oldest..newest order for the 3-tap filter).
            self._altref = build_altref(list(reversed(self._dpb[:3]))).astype(
                np.float64
            )

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
            # The least any coded block can cost: zero distortion, a
            # skipped residual and the cheaper (intra) mode signal.
            floor = lam * (
                entropy.SKIP_BITS * self.profile.entropy_efficiency
                + entropy.MODE_BITS_INTRA
            )
            whole_recon = recon[y : y + size, x : x + size].copy()
            recon[y : y + size, x : x + size] = saved
            half = size // 2
            sub_records: List[BlockRecord] = []
            split_cost = lam * 2.0  # partition signalling
            split_bits = 2.0
            split_sad = 0.0
            for oy, ox in ((0, 0), (0, half), (half, 0), (half, half)):
                # Stop as soon as the split cannot beat the whole block,
                # even if every sub-block left costs only the floor.
                if _split_bound(split_cost, floor, 4 - len(sub_records)) >= cost:
                    break
                sub, sub_cost, sub_bits, sub_sad = self._encode_block(
                    source, recon, references, y + oy, x + ox, half,
                    qp, lam, split_depth - 1, predicted_mv, planes,
                )
                sub_records.append(sub)
                split_cost += sub_cost
                split_bits += sub_bits
                split_sad += sub_sad
            if len(sub_records) == 4 and split_cost < cost:
                return (
                    BlockRecord(y=y, x=x, size=size, mode="split", split=sub_records),
                    split_cost,
                    split_bits,
                    split_sad,
                )
            recon[y : y + size, x : x + size] = whole_recon
        return record, cost, bits, sad

    def _encode_whole(
        self,
        block: np.ndarray,
        recon: np.ndarray,
        references: Sequence[np.ndarray],
        y: int,
        x: int,
        size: int,
        qp: float,
        lam: float,
        predicted_mv: MotionVector,
        planes: Optional[List[SearchPlanes]] = None,
    ) -> Tuple[BlockRecord, float, float, float]:
        """Encode the block un-split; returns (record, rd_cost, bits, sad)."""
        intra_mode, intra_pred, intra_sad = self._best_intra(
            block, recon, y, x, size, self.profile.rd_candidate_rounds
        )
        choice = ("intra", intra_mode, None, None, intra_pred, intra_sad)
        if references and intra_sad > INTRA_GOOD_ENOUGH_PER_PIXEL * size * size:
            ref_index, mv, inter_pred, inter_sad = self._best_inter(
                block, references, y, x, size,
                self.profile.search_range, self.profile.half_pel, predicted_mv,
                planes=planes,
            )
            # Bias by signalling cost so near-ties favour cheap intra DC.
            if inter_sad + 4.0 * entropy.mv_bits(mv.dx, mv.dy) < intra_sad:
                choice = ("inter", None, ref_index, mv, inter_pred, inter_sad)

        mode, chosen_intra, ref_index, mv, prediction, sad = choice
        residual = block - prediction
        levels, recon_residual, distortion = self._transform_rd(residual, qp)

        bits = self._block_bits(levels, self.profile.entropy_efficiency)
        if mode == "intra":
            bits += entropy.MODE_BITS_INTRA
        else:
            bits += entropy.MODE_BITS_INTER + entropy.mv_bits(mv.dx, mv.dy)

        recon[y : y + size, x : x + size] = (prediction + recon_residual).clip(
            0.0, 255.0
        )
        cost = distortion + lam * bits
        record = BlockRecord(
            y=y, x=x, size=size, mode=mode,
            intra_mode=chosen_intra, ref_index=ref_index, mv=mv, levels=levels,
        )
        return record, cost, bits, sad

    def _encode_edge_block(
        self,
        source: np.ndarray,
        recon: np.ndarray,
        y: int,
        x: int,
        block_h: int,
        block_w: int,
        qp: float,
    ) -> Tuple[BlockRecord, float, float]:
        """DC-predict and PCM-quantize a ragged edge block (rare path)."""
        block = source[y : y + block_h, x : x + block_w]
        mean = float(np.mean(block))
        from repro.codec.transform import qp_to_step

        step = qp_to_step(qp)
        levels = np.round((block - mean) / step).astype(np.int64)
        recon_block = np.clip(mean + levels * step, 0.0, 255.0)
        recon[y : y + block_h, x : x + block_w] = recon_block
        bits = self._block_bits(levels, self.profile.entropy_efficiency) + 8.0
        sad = float(np.sum(np.abs(block - mean)))
        record = BlockRecord(
            y=y, x=x, size=block_h, mode="edge", levels=levels, intra_mode="dc",
            dc=mean,
        )
        return record, bits, sad


def encode_video(
    video: RawVideo,
    profile: EncoderProfile,
    qp: float,
    keyframe_interval: int = 150,
) -> EncodedChunk:
    """Encode a whole video at a fixed QP (the RD-curve sweep primitive)."""
    encoder = Encoder(profile, keyframe_interval=keyframe_interval)
    encoded = [encoder.encode_frame(frame, qp) for frame in video.frames]
    recon_frames = [
        Frame(e.recon.astype(np.float32), video.nominal, e.index) for e in encoded
    ]
    return EncodedChunk(
        profile_name=profile.name,
        frames=encoded,
        fps=video.fps,
        nominal_pixels_per_frame=video.nominal.pixels,
        proxy_pixels_per_frame=video.frames[0].proxy_pixels,
        psnr=sequence_psnr(video.frames, recon_frames),
    )
