"""The decoder: replays a symbolic bitstream to the encoder's reconstruction.

Decoding mirrors the encoder's state machine exactly -- same reference
management, same prediction, same dequantize + inverse transform -- so the
output must be bit-identical to the encoder-side reconstruction.  The
round-trip property (encode -> decode == encoder recon) is the codec's
core correctness test, echoing how the paper's deterministic cores enable
"golden transcoding task" fault screening (Section 4.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.codec.encoder import ALTREF_INTERVAL, BlockRecord, EncodedChunk, EncodedFrame
from repro.codec.kernels import batch_dequantize, batch_inverse_dct
from repro.codec.prediction import intra_predict, sample_block
from repro.codec.profiles import EncoderProfile
from repro.codec.temporal_filter import build_altref
from repro.codec.transform import qp_to_step

_MAX_DPB = 3


class Decoder:
    """A stateful decoder for one stream encoded with ``profile``.

    Every frame's coded residuals are dequantized and inverse-transformed
    up front as one batched kernel pass per block size, then the
    per-record replay only applies prediction.  Unlike the encoder --
    where intra prediction reads the reconstruction of earlier blocks,
    forcing block-serial transforms -- a decoded frame's residuals depend
    only on the bitstream, so the whole-frame pass is legal and bit-exact
    (the round-trip tests pin every profile's decode to the encoder
    recon).
    """

    def __init__(self, profile: EncoderProfile, proxy_shape: tuple):
        self.profile = profile
        self.proxy_shape = tuple(proxy_shape)
        self._dpb: List[np.ndarray] = []
        self._altref: Optional[np.ndarray] = None
        self._frame_index = 0

    def references(self) -> List[np.ndarray]:
        refs = list(self._dpb[: self.profile.reference_frames])
        if self.profile.temporal_filter and self._altref is not None:
            refs.append(self._altref)
        return refs

    def decode_frame(self, frame: EncodedFrame) -> np.ndarray:
        recon = np.zeros(self.proxy_shape, dtype=np.float64)
        references = [] if frame.frame_type == "key" else self.references()
        residuals = self._batched_residuals(frame)
        for record in frame.records:
            self._decode_block(record, recon, references, frame.qp, residuals)
        self._push_reference(recon)
        self._frame_index += 1
        return recon

    @staticmethod
    def _collect_coded(
        records: Sequence[BlockRecord], out: List[BlockRecord]
    ) -> None:
        for record in records:
            if record.mode == "split":
                Decoder._collect_coded(record.split or [], out)
            elif record.mode in ("intra", "inter"):
                out.append(record)

    def _batched_residuals(
        self, frame: EncodedFrame
    ) -> Dict[int, np.ndarray]:
        """Whole-frame residual pass: one batched IDCT per block size."""
        coded: List[BlockRecord] = []
        self._collect_coded(frame.records, coded)
        by_size: Dict[int, List[BlockRecord]] = {}
        for record in coded:
            by_size.setdefault(record.size, []).append(record)
        residuals: Dict[int, np.ndarray] = {}
        for group in by_size.values():
            stack = np.stack([record.levels for record in group])
            batch = batch_inverse_dct(batch_dequantize(stack, frame.qp))
            for index, record in enumerate(group):
                residuals[id(record)] = batch[index]
        return residuals

    def _push_reference(self, recon: np.ndarray) -> None:
        self._dpb.insert(0, recon)
        del self._dpb[_MAX_DPB:]
        if (
            self.profile.temporal_filter
            and len(self._dpb) >= 3
            and self._frame_index % ALTREF_INTERVAL == 0
        ):
            self._altref = build_altref(list(reversed(self._dpb[:3]))).astype(
                np.float64
            )

    def _decode_block(
        self,
        record: BlockRecord,
        recon: np.ndarray,
        references: Sequence[np.ndarray],
        qp: float,
        residuals: Dict[int, np.ndarray],
    ) -> None:
        if record.mode == "split":
            for sub in record.split or []:
                self._decode_block(sub, recon, references, qp, residuals)
            return

        y, x, size = record.y, record.x, record.size
        if record.mode == "edge":
            step = qp_to_step(qp)
            block = np.clip(record.dc + record.levels * step, 0.0, 255.0)
            height, width = record.levels.shape
            recon[y : y + height, x : x + width] = block
            return

        if record.mode == "intra":
            prediction = intra_predict(recon, y, x, size, record.intra_mode)
        elif record.mode == "inter":
            reference = references[record.ref_index]
            prediction = sample_block(
                reference, y + record.mv.dy, x + record.mv.dx, size
            )
            if prediction is None:
                raise ValueError(
                    f"motion vector {record.mv} leaves the frame at ({y},{x})"
                )
        else:
            raise ValueError(f"unknown block mode {record.mode!r}")

        recon[y : y + size, x : x + size] = np.clip(
            prediction + residuals[id(record)], 0.0, 255.0
        )


def decode_chunk(chunk: EncodedChunk, profile: EncoderProfile) -> List[np.ndarray]:
    """Decode every frame of a chunk; returns the reconstruction planes."""
    if not chunk.frames:
        return []
    decoder = Decoder(profile, chunk.frames[0].recon.shape)
    return [decoder.decode_frame(frame) for frame in chunk.frames]
