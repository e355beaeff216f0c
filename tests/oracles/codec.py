"""The codec's scalar walks and the encoder built on them.

These are the intra mode loop, the diamond motion search and the
entropy bit count exactly as they ran before the batched hot paths
replaced them (a SAD per candidate, a mode at a time, a coefficient
scan per block).  ``tests/test_codec_kernels.py`` and
``tests/test_codec_prediction.py`` hold each batched kernel to its walk
decision for decision, and :class:`ReferenceEncoder` -- an
:class:`~repro.codec.encoder.Encoder` whose four kernels are these walks
and the staged :func:`~repro.codec.transform.transform_rd` -- must emit
the batched encoder's bits, records and reconstruction exactly.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.codec.encoder import Encoder
from repro.codec.entropy import SKIP_BITS, exp_golomb_bits, zigzag_order
from repro.codec.prediction import (
    _HALF_PEL,
    _LARGE_DIAMOND,
    _SMALL_DIAMOND,
    GOOD_ENOUGH_SAD_PER_PIXEL,
    INTRA_MODES,
    MotionVector,
    SearchPlanes,
    intra_predict,
    sample_block,
)
from repro.codec.transform import transform_rd


def best_intra_reference(
    source: np.ndarray,
    recon: np.ndarray,
    y: int,
    x: int,
    size: int,
    candidate_rounds: int,
) -> Tuple[str, np.ndarray, float]:
    """Pre-batching scalar mode loop (parity/benchmark reference)."""
    modes = INTRA_MODES[: 3 + max(0, candidate_rounds - 1)]
    best: Tuple[str, np.ndarray, float] = ("dc", None, float("inf"))  # type: ignore
    for mode in modes:
        prediction = intra_predict(recon, y, x, size, mode)
        sad = float(np.sum(np.abs(source - prediction)))
        if sad < best[2]:
            best = (mode, prediction, sad)
    return best


def _sad(source: np.ndarray, candidate: Optional[np.ndarray]) -> float:
    if candidate is None:
        return float("inf")
    return float(np.abs(source - candidate).sum())


def motion_search_reference(
    source: np.ndarray,
    reference: np.ndarray,
    y: int,
    x: int,
    size: int,
    search_range: int,
    half_pel: bool,
    predicted_mv: MotionVector = MotionVector(0.0, 0.0),
    planes: Optional[SearchPlanes] = None,
) -> Tuple[MotionVector, np.ndarray, float]:
    """Pre-batching scalar walk (parity/benchmark reference).

    One behavioural fix is shared with the fast path: the original
    half-pel loop mutated ``mv_y, mv_x`` mid-iteration, so later
    ``_HALF_PEL`` offsets were applied to a moving centre instead of the
    integer-pel winner.  Both paths now evaluate all 8 offsets around the
    fixed integer-pel centre.  ``planes`` is accepted for signature
    parity and ignored.
    """
    del planes
    # (0, 0) first, predicted second: with strict-< replacement this is
    # the tie-break order the batched fast path hard-codes, and a fixed
    # tuple keeps the walk order independent of hash seeding.
    predicted = (round(predicted_mv.dy), round(predicted_mv.dx))
    starts = ((0, 0),) if predicted == (0, 0) else ((0, 0), predicted)
    best_mv = (0, 0)
    best_sad = _sad(source, sample_block(reference, y, x, size))
    for sy, sx in starts:
        if abs(sy) > search_range or abs(sx) > search_range:
            continue
        sad = _sad(source, sample_block(reference, y + sy, x + sx, size))
        if sad < best_sad:
            best_sad, best_mv = sad, (sy, sx)

    improved = True
    while improved:
        improved = False
        for dy, dx in _LARGE_DIAMOND:
            cy, cx = best_mv[0] + dy, best_mv[1] + dx
            if abs(cy) > search_range or abs(cx) > search_range:
                continue
            sad = _sad(source, sample_block(reference, y + cy, x + cx, size))
            if sad < best_sad:
                best_sad, best_mv, improved = sad, (cy, cx), True
    for dy, dx in _SMALL_DIAMOND:
        cy, cx = best_mv[0] + dy, best_mv[1] + dx
        if abs(cy) > search_range or abs(cx) > search_range:
            continue
        sad = _sad(source, sample_block(reference, y + cy, x + cx, size))
        if sad < best_sad:
            best_sad, best_mv = sad, (cy, cx)

    mv_y, mv_x = float(best_mv[0]), float(best_mv[1])
    if half_pel:
        base_y, base_x = mv_y, mv_x
        for dy, dx in _HALF_PEL:
            sad = _sad(
                source, sample_block(reference, y + base_y + dy, x + base_x + dx, size)
            )
            if sad < best_sad:
                best_sad, mv_y, mv_x = sad, base_y + dy, base_x + dx

    prediction = sample_block(reference, y + mv_y, x + mv_x, size)
    if prediction is None:  # pragma: no cover - zero MV is always valid
        prediction = sample_block(reference, y, x, size)
        mv_y = mv_x = 0.0
        best_sad = _sad(source, prediction)
    return MotionVector(dx=mv_x, dy=mv_y), prediction, best_sad


def best_inter_reference(
    source: np.ndarray,
    references: Sequence[np.ndarray],
    y: int,
    x: int,
    size: int,
    search_range: int,
    half_pel: bool,
    predicted_mv: MotionVector = MotionVector(0.0, 0.0),
    planes: Optional[Sequence[SearchPlanes]] = None,
) -> Tuple[int, MotionVector, np.ndarray, float]:
    """Reference-path counterpart of
    :func:`~repro.codec.prediction.best_inter` (scalar search)."""
    del planes
    if not references:
        raise ValueError("best_inter needs at least one reference")
    good_enough = GOOD_ENOUGH_SAD_PER_PIXEL * size * size
    best: Tuple[int, MotionVector, np.ndarray, float] = (
        -1, MotionVector(0.0, 0.0), None, float("inf"),  # type: ignore
    )
    for index, reference in enumerate(references):
        mv, prediction, sad = motion_search_reference(
            source, reference, y, x, size, search_range, half_pel, predicted_mv
        )
        if sad < best[3]:
            best = (index, mv, prediction, sad)
        if best[3] <= good_enough:
            break
    return best


def block_bits_reference(levels: np.ndarray, entropy_efficiency: float = 1.0) -> float:
    """Pre-batching scalar implementation, kept as the parity/benchmark
    reference for :func:`~repro.codec.entropy.block_bits` (identical
    results, slower)."""
    if not 0 < entropy_efficiency <= 1.5:
        raise ValueError(f"implausible entropy efficiency {entropy_efficiency}")
    magnitudes = np.abs(levels)
    if not np.any(magnitudes):
        return SKIP_BITS * entropy_efficiency
    payload = exp_golomb_bits(levels)
    # Coefficient position signalling: one significance bit per coefficient
    # up to the last nonzero in zig-zag scan order (low frequencies first),
    # approximating zig-zag run coding with an end-of-block token.
    if levels.ndim == 2 and levels.shape[0] == levels.shape[1]:
        scanned = magnitudes.ravel()[zigzag_order(levels.shape[0])]
    else:
        scanned = magnitudes.ravel()
    last = int(np.max(np.nonzero(scanned)[0])) + 1
    significance = float(last)
    return (payload + significance) * entropy_efficiency


class ReferenceEncoder(Encoder):
    """The encoder on the scalar walks: same search, same bitstream.

    It shares :class:`~repro.codec.encoder.Encoder`'s partition search,
    mode decisions and reference management, and swaps in only the four
    kernels, so any difference from ``Encoder`` is a batched kernel that
    left its walk.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._best_intra = best_intra_reference
        self._best_inter = best_inter_reference
        self._block_bits = block_bits_reference
        self._transform_rd = transform_rd
