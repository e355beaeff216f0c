"""Entropy-coding bit-cost model.

Rather than emit an actual arithmetic-coded bitstream, the encoder counts
bits with a model of one: each quantized level costs its exp-Golomb code
length, trailing zeros in scan order are collapsed into an end-of-block
token, and the whole count is scaled by a per-profile *entropy efficiency*
that captures how close the real entropy coder gets to the source entropy
(CABAC and VP9's adaptive arithmetic coder beat plain exp-Golomb codes).

This keeps bit counts monotone in residual energy and QP -- the property
rate control and RD optimization actually rely on -- while staying fast.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Bits to signal a block mode decision (intra direction / inter + MV delta).
MODE_BITS_INTRA = 4.0
MODE_BITS_INTER = 6.0
#: Bits per component of a motion-vector delta magnitude (exp-Golomb-ish).
MV_BITS_PER_UNIT = 1.0
#: Flat cost for an all-zero (skipped) block.
SKIP_BITS = 1.0


def exp_golomb_bits(levels: np.ndarray) -> float:
    """Total exp-Golomb code length for signed integer levels."""
    magnitudes = np.abs(levels.astype(np.int64))
    nonzero = magnitudes[magnitudes > 0]
    if nonzero.size == 0:
        return 0.0
    # Signed exp-Golomb: 2*floor(log2(2|v|)) + 1 bits.
    code_numbers = 2 * nonzero  # sign folded in
    return float(np.sum(2.0 * np.floor(np.log2(code_numbers.astype(np.float64))) + 1.0))


@lru_cache(maxsize=None)
def zigzag_order(size: int) -> np.ndarray:
    """Flat indices of a ``size x size`` block in zig-zag (frequency) order.

    Cached and shared across callers, hence frozen against mutation.
    """
    indices = [(i, j) for i in range(size) for j in range(size)]
    indices.sort(key=lambda ij: (ij[0] + ij[1], ij[0]))
    out = np.array([i * size + j for i, j in indices], dtype=np.int64)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def zigzag_rank(size: int) -> np.ndarray:
    """``rank[flat_index]`` = position of that coefficient in zig-zag order."""
    order = zigzag_order(size)
    rank = np.empty(size * size, dtype=np.int64)
    rank[order] = np.arange(size * size, dtype=np.int64)
    rank.flags.writeable = False
    return rank


#: Exp-Golomb code lengths for |level| in [0, _GOLOMB_LUT_SIZE): every
#: entry is a small odd integer, so float64 sums of them are exact in any
#: summation order -- the property that lets the fast path below (and the
#: batched kernel in :mod:`repro.codec.kernels`) stay bit-identical to the
#: reference implementation.
_GOLOMB_LUT_SIZE = 4096
_GOLOMB_LUT = np.zeros(_GOLOMB_LUT_SIZE, dtype=np.float64)
_GOLOMB_LUT[1:] = 2.0 * np.floor(
    np.log2(2.0 * np.arange(1, _GOLOMB_LUT_SIZE, dtype=np.float64))
) + 1.0
_GOLOMB_LUT.flags.writeable = False


def block_bits(levels: np.ndarray, entropy_efficiency: float = 1.0) -> float:
    """Bits to code one quantized block (coefficient payload only).

    Bit-identical to the pre-batching scalar count (``block_bits_reference``
    in ``tests/oracles/codec.py``): code lengths are small integers
    (exactly representable, order-independent sums) and the final scale
    by ``entropy_efficiency`` is the same single multiply.
    """
    if not 0 < entropy_efficiency <= 1.5:
        raise ValueError(f"implausible entropy efficiency {entropy_efficiency}")
    flat = np.abs(levels.reshape(-1))
    peak = int(flat.max())
    if peak == 0:
        return SKIP_BITS * entropy_efficiency
    if peak < _GOLOMB_LUT_SIZE:
        # LUT[0] == 0.0, so summing over every coefficient (zeros included)
        # equals the reference's sum over the nonzero ones exactly.
        payload = float(_GOLOMB_LUT[flat].sum())
    else:
        payload = exp_golomb_bits(levels)
    if levels.ndim == 2 and levels.shape[0] == levels.shape[1]:
        # Zero coefficients contribute rank 0, so the masked max is the
        # highest zig-zag rank among the nonzero ones (peak > 0 here).
        ranks = zigzag_rank(levels.shape[0])
        last = int(((flat != 0) * ranks).max()) + 1
    else:
        last = int(np.flatnonzero(flat).max()) + 1
    return (payload + float(last)) * entropy_efficiency


def mv_bits(dx: float, dy: float) -> float:
    """Bits to code a motion vector delta."""
    return MV_BITS_PER_UNIT * (abs(dx) + abs(dy)) + 2.0
