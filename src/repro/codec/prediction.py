"""Intra prediction and motion-compensated inter prediction.

Intra modes follow the classic set (DC / vertical / horizontal / TM-style
gradient) predicting from already-reconstructed neighbours.  Inter
prediction runs a diamond motion search per reference frame, optionally
refined to half-pel with bilinear interpolation -- the software profiles'
bounded search versus the VCU's wider exhaustive window is expressed
through the profile's ``search_range``.

Hot-path structure: the public :func:`motion_search` and
:func:`best_intra` evaluate candidate sets as **batched SADs** (one
``np.abs(stack - source).sum(axis=(1, 2))`` per round) over views gathered
through :class:`SearchPlanes` -- a per-reference cache of sliding-window
views and precomputed half-pel interpolation planes built lazily once per
frame.  Both are bit-exact against the pre-batching scalar walk, preserved
here as ``_motion_search_reference`` / ``_best_intra_reference`` for the
parity suite and the perf-regression harness: the batched walk replays the
scalar first-improvement order exactly (a round's remaining candidates
re-batch around the new centre whenever the centre moves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

INTRA_MODES = ("dc", "vertical", "horizontal", "tm")


@dataclass(frozen=True)
class MotionVector:
    """A motion vector in (half-)pel units on the proxy plane."""

    dx: float
    dy: float

    def __iter__(self):
        return iter((self.dx, self.dy))


def intra_predict(
    recon: np.ndarray, y: int, x: int, size: int, mode: str
) -> np.ndarray:
    """Predict a block from reconstructed top/left neighbours.

    Out-of-frame neighbours fall back to the mid-grey 128 convention.
    """
    top: Optional[np.ndarray] = recon[y - 1, x : x + size] if y > 0 else None
    left: Optional[np.ndarray] = recon[y : y + size, x - 1] if x > 0 else None

    if mode == "dc":
        values = []
        if top is not None:
            values.append(top)
        if left is not None:
            values.append(left)
        mean = float(np.mean(np.concatenate(values))) if values else 128.0
        return np.full((size, size), mean, dtype=np.float64)
    if mode == "vertical":
        row = top if top is not None else np.full(size, 128.0)
        return np.tile(row.astype(np.float64), (size, 1))
    if mode == "horizontal":
        col = left if left is not None else np.full(size, 128.0)
        return np.tile(col.astype(np.float64).reshape(-1, 1), (1, size))
    if mode == "tm":
        row = top if top is not None else np.full(size, 128.0)
        col = left if left is not None else np.full(size, 128.0)
        corner = float(recon[y - 1, x - 1]) if (y > 0 and x > 0) else 128.0
        prediction = (
            row.astype(np.float64).reshape(1, -1)
            + col.astype(np.float64).reshape(-1, 1)
            - corner
        )
        return np.clip(prediction, 0.0, 255.0)
    raise ValueError(f"unknown intra mode {mode!r}")


def _best_intra_reference(
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


def best_intra(
    source: np.ndarray,
    recon: np.ndarray,
    y: int,
    x: int,
    size: int,
    candidate_rounds: int,
) -> Tuple[str, np.ndarray, float]:
    """Pick the intra mode with lowest SAD; returns (mode, prediction, sad).

    ``candidate_rounds`` bounds how many modes are examined, modelling the
    VCU pipeline's fixed candidate budget (round 1: dc+vertical+horizontal;
    round 2 adds tm).  The candidate set is scored as one batched SAD;
    ``np.argmin``'s first-occurrence tie-breaking matches the scalar
    loop's keep-first-winner rule exactly.
    """
    modes = INTRA_MODES[: 3 + max(0, candidate_rounds - 1)]
    top = recon[y - 1, x : x + size] if y > 0 else None
    left = recon[y : y + size, x - 1] if x > 0 else None
    buf = np.empty((len(modes), size, size), dtype=np.float64)
    # Each row of ``buf`` holds exactly the array :func:`intra_predict`
    # builds for that mode (broadcast assignment == tile, clip(out=) ==
    # clip), just without the per-mode allocations.
    if top is not None and left is not None:
        # add.reduce/size is precisely what np.mean does internally.
        neighbours = np.concatenate((top, left))
        mean = float(np.add.reduce(neighbours) / neighbours.size)
    elif top is not None:
        mean = float(np.mean(top))
    elif left is not None:
        mean = float(np.mean(left))
    else:
        mean = 128.0
    buf[0] = mean
    buf[1] = top if top is not None else 128.0
    if left is not None:
        buf[2] = left[:, np.newaxis]
    else:
        buf[2] = 128.0
    if len(modes) > 3:
        row = top if top is not None else np.full(size, 128.0)
        col = left if left is not None else np.full(size, 128.0)
        corner = float(recon[y - 1, x - 1]) if (y > 0 and x > 0) else 128.0
        (row[np.newaxis, :] + col[:, np.newaxis] - corner).clip(
            0.0, 255.0, out=buf[3]
        )
    delta = buf - source
    np.abs(delta, out=delta)
    sads = delta.sum(axis=(1, 2)).tolist()
    best = 0
    best_sad = sads[0]
    for index in range(1, len(sads)):
        if sads[index] < best_sad:  # strict: first minimum wins, as argmin
            best, best_sad = index, sads[index]
    return modes[best], buf[best], best_sad


def sample_block(
    reference: np.ndarray, y: float, x: float, size: int
) -> Optional[np.ndarray]:
    """Fetch a (possibly half-pel) block from a reference; None if outside.

    Integer positions return a *view* into the reference for speed; callers
    must not mutate the result.
    """
    if y < 0 or x < 0 or y + size > reference.shape[0] or x + size > reference.shape[1]:
        return None
    yi, xi = int(y), int(x)
    fy, fx = y - yi, x - xi
    if fy == 0 and fx == 0:
        return reference[yi : yi + size, xi : xi + size]
    if yi + size + 1 > reference.shape[0] or xi + size + 1 > reference.shape[1]:
        return None
    a = reference[yi : yi + size, xi : xi + size]
    b = reference[yi : yi + size, xi + 1 : xi + size + 1]
    c = reference[yi + 1 : yi + size + 1, xi : xi + size]
    d = reference[yi + 1 : yi + size + 1, xi + 1 : xi + size + 1]
    return (
        a * ((1 - fy) * (1 - fx)) + b * ((1 - fy) * fx)
        + c * (fy * (1 - fx)) + d * (fy * fx)
    )


class SearchPlanes:
    """Per-reference motion-search acceleration structures, built lazily.

    Two caches, both computed at most once per reference per frame and
    reused by every block and every candidate:

    * sliding-window views of the integer-pel plane per block size, so a
      diamond round's candidate set gathers into an ``(k, S, S)`` stack
      with one fancy-index instead of ``k`` python-level slices;
    * the three half-pel interpolation planes (``fy``/``fx`` in
      ``{0, 0.5}``), replacing per-candidate bilinear interpolation.  Each
      plane pixel is computed with the exact expression
      :func:`sample_block` uses, so samples are bit-identical; planes are
      frozen (non-writeable) because they are shared across blocks.
    """

    __slots__ = (
        "reference", "_windows", "_half_planes", "_half_windows",
        "_stacked_half", "_stacked_half_windows",
    )

    def __init__(self, reference: np.ndarray):
        self.reference = reference
        self._windows: Dict[int, np.ndarray] = {}
        self._half_planes: Dict[Tuple[float, float], np.ndarray] = {}
        self._half_windows: Dict[Tuple[float, float, int], np.ndarray] = {}
        self._stacked_half: Optional[np.ndarray] = None
        self._stacked_half_windows: Dict[int, np.ndarray] = {}

    def windows(self, size: int) -> np.ndarray:
        """Sliding ``(size, size)`` windows over the integer-pel plane."""
        got = self._windows.get(size)
        if got is None:
            got = sliding_window_view(self.reference, (size, size))
            self._windows[size] = got
        return got

    def half_plane(self, fy: float, fx: float) -> np.ndarray:
        """The ``(H-1, W-1)`` plane interpolated at fractional ``(fy, fx)``."""
        got = self._half_planes.get((fy, fx))
        if got is None:
            ref = self.reference
            a = ref[:-1, :-1]
            b = ref[:-1, 1:]
            c = ref[1:, :-1]
            d = ref[1:, 1:]
            # Exactly sample_block's bilinear expression, per pixel.
            got = (
                a * ((1 - fy) * (1 - fx)) + b * ((1 - fy) * fx)
                + c * (fy * (1 - fx)) + d * (fy * fx)
            )
            got.flags.writeable = False
            self._half_planes[(fy, fx)] = got
        return got

    def half_windows(self, fy: float, fx: float, size: int) -> np.ndarray:
        got = self._half_windows.get((fy, fx, size))
        if got is None:
            got = sliding_window_view(self.half_plane(fy, fx), (size, size))
            self._half_windows[(fy, fx, size)] = got
        return got

    def stacked_half_windows(self, size: int) -> np.ndarray:
        """Sliding windows over all 3 half-pel planes stacked on axis 0.

        Shape ``(3, H-size, W-size, size, size)`` with plane order
        ``(0, 0.5)``, ``(0.5, 0)``, ``(0.5, 0.5)`` -- lets half-pel
        refinement gather its 8 candidates with one fancy-index.
        """
        got = self._stacked_half_windows.get(size)
        if got is None:
            if self._stacked_half is None:
                self._stacked_half = np.stack(
                    (
                        self.half_plane(0.0, 0.5),
                        self.half_plane(0.5, 0.0),
                        self.half_plane(0.5, 0.5),
                    )
                )
            got = sliding_window_view(
                self._stacked_half, (size, size), axis=(1, 2)
            )
            self._stacked_half_windows[size] = got
        return got

    def sample(self, y: float, x: float, size: int) -> Optional[np.ndarray]:
        """Bit-identical to ``sample_block(self.reference, y, x, size)``."""
        reference = self.reference
        if (
            y < 0 or x < 0
            or y + size > reference.shape[0] or x + size > reference.shape[1]
        ):
            return None
        yi, xi = int(y), int(x)
        fy, fx = y - yi, x - xi
        if fy == 0 and fx == 0:
            return reference[yi : yi + size, xi : xi + size]
        if (
            yi + size + 1 > reference.shape[0]
            or xi + size + 1 > reference.shape[1]
        ):
            return None
        return self.half_plane(fy, fx)[yi : yi + size, xi : xi + size]


_LARGE_DIAMOND = ((0, -2), (0, 2), (-2, 0), (2, 0), (-1, -1), (-1, 1), (1, -1), (1, 1))
_SMALL_DIAMOND = ((0, -1), (0, 1), (-1, 0), (1, 0))
_HALF_PEL = (
    (-0.5, -0.5), (-0.5, 0.0), (-0.5, 0.5), (0.0, -0.5),
    (0.0, 0.5), (0.5, -0.5), (0.5, 0.0), (0.5, 0.5),
)
#: Per-``_HALF_PEL``-offset gather indices into
#: :meth:`SearchPlanes.stacked_half_windows` for an interior integer-pel
#: centre ``(Y, X)``: a -0.5 offset floors to the previous integer with
#: fraction 0.5, so its window starts one row/column earlier.
_HP_PLANE = np.array([2, 1, 2, 0, 0, 2, 1, 2])
_HP_ROW = np.array([-1, -1, -1, 0, 0, 0, 0, 0])
_HP_COL = np.array([-1, 0, 0, -1, 0, -1, 0, 0])
#: Same mapping as plain python tuples, plus the (fy, fx) fraction per
#: plane id -- used to slice the winning candidate back out after the
#: batched scoring pass (the scored stack was consumed in place).
_HP_ROW_T = (-1, -1, -1, 0, 0, 0, 0, 0)
_HP_COL_T = (-1, 0, 0, -1, 0, -1, 0, 0)
_HP_FRAC_T = (
    (0.5, 0.5), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5),
    (0.0, 0.5), (0.5, 0.5), (0.5, 0.0), (0.5, 0.5),
)

_INF = float("inf")


def _sad(source: np.ndarray, candidate: Optional[np.ndarray]) -> float:
    if candidate is None:
        return float("inf")
    return float(np.abs(source - candidate).sum())


def motion_search(
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
    """Diamond search around (0,0) and the predicted MV; optional half-pel.

    Returns ``(mv, prediction_block, sad)``.  The prediction block is
    always valid (the zero MV candidate is in-frame by construction).

    A candidate's SAD is a pure function of its position, so the whole
    in-range, in-frame search window is scored as ONE batched pass (a
    contiguous gather of sliding windows reduced over the trailing axes,
    bit-identical to the per-candidate sums) and the diamond walk then
    runs as pure-python lookups into that map -- replaying the scalar
    reference's first-improvement candidate order exactly.  Pass
    ``planes`` (a :class:`SearchPlanes` for this reference) to share the
    window views and half-pel planes across every block of a frame.
    """
    if planes is None:
        planes = SearchPlanes(reference)
    windows = planes.windows(size)
    lo_cy = max(-search_range, -y)
    hi_cy = min(search_range, windows.shape[0] - 1 - y)
    lo_cx = max(-search_range, -x)
    hi_cx = min(search_range, windows.shape[1] - 1 - x)
    # Batched map over the convergence box: both start candidates plus a
    # diamond-step margin, clipped to the valid (in-range, in-frame)
    # rectangle.  Walks rarely leave it; escapes fall back to memoized
    # single-candidate SADs, so coverage is a perf knob, never semantics.
    py, px = round(predicted_mv.dy), round(predicted_mv.dx)
    margin = 3
    box_lo_cy = max(lo_cy, min(0, py) - margin)
    box_hi_cy = min(hi_cy, max(0, py) + margin)
    box_lo_cx = max(lo_cx, min(0, px) - margin)
    box_hi_cx = min(hi_cx, max(0, px) + margin)
    # Always a private copy: the window view is read-only, and a box of
    # one candidate on a reference one block wide is already contiguous.
    gathered = windows[
        y + box_lo_cy : y + box_hi_cy + 1,
        x + box_lo_cx : x + box_hi_cx + 1,
    ].copy()
    # In-place |gathered - source|, reduced to python floats so the walk
    # below never touches numpy scalars.
    np.subtract(gathered, source, out=gathered)
    np.abs(gathered, out=gathered)
    sad_map = gathered.sum(axis=(2, 3)).tolist()
    overflow: Dict[Tuple[int, int], float] = {}

    def cold(cy: int, cx: int) -> float:
        """SAD of a candidate outside the batched box (memoized).

        ``windows[r, c]`` is the same strided view a direct reference
        slice yields, so this is bit-identical to the scalar reference's.
        """
        sad = overflow.get((cy, cx))
        if sad is None:
            sad = float(np.abs(source - windows[y + cy, x + cx]).sum())
            overflow[(cy, cx)] = sad
        return sad

    best_y = best_x = 0
    best_sad = sad_map[-box_lo_cy][-box_lo_cx]
    # Start-candidate scan: the (0, 0) member of the reference's start set
    # can never strictly beat itself, so only the predicted start matters.
    if (py != 0 or px != 0) and abs(py) <= search_range and abs(px) <= search_range:
        if box_lo_cy <= py <= box_hi_cy and box_lo_cx <= px <= box_hi_cx:
            sad = sad_map[py - box_lo_cy][px - box_lo_cx]
        elif lo_cy <= py <= hi_cy and lo_cx <= px <= hi_cx:
            sad = cold(py, px)
        else:
            sad = _INF
        if sad < best_sad:
            best_sad, best_y, best_x = sad, py, px

    improved = True
    while improved:
        improved = False
        for dy, dx in _LARGE_DIAMOND:
            cy = best_y + dy
            cx = best_x + dx
            if box_lo_cy <= cy <= box_hi_cy and box_lo_cx <= cx <= box_hi_cx:
                sad = sad_map[cy - box_lo_cy][cx - box_lo_cx]
            elif lo_cy <= cy <= hi_cy and lo_cx <= cx <= hi_cx:
                sad = cold(cy, cx)
            else:
                continue
            if sad < best_sad:
                best_sad, best_y, best_x = sad, cy, cx
                improved = True
    for dy, dx in _SMALL_DIAMOND:
        cy = best_y + dy
        cx = best_x + dx
        if box_lo_cy <= cy <= box_hi_cy and box_lo_cx <= cx <= box_hi_cx:
            sad = sad_map[cy - box_lo_cy][cx - box_lo_cx]
        elif lo_cy <= cy <= hi_cy and lo_cx <= cx <= hi_cx:
            sad = cold(cy, cx)
        else:
            continue
        if sad < best_sad:
            best_sad, best_y, best_x = sad, cy, cx

    prediction = None
    if half_pel:
        mv_y, mv_x, best_sad, prediction = _half_pel_refine(
            planes, source, y, x, size, (best_y, best_x), best_sad
        )
    else:
        mv_y, mv_x = float(best_y), float(best_x)
    if prediction is None:
        # Integer-pel winner: the window view IS the reference slice
        # sample_block would return (same memory, same values).
        prediction = windows[y + best_y, x + best_x]
    return MotionVector(dx=mv_x, dy=mv_y), prediction, best_sad


def _half_pel_refine(
    planes: SearchPlanes,
    source: np.ndarray,
    y: int,
    x: int,
    size: int,
    best_mv: Tuple[int, int],
    best_sad: float,
) -> Tuple[float, float, float, Optional[np.ndarray]]:
    """Score all 8 half-pel offsets around the fixed integer-pel winner.

    All offsets apply to the integer-pel centre (not a drifting one --
    see the drift-bug note on ``_motion_search_reference``), batched per
    interpolation plane.  First-improvement scan order over ``_HALF_PEL``
    is preserved.  Returns ``(mv_y, mv_x, sad, prediction)`` where
    ``prediction`` is the winning half-pel block view, or ``None`` when
    the integer-pel centre won (the caller already holds that view).
    """
    base_y, base_x = best_mv
    height, width = planes.reference.shape
    Y, X = y + base_y, x + base_x
    winner = -1
    if 1 <= Y <= height - size - 1 and 1 <= X <= width - size - 1:
        # Interior centre: all 8 offsets are valid and their plane/origin
        # mapping is fixed (offset -0.5 floors to the previous integer
        # with fraction 0.5), so one fancy-index gathers all 8 candidate
        # blocks across the stacked half-pel planes.
        stacked = planes.stacked_half_windows(size)[
            _HP_PLANE, _HP_ROW + Y, _HP_COL + X
        ]
        np.subtract(stacked, source, out=stacked)
        np.abs(stacked, out=stacked)
        sads = stacked.sum(axis=(1, 2)).tolist()
        mv_y, mv_x = float(base_y), float(base_x)
        for index, (dy, dx) in enumerate(_HALF_PEL):
            if sads[index] < best_sad:
                best_sad = sads[index]
                mv_y, mv_x = base_y + dy, base_x + dx
                winner = index
        if winner < 0:
            return mv_y, mv_x, best_sad, None
        fy, fx = _HP_FRAC_T[winner]
        yi = Y + _HP_ROW_T[winner]
        xi = X + _HP_COL_T[winner]
        prediction = planes.half_plane(fy, fx)[yi : yi + size, xi : xi + size]
        return mv_y, mv_x, best_sad, prediction

    views: List[np.ndarray] = []
    where: List[int] = []
    for index, (dy, dx) in enumerate(_HALF_PEL):
        pos_y = y + base_y + dy
        pos_x = x + base_x + dx
        if pos_y < 0 or pos_x < 0:
            continue
        yi, xi = int(pos_y), int(pos_x)
        if yi + size + 1 > height or xi + size + 1 > width:
            continue
        fy, fx = pos_y - yi, pos_x - xi
        views.append(planes.half_plane(fy, fx)[yi : yi + size, xi : xi + size])
        where.append(index)
    sads = [_INF] * len(_HALF_PEL)
    candidates: List[Optional[np.ndarray]] = [None] * len(_HALF_PEL)
    if views:
        stacked = np.empty((len(views), size, size), dtype=np.float64)
        for slot, view in enumerate(views):
            stacked[slot] = view
        batch = np.abs(stacked - source).sum(axis=(1, 2)).tolist()
        for slot, index in enumerate(where):
            sads[index] = batch[slot]
            candidates[index] = views[slot]
    mv_y, mv_x = float(base_y), float(base_x)
    for index, (dy, dx) in enumerate(_HALF_PEL):
        if sads[index] < best_sad:
            best_sad = sads[index]
            mv_y, mv_x = base_y + dy, base_x + dx
            winner = index
    if winner < 0:
        return mv_y, mv_x, best_sad, None
    return mv_y, mv_x, best_sad, candidates[winner]


def _motion_search_reference(
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


#: Mean absolute error per pixel below which further references are not
#: searched -- a "good enough" early exit real encoders also take.
GOOD_ENOUGH_SAD_PER_PIXEL = 1.0


def best_inter(
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
    """Search references in order; returns (ref_index, mv, prediction, sad).

    Stops early once a reference predicts to within
    :data:`GOOD_ENOUGH_SAD_PER_PIXEL` mean error.  ``planes`` optionally
    carries one :class:`SearchPlanes` per reference (same order) so the
    per-frame caches are shared across blocks.
    """
    if not references:
        raise ValueError("best_inter needs at least one reference")
    good_enough = GOOD_ENOUGH_SAD_PER_PIXEL * size * size
    best: Tuple[int, MotionVector, np.ndarray, float] = (
        -1, MotionVector(0.0, 0.0), None, float("inf"),  # type: ignore
    )
    for index, reference in enumerate(references):
        mv, prediction, sad = motion_search(
            source, reference, y, x, size, search_range, half_pel, predicted_mv,
            planes=planes[index] if planes is not None else None,
        )
        if sad < best[3]:
            best = (index, mv, prediction, sad)
        if best[3] <= good_enough:
            break
    return best


def _best_inter_reference(
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
    """Reference-path counterpart of :func:`best_inter` (scalar search)."""
    del planes
    if not references:
        raise ValueError("best_inter needs at least one reference")
    good_enough = GOOD_ENOUGH_SAD_PER_PIXEL * size * size
    best: Tuple[int, MotionVector, np.ndarray, float] = (
        -1, MotionVector(0.0, 0.0), None, float("inf"),  # type: ignore
    )
    for index, reference in enumerate(references):
        mv, prediction, sad = _motion_search_reference(
            source, reference, y, x, size, search_range, half_pel, predicted_mv
        )
        if sad < best[3]:
            best = (index, mv, prediction, sad)
        if best[3] <= good_enough:
            break
    return best
