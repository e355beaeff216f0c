"""The bin packer's pre-index placement and its whole-fleet fit mask.

:func:`place_scan` is :class:`~repro.cluster.scheduler.BinPackingScheduler`'s
placement before the availability index: a linear scan of the fleet in
probe order.  The equivalence suite replays one placement stream through
it and through the indexed ``place`` and asserts the same decisions, and
the perf floors measure the index's win against it.  :func:`fit_mask` is
``MultiResource.fits`` vectorized over every availability row: the
reference every request shape's cached fit bits must equal.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

import numpy as np

from repro.cluster.scheduler import (
    BinPackingScheduler,
    PlaceableWorker,
    _emit_placement,
)


def _ordered_workers(
    workers: Sequence[PlaceableWorker], preference: Optional[Sequence[str]]
) -> Sequence[PlaceableWorker]:
    """Probe order: the caller's preferred names first, then the rest.

    ``preference`` is how consistent-hash chunk affinity plugs into
    placement (Section 4.4's blast-radius enhancement) without the
    scheduler knowing anything about videos.
    """
    if not preference:
        return workers
    by_name = {w.name: w for w in workers}
    preferred = [by_name[name] for name in preference if name in by_name]
    chosen = set(preference)
    return preferred + [w for w in workers if w.name not in chosen]


def fit_mask(
    scheduler: BinPackingScheduler, request: Dict[str, float]
) -> np.ndarray:
    """Elementwise replica of ``MultiResource.fits`` over every row,
    vectorized: the reference every shape's fit bits equal."""
    avail = np.array(scheduler._avail, dtype=np.float64).reshape(
        len(scheduler._avail), len(scheduler._dims)
    )
    mask = np.ones(len(avail), dtype=bool)
    for dim, amount in request.items():
        if amount <= 0:
            continue
        j = scheduler._dim_index.get(dim)
        if j is None:
            # Dimension no indexed worker has: only resource-less
            # workers can fit it (their try_admit decides).
            mask &= np.array(scheduler._unindexed, dtype=bool)
            continue
        epsilon = max(1e-9, 1e-9 * abs(amount))
        mask &= avail[:, j] + epsilon >= amount
    return mask


def place_scan(
    scheduler: BinPackingScheduler,
    request: Dict[str, float],
    excluded: Set[str] = frozenset(),
    preference: Optional[Sequence[str]] = None,
) -> Optional[PlaceableWorker]:
    """Pre-index linear scan (parity/benchmark reference).

    Identical placement semantics to :meth:`BinPackingScheduler.place`;
    kept so the equivalence suite can replay one placement stream through
    both and the perf floors can measure the index's win.  Admissions it
    performs leave the index optimistic, which ``place`` tolerates by
    construction.
    """
    for worker in _ordered_workers(scheduler._workers, preference):
        if worker.name in excluded or not worker.available():
            continue
        if worker.try_admit(request):
            scheduler.placements += 1
            _emit_placement("bin_packing", worker, excluded, preference)
            return worker
    scheduler.rejections += 1
    _emit_placement("bin_packing", None, excluded, preference)
    return None
