"""Work schedulers: multi-dimensional bin packing vs the legacy model.

:class:`BinPackingScheduler` is the paper's contribution (Section 3.3.3):
an availability cache of every worker's remaining capacity across all
named resource dimensions, with a load-maximizing greedy placement
(first fit by worker number, exactly as in Figure 6 -- Worker 0 lacking
decode millicores sends the request to Worker 1).

:class:`SingleSlotScheduler` is the prior uniform-cost model: every step
costs one slot regardless of shape, so a 144p SOT and a 2160p MOT consume
the same "capacity" -- the mismatch the bin-packing scheduler fixes.

Hot-path structure: both schedulers keep an *index* over the worker list
so a placement probes candidates instead of scanning the whole fleet.
The bin packer caches per-worker availability as one ``(n_workers,
n_dims)`` array and computes the set of fitting workers with a handful
of vectorized comparisons (replicating ``MultiResource.fits`` -- same
epsilon, same missing-dimension rule); the single-slot model keeps a
sorted free list.  ``worker.try_admit`` stays authoritative: the index
is a pre-filter whose rows are exact by contract -- each row is re-read
from worker ground truth after every admission and release the
scheduler makes, and :meth:`BinPackingScheduler.release` is the only way
capacity comes back (the ``capacity-through-scheduler`` lint rule
enforces that statically).  Placements are therefore identical to the
pre-index linear scan (preserved as :meth:`BinPackingScheduler.place_scan`
for the equivalence suite and the perf harness).
"""

from __future__ import annotations

from bisect import insort
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Protocol, Sequence, Set, Tuple

import numpy as np

from repro import obs


def _emit_placement(
    scheduler: str,
    worker: Optional[PlaceableWorker],
    excluded: Set[str],
    preference: Optional[Sequence[str]],
) -> None:
    """One ``sched`` span per placement decision (accept or reject).

    The scheduler has no clock of its own; the span timestamp comes from
    the hub's bound virtual clock (see ``Observability.bind_clock``).
    Costs a global load + None check when no hub is installed.
    """
    hub = obs.active()
    if hub is None:
        return
    accepted = worker is not None
    hub.count("sched.placements" if accepted else "sched.rejections")
    hub.emit(
        "sched", scheduler,
        attrs={
            "worker": worker.name if accepted else None,
            "excluded": len(excluded),
            "preferred": bool(preference),
        },
    )


class PlaceableWorker(Protocol):  # pragma: no cover - structural typing
    name: str

    def available(self) -> bool: ...
    def try_admit(self, request: Dict[str, float]) -> bool: ...


class SchedulerProtocol(Protocol):  # pragma: no cover
    def place(
        self,
        request: Dict[str, float],
        excluded: Set[str] = frozenset(),
        preference: Optional[Sequence[str]] = None,
    ) -> Optional[PlaceableWorker]: ...


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


#: Rows per fit-mask block in :meth:`BinPackingScheduler._place_indexed`.
#: First fit usually admits in the first block, so a placement pays for
#: a few hundred rows instead of the whole fleet; fleets this small or
#: smaller still get one vectorized pass.
_FIT_BLOCK = 256


class _ShapeCache:
    """Per-request-shape placement state, valid for one batch.

    ``mask``/``order`` are the fit mask and its candidate index list,
    computed once per shape per batch.  ``dead`` collects indices whose
    ``try_admit`` rejected this shape: within a batch, availability only
    ever *decreases* (admits are observed, releases invalidate the whole
    batch), so a resource rejection is permanent for the batch and the
    scan never re-probes the worker.
    """

    __slots__ = ("mask", "order", "dead")

    def __init__(self, mask: np.ndarray):
        self.mask = mask
        self.order: List[int] = np.flatnonzero(mask).tolist()
        self.dead: Set[int] = set()


class BinPackingScheduler:
    """Online multi-dimensional bin packing over an availability cache.

    The cache is an ``(n_workers, n_dims)`` float array of remaining
    capacity per named dimension: workers without a ``resources``
    attribute (test shims) carry ``+inf`` rows (always candidates,
    ``try_admit`` decides), dimensions a worker lacks carry ``-inf``
    (never fit, matching ``MultiResource.fits``).  Rows are exact after
    every admit and release the scheduler makes, and :meth:`release` is
    the only way capacity comes back, so a row is never *pessimistic*
    and a fruitless pass is a real rejection.  Rows may turn
    *optimistic* -- :meth:`place_scan` admits without touching them --
    and that is tolerated: ``try_admit`` rejects and the scan continues,
    which is exactly what the linear scan did.
    """

    def __init__(self, workers: Sequence[PlaceableWorker]):
        self._workers: List[PlaceableWorker] = list(workers)
        # Maintained incrementally on add/remove -- the pre-index code
        # rebuilt a name->worker dict on every placement.
        self._by_name: Dict[str, int] = {
            w.name: i for i, w in enumerate(self._workers)
        }
        self.placements = 0
        self.rejections = 0
        self._dims: List[str] = []
        self._dim_index: Dict[str, int] = {}
        self._avail = np.empty((0, 0), dtype=np.float64)
        self._unindexed = np.empty(0, dtype=bool)  # workers w/o .resources
        #: Per-request-shape caches of the open :meth:`batch`, if any.
        self._batch: Optional[Dict[Tuple, _ShapeCache]] = None
        self._rebuild_index()

    @property
    def workers(self) -> List[PlaceableWorker]:
        return list(self._workers)

    def add_worker(self, worker: PlaceableWorker) -> None:
        if self._batch is not None:
            self._batch.clear()
        self._workers.append(worker)
        self._by_name[worker.name] = len(self._workers) - 1
        resources = getattr(worker, "resources", None)
        if resources is not None and any(
            dim not in self._dim_index for dim in resources.capacity
        ):
            self._rebuild_index()
            return
        self._avail = np.vstack(
            [self._avail, np.empty((1, len(self._dims)), dtype=np.float64)]
        )
        self._unindexed = np.append(self._unindexed, resources is None)
        self._refresh_row(len(self._workers) - 1)

    def remove_worker(self, worker: PlaceableWorker) -> None:
        if self._batch is not None:
            self._batch.clear()
        self._workers.remove(worker)
        self._by_name = {w.name: i for i, w in enumerate(self._workers)}
        self._rebuild_index()

    # ------------------------------------------------------------------ #
    # Availability index

    def _rebuild_index(self) -> None:
        dims: List[str] = []
        seen: Set[str] = set()
        for worker in self._workers:
            resources = getattr(worker, "resources", None)
            if resources is None:
                continue
            for dim in resources.capacity:
                if dim not in seen:
                    seen.add(dim)
                    dims.append(dim)
        self._dims = dims
        self._dim_index = {dim: j for j, dim in enumerate(dims)}
        self._avail = np.empty(
            (len(self._workers), len(dims)), dtype=np.float64
        )
        self._unindexed = np.array(
            [getattr(w, "resources", None) is None for w in self._workers],
            dtype=bool,
        ).reshape(len(self._workers))
        for index in range(len(self._workers)):
            self._refresh_row(index)

    def _refresh_row(self, index: int) -> None:
        """Re-read one worker's availability vector from ground truth."""
        row = self._avail[index]
        resources = getattr(self._workers[index], "resources", None)
        if resources is None:
            row[:] = np.inf
            return
        available = resources.available
        for j, dim in enumerate(self._dims):
            row[j] = available.get(dim, -np.inf)

    def refresh(self) -> None:
        """Re-read every row from ground truth: the one explicit re-sync,
        for a caller that moved capacity without :meth:`release`."""
        if self._batch is not None:
            self._batch.clear()
        for index in range(len(self._workers)):
            self._refresh_row(index)

    def _fit_mask(
        self, request: Dict[str, float], start: int = 0, stop: Optional[int] = None
    ) -> np.ndarray:
        """Elementwise replica of ``MultiResource.fits`` over rows
        ``start:stop`` (default: every worker)."""
        avail = self._avail[start:stop]
        mask = np.ones(len(avail), dtype=bool)
        for dim, amount in request.items():
            if amount <= 0:
                continue
            j = self._dim_index.get(dim)
            if j is None:
                # Dimension no indexed worker has: only resource-less
                # workers can fit it (their try_admit decides).
                mask &= self._unindexed[start:stop]
                continue
            epsilon = max(1e-9, 1e-9 * abs(amount))
            mask &= avail[:, j] + epsilon >= amount
        return mask

    # ------------------------------------------------------------------ #
    # Placement

    def place(
        self,
        request: Dict[str, float],
        excluded: Set[str] = frozenset(),
        preference: Optional[Sequence[str]] = None,
    ) -> Optional[PlaceableWorker]:
        """First worker (by number) whose availability fits the request.

        ``excluded`` carries worker names the step must avoid -- e.g. VCUs
        it already failed on (Section 4.4's fault-correlation retries).
        ``preference`` front-loads the probe order (chunk affinity).

        Rows are exact (see the class docstring), so a pass that admits
        nowhere is the rejection.  Inside a :meth:`batch` context the fit
        mask and candidate order are cached per request shape; decisions
        are identical to the unbatched path (see the batch-amortization
        notes on :meth:`batch`).
        """
        batch = self._batch
        if batch is None:
            worker = self._place_indexed(request, excluded, preference)
        else:
            worker = self._place_batched(batch, request, excluded, preference)
        if worker is not None:
            self.placements += 1
        else:
            self.rejections += 1
        _emit_placement("bin_packing", worker, excluded, preference)
        return worker

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Amortize a run of placements over shared per-shape caches.

        Batch amortization is sound because every event that could make
        a cached view *pessimistic* (miss a worker that actually fits)
        invalidates the cache: releases (the only way capacity comes
        back), worker add/remove, and :meth:`refresh` all clear it.  The
        remaining drift is *optimistic* -- admits inside the batch shrink
        real availability below the cached mask -- and ``try_admit`` stays
        authoritative, so a stale candidate is probed once, rejected, and
        marked dead for the rest of the batch (availability for a shape
        can only keep shrinking until the next invalidation).  First-fit
        order is untouched; the batch path returns exactly the worker the
        unbatched path would.

        Nested ``batch()`` contexts join the outermost batch.
        """
        if self._batch is not None:
            yield
            return
        self._batch = {}
        try:
            yield
        finally:
            self._batch = None

    def place_batch(
        self,
        requests: Sequence[Dict[str, float]],
        excluded: Set[str] = frozenset(),
        preference: Optional[Sequence[str]] = None,
    ) -> List[Optional[PlaceableWorker]]:
        """Place an arrival batch in order; one vectorized scan per shape."""
        with self.batch():
            return [
                self.place(request, excluded, preference) for request in requests
            ]

    def _place_batched(
        self,
        batch: Dict[Tuple, _ShapeCache],
        request: Dict[str, float],
        excluded: Set[str],
        preference: Optional[Sequence[str]],
    ) -> Optional[PlaceableWorker]:
        key = tuple(sorted(request.items()))
        entry = batch.get(key)
        if entry is None:
            entry = _ShapeCache(self._fit_mask(request))
            batch[key] = entry
        return self._scan_shape(entry, request, excluded, preference)

    def _scan_shape(
        self,
        entry: _ShapeCache,
        request: Dict[str, float],
        excluded: Set[str],
        preference: Optional[Sequence[str]],
    ) -> Optional[PlaceableWorker]:
        workers = self._workers
        mask = entry.mask
        dead = entry.dead
        preferred: Set[int] = set()
        if preference:
            by_name = self._by_name
            for name in preference:
                index = by_name.get(name)
                if index is None:
                    continue
                preferred.add(index)
                if index in dead or not mask[index]:
                    continue
                worker = workers[index]
                if worker.name in excluded or not worker.available():
                    continue
                if worker.try_admit(request):
                    self._refresh_row(index)
                    return worker
                dead.add(index)
        for index in entry.order:
            if index in dead or index in preferred:
                continue
            worker = workers[index]
            if worker.name in excluded or not worker.available():
                continue
            if worker.try_admit(request):
                self._refresh_row(index)
                return worker
            dead.add(index)
        return None

    def _place_indexed(
        self,
        request: Dict[str, float],
        excluded: Set[str],
        preference: Optional[Sequence[str]],
    ) -> Optional[PlaceableWorker]:
        """First fit, computing the fit mask one block of rows at a time.

        Rows change only when an admission succeeds, and that ends the
        scan, so masks computed lazily block by block (and shared with
        the preference probes) equal one whole-fleet mask; the scan just
        stops paying for rows past the first worker that admits.
        """
        workers = self._workers
        masks: Dict[int, np.ndarray] = {}
        preferred: Set[int] = set()
        if preference:
            by_name = self._by_name
            for name in preference:
                index = by_name.get(name)
                if index is None:
                    continue
                preferred.add(index)
                start = index - index % _FIT_BLOCK
                mask = masks.get(start)
                if mask is None:
                    mask = self._fit_mask(request, start, start + _FIT_BLOCK)
                    masks[start] = mask
                worker = workers[index]
                if (
                    mask[index - start]
                    and worker.name not in excluded
                    and worker.available()
                    and worker.try_admit(request)
                ):
                    self._refresh_row(index)
                    return worker
        for start in range(0, len(workers), _FIT_BLOCK):
            mask = masks.get(start)
            if mask is None:
                mask = self._fit_mask(request, start, start + _FIT_BLOCK)
            for offset in np.flatnonzero(mask).tolist():
                index = start + offset
                if index in preferred:
                    continue
                worker = workers[index]
                if worker.name in excluded or not worker.available():
                    continue
                if worker.try_admit(request):
                    self._refresh_row(index)
                    return worker
        return None

    def place_scan(
        self,
        request: Dict[str, float],
        excluded: Set[str] = frozenset(),
        preference: Optional[Sequence[str]] = None,
    ) -> Optional[PlaceableWorker]:
        """Pre-index linear scan (parity/benchmark reference).

        Identical placement semantics to :meth:`place`; kept so the
        equivalence suite can replay one placement stream through both
        and the perf harness can measure the index's win.  Admissions it
        performs leave the index optimistic, which :meth:`place`
        tolerates by construction.
        """
        for worker in _ordered_workers(self._workers, preference):
            if worker.name in excluded or not worker.available():
                continue
            if worker.try_admit(request):
                self.placements += 1
                _emit_placement("bin_packing", worker, excluded, preference)
                return worker
        self.rejections += 1
        _emit_placement("bin_packing", None, excluded, preference)
        return None

    def release(
        self, worker: PlaceableWorker, request: Dict[str, float]
    ) -> None:
        """Release a placed request and re-read its worker's row.

        The only way capacity comes back, which is what keeps rows exact.
        """
        worker.release(request)  # type: ignore[attr-defined]
        if self._batch is not None:
            # A release can make cached batch masks pessimistic (a worker
            # they exclude now fits); drop them so the next placement
            # recomputes against ground truth.
            self._batch.clear()
        index = self._by_name.get(worker.name)
        if index is not None and self._workers[index] is worker:
            self._refresh_row(index)


class SingleSlotScheduler:
    """The legacy one-dimensional "single slot per graph step" model.

    Each worker advertises a fixed slot count derived from its configured
    size and the *average* step resource usage; every step takes exactly
    one slot.  Oversized steps overload workers, undersized steps strand
    capacity -- which the ablation benchmark quantifies.  A sorted free
    list (worker indices with spare slots) keeps placement from scanning
    slot-exhausted workers; first-fit-by-worker-number order is unchanged.
    """

    def __init__(self, workers: Sequence[PlaceableWorker], slots_per_worker: int = 4):
        if slots_per_worker < 1:
            raise ValueError("slots_per_worker must be >= 1")
        self._workers = list(workers)
        self._by_name: Dict[str, int] = {
            w.name: i for i, w in enumerate(self._workers)
        }
        self._slots: List[int] = [slots_per_worker] * len(self._workers)
        self._free: List[int] = list(range(len(self._workers)))
        self.slots_per_worker = slots_per_worker
        self.placements = 0
        self.rejections = 0

    @property
    def workers(self) -> List[PlaceableWorker]:
        return list(self._workers)

    def _take_slot(self, index: int) -> None:
        self._slots[index] -= 1
        if self._slots[index] == 0:
            self._free.remove(index)

    def place(
        self,
        request: Dict[str, float],
        excluded: Set[str] = frozenset(),
        preference: Optional[Sequence[str]] = None,
    ) -> Optional[PlaceableWorker]:
        """One slot per step; the request's actual shape is ignored, but
        the worker's physical resources are still reserved (a real machine
        cannot run what does not fit)."""
        preferred: Set[int] = set()
        if preference:
            for name in preference:
                index = self._by_name.get(name)
                if index is None:
                    continue
                preferred.add(index)
                worker = self._workers[index]
                if (
                    self._slots[index] > 0
                    and worker.name not in excluded
                    and worker.available()
                    and worker.try_admit(request)
                ):
                    self._take_slot(index)
                    self.placements += 1
                    _emit_placement("single_slot", worker, excluded, preference)
                    return worker
        for index in list(self._free):
            if index in preferred:
                continue
            worker = self._workers[index]
            if worker.name in excluded or not worker.available():
                continue
            if worker.try_admit(request):
                self._take_slot(index)
                self.placements += 1
                _emit_placement("single_slot", worker, excluded, preference)
                return worker
        self.rejections += 1
        _emit_placement("single_slot", None, excluded, preference)
        return None

    @contextmanager
    def batch(self) -> Iterator[None]:
        """A no-op: there are no per-shape caches to share, but callers
        open a batch on either scheduler alike."""
        yield

    def release_slot(self, worker: PlaceableWorker) -> None:
        index = self._by_name[worker.name]
        self._slots[index] += 1
        if self._slots[index] == 1:
            insort(self._free, index)

    def release(
        self, worker: PlaceableWorker, request: Dict[str, float]
    ) -> None:
        """Release a placed request plus the slot it burned."""
        worker.release(request)  # type: ignore[attr-defined]
        self.release_slot(worker)
