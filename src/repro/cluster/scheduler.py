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
The bin packer keeps each worker's availability as one row of floats
and, per request shape, one fit bit per row (replicating
``MultiResource.fits`` -- same epsilon, same missing-dimension rule)
that persists from one placement to the next: rows change only when
they are re-read, every re-read is logged, and a placement re-tests
just the rows logged since its shape was last used.  The single-slot
model keeps a sorted free list.  ``worker.try_admit`` stays
authoritative: the index is a pre-filter whose rows are exact by
contract -- each row is re-read from worker ground truth after every
admission and release the scheduler makes, and
:meth:`BinPackingScheduler.release` is the only way capacity comes back
(the ``capacity-through-scheduler`` lint rule enforces that statically).
Placements are therefore identical to the pre-index linear scan
(preserved as :meth:`BinPackingScheduler.place_scan` for the equivalence
suite and the perf harness).
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Dict, List, Optional, Protocol, Sequence, Set, Tuple

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


#: The change log holds at most this many entries per row, plus
#: ``_LOG_SLACK``, before :class:`BinPackingScheduler` clears it and
#: drops every shape's fit bits (each shape rebuilds on its next use).
_LOG_PER_ROW = 32
_LOG_SLACK = 1024


class BinPackingScheduler:
    """Online multi-dimensional bin packing over an availability cache.

    The cache is one row of floats per worker, one column per named
    dimension: workers without a ``resources`` attribute (test shims)
    carry ``+inf`` rows (always candidates, ``try_admit`` decides),
    dimensions a worker lacks carry ``-inf`` (never fit, matching
    ``MultiResource.fits``).  Rows are exact after every admit and
    release the scheduler makes, and :meth:`release` is the only way
    capacity comes back, so a row is never *pessimistic* and a fruitless
    pass is a real rejection.  Rows may turn *optimistic* --
    :meth:`place_scan` admits without touching them -- and that is
    tolerated: ``try_admit`` rejects and the scan continues, which is
    exactly what the linear scan did.

    Each request shape keeps a ``bytearray`` of fit bits over the rows
    and the change-log position those bits reflect.  Rows change only in
    :meth:`_refresh_row`, which logs the row, so a shape's bits equal
    :meth:`_fit_mask` once it re-tests the rows logged since its last
    use.
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
        self._avail: List[List[float]] = []
        self._unindexed = bytearray()  # workers w/o .resources
        #: Row indices in the order :meth:`_refresh_row` re-read them.
        self._changed: List[int] = []
        self._log_limit = _LOG_SLACK
        #: ``tuple(request.items())`` -> ``[tests, bits, seen]``: the
        #: shape's ``(column, epsilon, amount)`` row tests, its fit bit
        #: per row, and the change-log position the bits reflect.
        self._shapes: Dict[Tuple, list] = {}
        self._rebuild_index()

    @property
    def workers(self) -> List[PlaceableWorker]:
        return list(self._workers)

    def add_worker(self, worker: PlaceableWorker) -> None:
        self._workers.append(worker)
        self._by_name[worker.name] = len(self._workers) - 1
        resources = getattr(worker, "resources", None)
        if resources is not None and any(
            dim not in self._dim_index for dim in resources.capacity
        ):
            self._rebuild_index()
            return
        self._avail.append([])
        self._unindexed.append(resources is None)
        self._forget_shapes()
        self._refresh_row(len(self._workers) - 1)

    def remove_worker(self, worker: PlaceableWorker) -> None:
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
        self._avail = [[] for _ in self._workers]
        self._unindexed = bytearray(
            getattr(w, "resources", None) is None for w in self._workers
        )
        self._forget_shapes()
        for index in range(len(self._workers)):
            self._refresh_row(index)

    def _forget_shapes(self) -> None:
        """Drop every shape's fit bits and clear the change log."""
        self._shapes.clear()
        self._changed.clear()
        self._log_limit = _LOG_PER_ROW * len(self._avail) + _LOG_SLACK

    def _refresh_row(self, index: int) -> None:
        """Re-read one worker's availability row from ground truth and
        log the change."""
        resources = getattr(self._workers[index], "resources", None)
        if resources is None:
            self._avail[index] = [math.inf] * len(self._dims)
        else:
            available = resources.available
            self._avail[index] = [
                float(available.get(dim, -math.inf)) for dim in self._dims
            ]
        changed = self._changed
        changed.append(index)
        if len(changed) > self._log_limit:
            self._forget_shapes()

    def refresh(self) -> None:
        """Re-read every row from ground truth: the one explicit re-sync,
        for a caller that moved capacity without :meth:`release`."""
        for index in range(len(self._workers)):
            self._refresh_row(index)

    def _fit_mask(self, request: Dict[str, float]) -> np.ndarray:
        """Elementwise replica of ``MultiResource.fits`` over every row,
        vectorized: the reference every shape's fit bits equal."""
        avail = np.array(self._avail, dtype=np.float64).reshape(
            len(self._avail), len(self._dims)
        )
        mask = np.ones(len(avail), dtype=bool)
        for dim, amount in request.items():
            if amount <= 0:
                continue
            j = self._dim_index.get(dim)
            if j is None:
                # Dimension no indexed worker has: only resource-less
                # workers can fit it (their try_admit decides).
                mask &= np.array(self._unindexed, dtype=bool)
                continue
            epsilon = max(1e-9, 1e-9 * abs(amount))
            mask &= avail[:, j] + epsilon >= amount
        return mask

    def _fit_bits(self, request: Dict[str, float]) -> bytearray:
        """The request shape's fit bit per row, caught up with the log.

        A shape re-tests the rows logged since its last use, or every
        row when more entries are pending than there are rows.  The
        tests are :meth:`_fit_mask`'s, one row at a time.
        """
        key = tuple(request.items())
        shape = self._shapes.get(key)
        changed = self._changed
        avail = self._avail
        if shape is None or len(changed) - shape[2] > len(avail):
            tests = []
            for dim, amount in request.items():
                if amount <= 0:
                    continue
                j = self._dim_index.get(dim)
                if j is None:
                    # Resource-less workers' rows are +inf, so they pass
                    # every other test: the bits are exactly theirs.
                    return self._unindexed
                tests.append((j, max(1e-9, 1e-9 * abs(amount)), amount))
            shape = self._shapes[key] = [tests, bytearray(len(avail)), 0]
            rows: Sequence[int] = range(len(avail))
        else:
            rows = changed[shape[2]:]
        tests, bits, _ = shape
        shape[2] = len(changed)
        for index in rows:
            row = avail[index]
            for j, epsilon, amount in tests:
                if not row[j] + epsilon >= amount:
                    bits[index] = 0
                    break
            else:
                bits[index] = 1
        return bits

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
        nowhere is the rejection.
        """
        worker = self._place_indexed(request, excluded, preference)
        if worker is not None:
            self.placements += 1
        else:
            self.rejections += 1
        _emit_placement("bin_packing", worker, excluded, preference)
        return worker

    def place_batch(
        self,
        requests: Sequence[Dict[str, float]],
        excluded: Set[str] = frozenset(),
        preference: Optional[Sequence[str]] = None,
    ) -> List[Optional[PlaceableWorker]]:
        """Place an arrival batch in order, one :meth:`place` each."""
        return [self.place(request, excluded, preference) for request in requests]

    def _place_indexed(
        self,
        request: Dict[str, float],
        excluded: Set[str],
        preference: Optional[Sequence[str]],
    ) -> Optional[PlaceableWorker]:
        """First fit over the shape's fit bits: the preferred workers,
        then every fitting row in worker order."""
        bits = self._fit_bits(request)
        workers = self._workers
        preferred: Set[int] = set()
        if preference:
            by_name = self._by_name
            for name in preference:
                index = by_name.get(name)
                if index is None:
                    continue
                preferred.add(index)
                worker = workers[index]
                if (
                    bits[index]
                    and worker.name not in excluded
                    and worker.available()
                    and worker.try_admit(request)
                ):
                    self._refresh_row(index)
                    return worker
        index = bits.find(1)
        while index >= 0:
            worker = workers[index]
            if (
                index not in preferred
                and worker.name not in excluded
                and worker.available()
                and worker.try_admit(request)
            ):
                self._refresh_row(index)
                return worker
            index = bits.find(1, index + 1)
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
