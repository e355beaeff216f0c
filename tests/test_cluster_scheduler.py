"""Tests for bin-packing vs single-slot scheduling and pools."""

from functools import partial

import numpy as np
import pytest

from repro.cluster.pool import Pool, PoolKey, Priority, UseCase
from repro.cluster.scheduler import BinPackingScheduler, SingleSlotScheduler
from repro.cluster.worker import VcuWorker
from repro.sim.rng import make_rng
from repro.vcu.chip import Vcu
from repro.vcu.spec import DEFAULT_VCU_SPEC
from tests.oracles.scheduler import fit_mask, place_scan


def make_workers(count=3):
    return [VcuWorker(Vcu(DEFAULT_VCU_SPEC, vcu_id=f"s-vcu{i}")) for i in range(count)]


class TestBinPacking:
    def test_figure6_example(self):
        # Worker 0 has no decode millicores left; the request lands on
        # Worker 1 (first fit by worker number); Worker N stays idle.
        workers = make_workers(3)
        assert workers[0].try_admit({"millidecode": 3000.0})  # exhaust decode
        scheduler = BinPackingScheduler(workers)
        request = {"millidecode": 500.0, "milliencode": 3750.0}
        placed = scheduler.place(request)
        assert placed is workers[1]
        assert workers[2].is_idle()

    def test_atomic_multidimensional_fit(self):
        workers = make_workers(1)
        scheduler = BinPackingScheduler(workers)
        assert scheduler.place({"milliencode": 9000.0}) is workers[0]
        # encode nearly full: a request needing encode+decode must fail
        # even though decode alone would fit.
        assert scheduler.place({"milliencode": 2000.0, "millidecode": 100.0}) is None
        assert scheduler.rejections == 1

    def test_exclusion_list_respected(self):
        workers = make_workers(2)
        scheduler = BinPackingScheduler(workers)
        placed = scheduler.place({"milliencode": 100.0}, excluded={workers[0].name})
        assert placed is workers[1]

    def test_disabled_worker_skipped(self):
        workers = make_workers(2)
        workers[0].vcu.disable()
        scheduler = BinPackingScheduler(workers)
        assert scheduler.place({"milliencode": 1.0}) is workers[1]

    def test_add_remove_worker(self):
        """A scheduler's fleet is fixed when it is built (there is no
        add or remove), so what is left to pin is the empty fleet: it
        places nothing."""
        scheduler = BinPackingScheduler([])
        assert scheduler.place({"milliencode": 1.0}) is None


class TestSingleSlot:
    def test_slot_exhaustion_strands_capacity(self):
        # The legacy model: tiny steps burn whole slots, so a worker
        # "fills up" while its physical resources are mostly idle.
        workers = make_workers(1)
        scheduler = SingleSlotScheduler(workers, slots_per_worker=2)
        tiny = {"milliencode": 100.0}
        assert scheduler.place(tiny) is workers[0]
        assert scheduler.place(tiny) is workers[0]
        assert scheduler.place(tiny) is None  # slots gone, capacity stranded
        assert workers[0].vcu.encoder_utilization() < 0.05

    def test_release_slot_restores(self):
        workers = make_workers(1)
        scheduler = SingleSlotScheduler(workers, slots_per_worker=1)
        request = {"milliencode": 100.0}
        worker = scheduler.place(request)
        assert scheduler.place(request) is None
        worker.release(request)
        scheduler.release_slot(worker)
        assert scheduler.place(request) is worker

    def test_validates_slots(self):
        with pytest.raises(ValueError):
            SingleSlotScheduler(make_workers(1), slots_per_worker=0)


class TestIndexedScanEquivalence:
    """The indexed ``place`` must reproduce the linear scan exactly.

    Replays one pseudo-random placement/release stream through two
    identical fleets -- one driven by the pre-index ``place_scan``, one
    by the indexed ``place`` -- and asserts the placement *sequences*
    match worker for worker.  Two fleets are required because both paths
    mutate worker resources as they admit."""

    REQUEST_SHAPES = [
        {"millidecode": 250.0, "milliencode": 1200.0, "dram_bytes": 40e6},
        {"millidecode": 500.0, "milliencode": 3750.0, "dram_bytes": 160e6},
        {"millidecode": 120.0, "milliencode": 600.0, "dram_bytes": 20e6},
        {"millidecode": 1000.0, "milliencode": 7500.0, "dram_bytes": 330e6},
    ]

    def _replay(self, place_attr, steps, workers_n=7, seed=123, scheduler=None):
        if scheduler is None:
            scheduler = BinPackingScheduler(self._eq_fleet(workers_n))
        place = _placer(scheduler, place_attr)
        rng = make_rng(seed)
        in_flight = []
        trace = []
        for _ in range(steps):
            if in_flight and rng.random() < 0.35:
                worker, request = in_flight.pop(int(rng.integers(len(in_flight))))
                scheduler.release(worker, request)
                trace.append(("release", worker.name))
                continue
            request = self.REQUEST_SHAPES[int(rng.integers(len(self.REQUEST_SHAPES)))]
            worker = place(request)
            if worker is None:
                trace.append(("reject", None))
            else:
                in_flight.append((worker, request))
                trace.append(("place", worker.name))
        return trace, scheduler

    @staticmethod
    def _eq_fleet(workers_n=7):
        return [
            VcuWorker(Vcu(DEFAULT_VCU_SPEC, vcu_id=f"eq-vcu{i}"))
            for i in range(workers_n)
        ]

    def test_indexed_matches_scan_on_replayed_stream(self):
        for seed in (1, 22, 333):
            scan_trace, scan_sched = self._replay("place_scan", 600, seed=seed)
            fast_trace, fast_sched = self._replay("place", 600, seed=seed)
            assert fast_trace == scan_trace
            assert fast_sched.rejections == scan_sched.rejections
            assert fast_sched.placements == scan_sched.placements

    def test_indexed_matches_scan_with_preference_and_exclusion(self):
        for seed in (7, 70):
            traces = []
            for place_attr in ("place_scan", "place"):
                workers = [
                    VcuWorker(Vcu(DEFAULT_VCU_SPEC, vcu_id=f"pe-vcu{i}"))
                    for i in range(5)
                ]
                scheduler = BinPackingScheduler(workers)
                place = _placer(scheduler, place_attr)
                rng = make_rng(seed)
                names = [w.name for w in workers]
                trace = []
                in_flight = []
                for _ in range(300):
                    if in_flight and rng.random() < 0.4:
                        worker, request = in_flight.pop(
                            int(rng.integers(len(in_flight)))
                        )
                        scheduler.release(worker, request)
                        trace.append(("release", worker.name))
                        continue
                    request = self.REQUEST_SHAPES[
                        int(rng.integers(len(self.REQUEST_SHAPES)))
                    ]
                    preference = (
                        [names[i] for i in rng.choice(5, size=2, replace=False)]
                        if rng.random() < 0.5 else None
                    )
                    excluded = (
                        {names[int(rng.integers(len(names)))]}
                        if rng.random() < 0.3 else frozenset()
                    )
                    worker = place(request, preference=preference, excluded=excluded)
                    if worker is None:
                        trace.append(("reject", None))
                    else:
                        in_flight.append((worker, request))
                        trace.append(("place", worker.name))
                traces.append(trace)
            assert traces[0] == traces[1]

    # A fleet wide enough that first fit reaches rows far past the front
    # (the placement path once computed its fit mask 256 rows at a time).
    WIDE = 700
    #: Nearly a whole device, so pre-filled workers take nothing else.
    FILL = {"millidecode": 2500.0, "milliencode": 9000.0, "dram_bytes": 1e9}

    def _replay_wide(self, scheduler, seed, direct_releases, steps=1500):
        """Replay a stream that mixes every way rows drift from ground truth.

        90% of the fleet is filled behind the scheduler's back (optimistic
        rows); placements carry preferences and exclusions drawn from the
        whole fleet; devices are disabled and re-enabled mid-stream; 15%
        of admissions go through ``place_scan`` (optimistic rows); and,
        with ``direct_releases``, half the releases bypass the scheduler
        (pessimistic rows, which ``place`` must honour exactly as the
        whole-fleet mask does).
        """
        workers = scheduler.workers
        rng = make_rng(seed)
        in_flight = []
        for worker in workers:
            if rng.random() < 0.9:
                assert worker.try_admit(self.FILL)
                in_flight.append((worker, self.FILL))
        trace = []
        for _ in range(steps):
            roll = rng.random()
            if roll < 0.2 and in_flight:
                worker, request = in_flight.pop(int(rng.integers(len(in_flight))))
                if direct_releases and rng.random() < 0.5:
                    worker.release(request)
                else:
                    scheduler.release(worker, request)
                trace.append(("release", worker.name))
                continue
            if roll < 0.25:
                vcu = workers[int(rng.integers(len(workers)))].vcu
                if vcu.disabled:
                    vcu.enable()
                else:
                    vcu.disable()
                trace.append(("toggle", vcu.vcu_id))
                continue
            request = self.REQUEST_SHAPES[int(rng.integers(len(self.REQUEST_SHAPES)))]
            preference = (
                [workers[int(i)].name for i in rng.choice(len(workers), 2, replace=False)]
                if rng.random() < 0.3 else None
            )
            excluded = (
                {workers[int(i)].name for i in rng.choice(len(workers), 3, replace=False)}
                if rng.random() < 0.3 else frozenset()
            )
            place = (
                partial(place_scan, scheduler) if rng.random() < 0.15
                else scheduler.place
            )
            worker = place(request, excluded=excluded, preference=preference)
            trace.append(
                ("reject", None) if worker is None else ("place", worker.name)
            )
        return trace

    def _wide_fleet(self):
        return [
            VcuWorker(Vcu(DEFAULT_VCU_SPEC, vcu_id=f"wide-vcu{i}"))
            for i in range(self.WIDE)
        ]

    def test_indexed_matches_scan_on_multi_block_fleet(self):
        rejections = 0
        for seed in (5, 55):
            scan = BinPackingScheduler(self._wide_fleet())
            scan.place = partial(place_scan, scan)
            fast = BinPackingScheduler(self._wide_fleet())
            fast_trace = self._replay_wide(fast, seed, direct_releases=False)
            assert fast_trace == self._replay_wide(scan, seed, direct_releases=False)
            last = max(
                int(name.rsplit("vcu", 1)[1])
                for op, name in fast_trace if op == "place"
            )
            assert last >= 2 * 256  # placements reached deep rows
            rejections += fast_trace.count(("reject", None))
        assert rejections  # some placements walked every fitting row and failed

    def test_blockwise_matches_whole_fleet_mask_with_pessimistic_rows(self):
        """Releases that bypass ``scheduler.release`` break the row
        contract and leave rows pessimistic, so ``place`` may pick a later
        worker than the scan would, or reject; first fit over the shape's
        fit bits must still pick exactly what a first fit over one
        whole-fleet mask (kept here as the oracle) picks."""
        for seed in (5, 55):
            fast = BinPackingScheduler(self._wide_fleet())
            fast_trace = self._replay_wide(fast, seed, direct_releases=True)
            oracle_trace = self._replay_wide(
                _WholeFleetMaskScheduler(self._wide_fleet()), seed,
                direct_releases=True,
            )
            assert fast_trace == oracle_trace

    def test_fit_bits_match_references_across_log_bound(self):
        """Streams long enough to pass the change log's bound, which
        clears the log and drops every shape's fit bits, still make the
        references' decisions: the linear scan's with exact rows, and
        the whole-fleet mask's with direct releases, disable/enable
        toggles, preferences and exclusions."""
        for seed in (1, 22, 333):
            scan_trace, _ = self._replay("place_scan", 4000, seed=seed)
            fast = BinPackingScheduler(self._eq_fleet())
            refreshes = _count_refreshes(fast)
            fast_trace, _ = self._replay("place", 4000, seed=seed, scheduler=fast)
            assert fast_trace == scan_trace
            assert len(fast._changed) < refreshes[0]  # the bound cleared the log
        for seed in (5, 55):
            fast = BinPackingScheduler(self._eq_fleet())
            refreshes = _count_refreshes(fast)
            fast_trace = self._replay_drifting(fast, seed)
            oracle_trace = self._replay_drifting(
                _WholeFleetMaskScheduler(self._eq_fleet()), seed
            )
            assert fast_trace == oracle_trace
            assert len(fast._changed) < refreshes[0]

    def _replay_drifting(self, scheduler, seed, steps=4000):
        """A long stream of placements and releases in which a quarter of
        the releases bypass the scheduler (pessimistic rows), devices are
        disabled and re-enabled, and placements carry preferences and
        exclusions."""
        workers = scheduler.workers
        rng = make_rng(seed)
        in_flight = []
        trace = []
        for _ in range(steps):
            roll = rng.random()
            if roll < 0.35 and in_flight:
                worker, request = in_flight.pop(int(rng.integers(len(in_flight))))
                if rng.random() < 0.25:
                    worker.release(request)
                else:
                    scheduler.release(worker, request)
                trace.append(("release", worker.name))
                continue
            if roll < 0.4:
                vcu = workers[int(rng.integers(len(workers)))].vcu
                if vcu.disabled:
                    vcu.enable()
                else:
                    vcu.disable()
                trace.append(("toggle", vcu.vcu_id))
                continue
            request = self.REQUEST_SHAPES[int(rng.integers(len(self.REQUEST_SHAPES)))]
            preference = (
                [workers[int(i)].name for i in rng.choice(len(workers), 2, replace=False)]
                if rng.random() < 0.3 else None
            )
            excluded = (
                {workers[int(i)].name for i in rng.choice(len(workers), 2, replace=False)}
                if rng.random() < 0.3 else frozenset()
            )
            worker = scheduler.place(request, excluded=excluded, preference=preference)
            if worker is None:
                trace.append(("reject", None))
            else:
                in_flight.append((worker, request))
                trace.append(("place", worker.name))
        return trace


def _placer(scheduler, place_attr):
    """``scheduler``'s indexed ``place``, or the linear-scan oracle bound
    to it for ``"place_scan"``."""
    if place_attr == "place_scan":
        return partial(place_scan, scheduler)
    return getattr(scheduler, place_attr)


def _count_refreshes(scheduler):
    """Count the change-log entries ``scheduler`` has appended: its log
    so far plus every row it re-reads from here on.  A log shorter than
    the count shows the log bound was passed."""
    count = [len(scheduler._changed)]
    refresh_row = scheduler._refresh_row

    def counted(index):
        count[0] += 1
        refresh_row(index)

    scheduler._refresh_row = counted
    return count


class _WholeFleetMaskScheduler(BinPackingScheduler):
    """Oracle: first fit over one whole-fleet fit mask, computed up front."""

    def _place_indexed(self, request, excluded, preference):
        mask = fit_mask(self, request)
        preferred = set()
        for name in preference or ():
            index = self._by_name.get(name)
            if index is None:
                continue
            preferred.add(index)
            worker = self._workers[index]
            if (
                mask[index]
                and worker.name not in excluded
                and worker.available()
                and worker.try_admit(request)
            ):
                self._refresh_row(index)
                return worker
        for index in np.flatnonzero(mask).tolist():
            worker = self._workers[index]
            if index in preferred or worker.name in excluded or not worker.available():
                continue
            if worker.try_admit(request):
                self._refresh_row(index)
                return worker
        return None


class TestPools:
    def test_demand_pressure(self):
        pool = Pool(PoolKey(Priority.BATCH, UseCase.UPLOAD))
        assert pool.demand_pressure() == 0.0
        pool.pending_steps = 4
        assert pool.demand_pressure() == float("inf")
        pool.workers = make_workers(2)
        assert pool.demand_pressure() == 2.0
