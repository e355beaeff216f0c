"""Cluster hot paths: persistent per-shape fit bits, O(1) availability and
exact utilization records.

The cluster layer trades per-placement scans for cached and
incrementally maintained state.  These tests pin the equivalence claims
down:

* :meth:`BinPackingScheduler.place_batch` returns exactly the workers a
  sequential run of :meth:`place` would, across generated request
  streams with interleaved releases, and a release reaches the next
  placement of its shape through that shape's persistent fit bits.
* The cluster's incremental availability count/mask -- its only
  availability path -- agrees with the ground-truth fleet scan at every
  observation point, through quarantines, rehabilitation, sweep
  disables, host drains and repairs, including a sweep that takes a
  host past its fault budget while the capped repair queue is full.
* After every drain, the scheduler's rows equal a freshly built
  scheduler's, every cached request shape's fit bits (caught up with
  the change log) equal the vectorized fit mask over those rows, and
  the telemetry's utilization table equals a fresh per-worker read;
  every recorded utilization mean equals the old walk over every live
  worker, under both schedulers and through a fault-and-repair storm.
  (``tests/test_live_sums.py`` holds the pairwise sums behind those
  records to numpy's own reduction.)
* A saturated month prices each distinct transcode task once per
  worker configuration, however many steps share it and however many
  placements refuse them.
"""

from __future__ import annotations

from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CpuWorker, TranscodeCluster, VcuWorker
from repro.cluster.scheduler import BinPackingScheduler
from repro.cluster.telemetry import FleetTelemetry
from repro.cluster.timeline import default_timeline, run_month
from repro.failures import FailureManager, FailureSweeper, FaultInjector
from repro.sim.engine import Simulator
from repro.transcode import PopularityBucket, build_transcode_graph
from repro.vcu import chip
from repro.vcu.chip import Vcu
from repro.vcu.host import VcuHost
from repro.vcu.spec import DEFAULT_VCU_SPEC
from repro.vcu.telemetry import FaultKind
from repro.video.frame import resolution
from tests.oracles.scheduler import fit_mask

SHAPES = [
    {"millidecode": 250.0, "milliencode": 1200.0, "dram_bytes": 40e6},
    {"millidecode": 500.0, "milliencode": 3750.0, "dram_bytes": 160e6},
    {"millidecode": 120.0, "milliencode": 600.0, "dram_bytes": 20e6},
    {"millidecode": 1000.0, "milliencode": 7500.0, "dram_bytes": 330e6},
]


def _make_scheduler(n=12):
    workers = [
        VcuWorker(Vcu(DEFAULT_VCU_SPEC, vcu_id=f"fm{n}-{i}")) for i in range(n)
    ]
    return BinPackingScheduler(workers)


class TestBatchPlacementEquivalence:
    @settings(deadline=None)
    @given(rounds=st.lists(
        st.tuples(
            st.lists(st.integers(0, len(SHAPES) - 1), max_size=12),
            st.integers(0, 6),
        ),
        max_size=6,
    ))
    def test_place_batch_matches_sequential_place(self, rounds):
        """Rounds of (arrival batch, #releases): the batched scheduler and
        a twin running the plain sequential path must make identical
        decisions throughout."""
        batched = _make_scheduler()
        plain = _make_scheduler()
        in_flight = []
        for shape_ids, release_n in rounds:
            requests = [SHAPES[i] for i in shape_ids]
            got = batched.place_batch(requests)
            want = [plain.place(request) for request in requests]
            assert [w.name if w else None for w in got] == [
                w.name if w else None for w in want
            ]
            for request, b_worker, p_worker in zip(requests, got, want):
                if b_worker is not None:
                    in_flight.append((request, b_worker, p_worker))
            for _ in range(min(release_n, len(in_flight))):
                request, b_worker, p_worker = in_flight.pop(0)
                batched.release(b_worker, request)
                plain.release(p_worker, request)

    def test_release_inside_batch_is_visible(self):
        """A release reaches the shape's persistent fit bits -- the next
        placement of that shape must see the freed capacity."""
        scheduler = _make_scheduler(n=1)
        capacity = scheduler.workers[0].resources.capacity["milliencode"]
        request = {"milliencode": capacity}  # the whole device
        first = scheduler.place(request)
        assert first is not None
        assert scheduler.place(request) is None  # device is full
        scheduler.release(first, request)
        assert scheduler.place(request) is not None


def _fleet_cluster(sim, hosts_n=3, **kwargs):
    hosts = [VcuHost(host_id=f"fm-host{i}") for i in range(hosts_n)]
    workers = [
        VcuWorker(vcu, host=host) for host in hosts for vcu in host.vcus
    ]
    cpu_workers = [CpuWorker(cores=16) for _ in range(2)]
    cluster = TranscodeCluster(sim, workers, cpu_workers, seed=5, **kwargs)
    return hosts, cluster


def _upload(video_id):
    return build_transcode_graph(
        video_id=video_id, source=resolution("720p"), total_frames=300,
        fps=30.0, bucket=PopularityBucket.WARM,
    )


def _start_storm(sim, hosts, cluster):
    """Corruptions, hangs, ECC faults, sweep disables, drains and repairs
    for an hour, with uploads arriving through the first 15 minutes."""
    vcus = [vcu for host in hosts for vcu in host.vcus]
    injector = FaultInjector(sim, vcus, seed=13)
    # A deterministic early corruption guarantees a caught-corrupt
    # quarantine; the random storms cover the rest of the paths.
    injector.corrupt_at(0.5, vcus[0])
    injector.random_corruptions(30.0, until=900.0)
    injector.random_hangs(120.0, until=900.0, duration=30.0)
    injector.random_hard_faults(2.0, until=900.0, count=3)
    manager = FailureManager(hosts, repair_cap=2, card_swap_threshold=2)
    sweeper = FailureSweeper(
        sim, manager, interval_seconds=60.0, repair_seconds=300.0,
        cluster=cluster,
    )
    sweeper.start(until=3600.0)

    def submitter():
        # Keep work arriving through the storm so faults land on
        # *active* workers, not an idle fleet.
        for i in range(30):
            cluster.submit(_upload(f"storm-v{i}"))
            yield 30.0

    sim.process(submitter(), name="storm-submitter")
    return sweeper


def _scan(cluster):
    return sum(1 for w in cluster.vcu_workers if w.available())


def _assert_count_exact(cluster):
    truth = _scan(cluster)
    assert cluster._available_count == truth
    mask = cluster.availability_mask()
    assert int(mask.sum()) == truth
    for worker, bit in zip(cluster.vcu_workers, mask):
        assert bool(bit) == worker.available()


class TestFleetAvailability:
    def test_initial_count_matches_scan(self):
        sim = Simulator()
        _, cluster = _fleet_cluster(sim)
        _assert_count_exact(cluster)

    def test_count_exact_through_fault_and_repair_storm(self):
        """Corruptions, hangs, sweep disables, drains and repairs -- the
        incremental count must equal the ground-truth scan at every
        sample point and at the end."""
        sim = Simulator()
        hosts, cluster = _fleet_cluster(sim)
        sweeper = _start_storm(sim, hosts, cluster)
        checks = []

        def monitor():
            while sim.now + 45.0 <= 3600.0:
                yield 45.0
                checks.append((sim.now, cluster._available_count, _scan(cluster)))

        sim.process(monitor(), name="fleet-monitor")
        sim.run()
        assert checks, "monitor never sampled"
        for at, counted, truth in checks:
            assert counted == truth, f"count drifted at t={at}"
        _assert_count_exact(cluster)
        # The storm actually exercised the mutation paths.
        assert cluster.stats.workers_quarantined > 0
        assert sweeper.sweeps > 0

    def test_sweep_past_fault_budget_with_repair_queue_full(self):
        """A sweep can push a host past its fault budget while the capped
        repair queue is full: the host turns unusable with no drain to
        announce it.  The count must still equal a scan after every
        sweep, and an upload submitted then must fall back to software
        instead of waiting out a repair for VCUs that are gone."""
        sim = Simulator()
        hosts, cluster = _fleet_cluster(sim, hosts_n=2)
        injector = FaultInjector(sim, [v for h in hosts for v in h.vcus])
        for at, host in ((10.0, hosts[0]), (70.0, hosts[1])):
            injector.correlated_host_fault(
                at, host, kind=FaultKind.ECC_UNCORRECTABLE,
                vcu_count=host.fault_budget, count_per_vcu=3,
            )
        repair_seconds = 900.0
        manager = FailureManager(hosts, repair_cap=1)
        sweeper = FailureSweeper(
            sim, manager, interval_seconds=60.0, repair_seconds=repair_seconds,
            cluster=cluster,
        )
        sweeper.start(until=600.0)
        checks = []

        def monitor():
            yield 1.0  # read each sweep's outcome once its drains ran
            for _ in range(10):
                yield 60.0
                checks.append((sim.now, cluster.healthy_vcu_count(), _scan(cluster)))

        sim.process(monitor(), name="sweep-monitor")
        graph = _upload("drift-v0")
        sim.call_at(130.0, lambda: cluster.submit(graph))
        sim.run()
        assert sweeper.sweeps == len(checks) == 10
        for at, counted, truth in checks:
            assert counted == truth, f"count drifted at t={at}"
        # Host 1 went unusable at the second sweep with host 0 still in
        # repair, so its repair never started.
        assert checks[1][2] == 0
        assert sweeper.repairs_started == 1
        assert graph.completed_at is not None
        assert cluster.stats.software_fallbacks > 0
        assert graph.completed_at - graph.submitted_at < repair_seconds / 10

    def test_healthy_vcu_count_uses_incremental_count(self):
        sim = Simulator()
        _, cluster = _fleet_cluster(sim)
        assert cluster.healthy_vcu_count() == cluster._available_count

    def test_note_availability_changed_contract(self):
        """Direct out-of-API mutation followed by the documented
        notification keeps the count exact."""
        sim = Simulator()
        _, cluster = _fleet_cluster(sim)
        worker = cluster.vcu_workers[0]
        worker.vcu.disable()  # bypasses the health machine on purpose
        cluster.note_availability_changed(worker)
        _assert_count_exact(cluster)
        worker.vcu.enable()
        cluster.note_availability_changed(worker)
        _assert_count_exact(cluster)


def _walk_means(cluster):
    """Oracle: the recorded means as they were computed before the
    utilization table -- a Python mean over every live worker."""
    workers = list(compress(cluster.vcu_workers, cluster.availability_mask()))
    encoder = float(np.mean([w.vcu.encoder_utilization() for w in workers]))
    decoder = float(np.mean([w.vcu.decoder_utilization() for w in workers]))
    return encoder, decoder


class TestRowsAndUtilizationTableExact:
    """Scheduler rows are exact by contract and the utilization table
    never drifts, so nothing ever needs to re-read the fleet."""

    @pytest.fixture
    def checked(self, monkeypatch):
        seen = {"drains": 0, "records": 0, "shapes": 0, "cluster": None}
        drain = TranscodeCluster._drain_pending
        record = FleetTelemetry.flush
        init = TranscodeCluster.__init__
        owner = {}

        def tracked_init(cluster, *args, **kwargs):
            init(cluster, *args, **kwargs)
            owner[cluster.telemetry] = cluster

        def checked_drain(cluster):
            drain(cluster)
            scheduler = cluster.vcu_scheduler
            if isinstance(scheduler, BinPackingScheduler):
                # A freshly built scheduler reads ground truth.
                fresh = BinPackingScheduler(cluster.vcu_workers)
                assert np.array_equal(scheduler._avail, fresh._avail)
                # Every cached shape's bits, caught up with the change
                # log, equal the vectorized fit mask over those rows.
                for key in list(scheduler._shapes):
                    request = dict(key)
                    bits = scheduler._fit_bits(request)
                    assert list(bits) == fit_mask(scheduler, request).tolist()
                    seen["shapes"] += 1
            workers = cluster.vcu_workers
            assert np.array_equal(
                cluster.telemetry.encoder_rows,
                [w.vcu.encoder_utilization() for w in workers],
            )
            assert np.array_equal(
                cluster.telemetry.decoder_rows,
                [w.vcu.decoder_utilization() for w in workers],
            )
            seen["drains"] += 1
            seen["cluster"] = cluster

        def checked_record(telemetry):
            record(telemetry)
            cluster = owner[telemetry]
            if cluster.healthy_vcu_count():
                recorded = (cluster.encoder_util.current, cluster.decoder_util.current)
                assert recorded == _walk_means(cluster)
                seen["records"] += 1

        monkeypatch.setattr(TranscodeCluster, "__init__", tracked_init)
        monkeypatch.setattr(TranscodeCluster, "_drain_pending", checked_drain)
        monkeypatch.setattr(FleetTelemetry, "flush", checked_record)
        return seen

    def test_figure9_month(self, checked):
        """A saturated month: deep pending queues, most
        placements rejected, both hardware-decode lanes in play."""
        month = default_timeline(7)[6]
        result = run_month(month, horizon_seconds=20.0, seed=5)
        assert result.total_megapixels > 0
        scheduler = checked["cluster"].vcu_scheduler
        assert scheduler.rejections > scheduler.placements > 0
        assert checked["drains"] > 0 and checked["records"] > 0
        assert checked["shapes"] > 0

    def test_single_slot_scheduler(self, checked):
        """The legacy scheduler has no rows; the table still stays exact."""
        sim = Simulator()
        _, cluster = _fleet_cluster(
            sim, hosts_n=1, use_bin_packing=False, legacy_slots=1,
        )
        for i in range(30):
            cluster.submit(_upload(f"slot-v{i}"))
        sim.run()
        assert cluster.stats.completed_graphs == 30
        assert cluster.vcu_scheduler.rejections > 0
        assert checked["drains"] > 0 and checked["records"] > 0

    def test_through_fault_and_repair_storm(self, checked):
        """Quarantines, sweep disables, drains and repairs flip the
        availability mask between records: each flip marks the sums
        stale and the next record rebuilds them."""
        sim = Simulator()
        hosts, cluster = _fleet_cluster(sim)
        sweeper = _start_storm(sim, hosts, cluster)
        sim.run()
        assert cluster.stats.workers_quarantined > 0
        assert sweeper.sweeps > 0 and sweeper.repairs_started > 0
        assert checked["drains"] > 0 and checked["records"] > 0


class TestPerStepCosts:
    def test_request_computed_once_per_step(self, monkeypatch):
        """Saturated queues reject most placements, and equal steps share
        one task: ``resource_request`` runs exactly once per distinct
        (task, spec, configuration), far fewer times than the 672 steps
        that try a VCU."""
        priced = []
        real = chip.resource_request

        def counting(task, spec, target_speedup=1.0, decode_safety_factor=1.0):
            # Holding the task and spec keeps their ids unique for the run.
            priced.append((task, spec, target_speedup, decode_safety_factor))
            return real(task, spec, target_speedup, decode_safety_factor)

        monkeypatch.setattr(chip, "resource_request", counting)
        month = default_timeline(7)[6]
        result = run_month(month, horizon_seconds=20.0, seed=5)
        assert result.total_megapixels > 0
        keys = {(id(task), id(spec), *config) for task, spec, *config in priced}
        assert len(keys) == len(priced)
        assert len({id(spec) for _, spec, *_ in priced}) == 1
        assert 0 < len(priced) < 672
