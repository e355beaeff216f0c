"""End-to-end control-plane tests: lifecycle, shedding, failover, and the
global-platform-day scenario's SLO scorecard."""

import math

import pytest

from repro.cluster.autoscale import CapacityAutoscaleConfig
from repro.control.admission import AdmissionConfig
from repro.control.jobs import JobRequest, JobState, RetryPolicy, SloClass
from repro.control.plane import ClusterExecutor, ControlPlane, ModeledExecutor, make_sites
from repro.control.scenario import (
    ScenarioConfig,
    build_scorecard,
    run_global_platform_day,
)
from repro.sim.engine import Simulator
from tests.conftest import golden_scorecard_keys


def two_sites(slots=2):
    return make_sites([
        ("east", "us", (10.0, 0.0), slots),
        ("west", "us", (0.0, 0.0), slots),
    ])


def request(job_id, cls=SloClass.UPLOAD, origin=(0.0, 0.0), at=0.0,
            service=10.0):
    return JobRequest(
        job_id=job_id, slo_class=cls, origin=origin,
        arrival_time=at, service_seconds=service,
    )


def drained(plane):
    report = plane.ledger.conservation_report()
    assert report["ok"], report
    return report


class TestLifecycle:
    def test_all_jobs_complete_and_conserve(self):
        sim = Simulator()
        plane = ControlPlane(sim, two_sites())
        for i in range(6):
            plane.submit(request(f"j{i}", service=5.0))
        sim.run()
        report = drained(plane)
        assert report["counts"]["done"] == 6
        assert plane.queue_wait[SloClass.UPLOAD].total == 6

    def test_dispatch_respects_slot_limits(self):
        sim = Simulator()
        plane = ControlPlane(sim, two_sites(slots=1))
        for i in range(4):
            plane.submit(request(f"j{i}", origin=(0.0, 0.0), service=10.0))
        running = sum(len(s.running) for s in plane.router.sites)
        assert running == 2  # one per site, the rest queued
        sim.run()
        drained(plane)

    def test_retries_then_dead_letter_on_full_failure(self):
        sim = Simulator()
        retry = RetryPolicy(max_attempts=3)
        plane = ControlPlane(
            sim, two_sites(), retry=retry,
            executor=ModeledExecutor(sim, failure_rate=0.999999999),
        )
        job = plane.submit(request("doomed"))
        sim.run()
        assert job.state is JobState.FAILED
        assert job.attempts == 3
        assert plane.retries[SloClass.UPLOAD] == 2
        assert len(plane.dead_letters) == 1
        assert plane.dead_letters.entries[0].job_id == "doomed"
        drained(plane)

    def test_backoff_delays_are_deterministic(self):
        sim = Simulator()
        plane = ControlPlane(
            sim, two_sites(), retry=RetryPolicy(max_attempts=2),
            executor=ModeledExecutor(sim, failure_rate=0.999999999),
        )
        job = plane.submit(request("j", service=10.0))
        sim.run()
        # attempt 1 at t=0 fails at t=10, backoff 2s, attempt 2 at t=12
        # fails at t=22 and the budget is spent.
        assert job.completed_at() == pytest.approx(22.0)
        assert job.retry_wait_seconds == pytest.approx(2.0)


class TestShedding:
    def test_batch_sheds_before_live_on_arrival(self):
        sim = Simulator()
        plane = ControlPlane(
            sim, two_sites(slots=2),  # 4 slots total
            admission=AdmissionConfig(
                live_ceiling=8.0, upload_ceiling=4.0, batch_ceiling=1.5,
            ),
        )
        for i in range(10):
            plane.submit(request(f"b{i}", cls=SloClass.BATCH, service=50.0))
        for i in range(4):
            plane.submit(request(f"l{i}", cls=SloClass.LIVE, service=50.0))
        counts = plane.class_counts()
        assert counts["batch"]["shed"] == 4   # admitted up to 6/4 = 1.5x
        assert counts["live"]["shed"] == 0
        sim.run()
        drained(plane)

    def test_shed_jobs_are_terminal_with_reason(self):
        sim = Simulator()
        plane = ControlPlane(sim, two_sites(slots=1),
                             admission=AdmissionConfig(batch_ceiling=0.5))
        plane.submit(request("b0", cls=SloClass.BATCH, service=5.0))
        shed = plane.submit(request("b1", cls=SloClass.BATCH, service=5.0))
        assert shed.state is JobState.SHED
        reasons = [r.reason for r in plane.ledger.records
                   if r.job_id == "b1" and r.to_state is JobState.SHED]
        assert reasons == ["overload:arrival"]
        sim.run()
        drained(plane)


class TestFailover:
    def test_outage_drains_to_survivor_and_recovers(self):
        sim = Simulator()
        plane = ControlPlane(sim, two_sites(slots=2))
        # Six long jobs near east: 2 run there, 2 spill-run on west, 2
        # queue on east (least-loaded tie goes nearest).
        for i in range(6):
            plane.submit(request(f"j{i}", origin=(10.0, 0.0), service=100.0))
        plane.schedule_outage("east", at=10.0, duration_seconds=500.0)
        sim.run()
        report = drained(plane)
        assert report["counts"]["done"] == 6
        assert plane.outages_started == 1
        assert plane.drained_running > 0      # east's in-flight died
        assert plane.drained_queued > 0       # east's queue moved over
        assert plane.router.failover_routed > 0
        # The cancelled attempts consumed retry budget.
        assert plane.retries[SloClass.UPLOAD] >= plane.drained_running

    @pytest.mark.parametrize("at, duration", [
        (10.0, math.inf), (10.0, math.nan), (10.0, 0.0), (10.0, -5.0),
        (math.nan, 5.0), (math.inf, 5.0), (-1.0, 5.0), (1e308, 1e308),
    ])
    def test_rejected_outage_schedules_nothing(self, at, duration):
        sim = Simulator()
        plane = ControlPlane(sim, two_sites())
        for _ in range(2):
            with pytest.raises(ValueError, match="outage"):
                plane.schedule_outage("east", at=at, duration_seconds=duration)
        assert sim.run(until=100.0) == 100.0
        assert plane.router.site("east").up
        assert plane.outages_started == 0

    def test_total_blackout_parks_instead_of_shedding(self):
        sim = Simulator()
        plane = ControlPlane(sim, make_sites([("only", "us", (0.0, 0.0), 2)]))
        plane.schedule_outage("only", at=5.0, duration_seconds=100.0)
        sim.call_at(50.0, lambda: plane.submit(request("parked", at=50.0)))
        sim.run()
        report = drained(plane)
        assert report["counts"]["done"] == 1
        assert report["counts"]["shed"] == 0
        job = plane.ledger.jobs["parked"]
        # Held QUEUED through the blackout, admitted after recovery.
        assert job.queue_seconds >= 55.0

    def test_outage_sweep_sheds_class_ordered(self):
        sim = Simulator()
        plane = ControlPlane(
            sim, two_sites(slots=2),
            admission=AdmissionConfig(
                live_ceiling=20.0, upload_ceiling=8.0, batch_ceiling=2.0,
            ),
        )
        for i in range(7):
            plane.submit(request(f"b{i}", cls=SloClass.BATCH, service=200.0))
        for i in range(3):
            plane.submit(request(f"l{i}", cls=SloClass.LIVE, service=200.0))
        counts = plane.class_counts()
        assert counts["batch"]["shed"] == 0  # 10 jobs on 4 slots: 2.5 > 2.0?
        plane.site_down("west")
        counts = plane.class_counts()
        assert counts["batch"]["shed"] > 0
        assert counts["live"]["shed"] == 0


class TestDeterminism:
    def test_same_seed_same_scorecard(self):
        config = ScenarioConfig(day_seconds=300.0)
        first = run_global_platform_day(config, seed=3)
        second = run_global_platform_day(config, seed=3)
        assert first.scorecard == second.scorecard
        assert first.end_time == second.end_time

    def test_different_seed_differs(self):
        config = ScenarioConfig(day_seconds=300.0)
        a = run_global_platform_day(config, seed=3)
        b = run_global_platform_day(config, seed=4)
        assert a.scorecard != b.scorecard


class TestScenario:
    @pytest.fixture(scope="class")
    def result(self):
        return run_global_platform_day(
            ScenarioConfig(day_seconds=900.0), seed=11
        )

    def test_scorecard_keys_are_exact(self, result):
        keys = golden_scorecard_keys()["platform-day"]
        assert tuple(sorted(result.scorecard)) == keys

    def test_conservation_invariant(self, result):
        card = result.scorecard
        assert card["conservation.ok"] is True
        assert card["jobs.submitted"] == (
            card["jobs.done"] + card["jobs.failed"] + card["jobs.shed"]
        )

    def test_outage_produces_failover_and_ordered_shedding(self, result):
        card = result.scorecard
        assert card["outages.count"] == 1
        assert card["failover.routed"] > 0
        # A healthy fleet keeps queues near-empty, so the drain is
        # dominated by in-flight work (the queued path is unit-tested).
        assert card["failover.drained_running"] > 0
        assert card["class.batch.shed"] > 0
        assert card["class.live.shed"] == 0
        assert card["class.live.completion_rate"] > 0.99

    def test_autoscaler_reacted(self, result):
        assert result.scorecard["autoscale.actions"] > 0

    def test_retries_happen_under_faults(self, result):
        card = result.scorecard
        total_retries = sum(
            card[f"class.{c}.retries"] for c in ("live", "upload", "batch")
        )
        assert total_retries > 0

    def test_control_arm_sheds_nothing(self):
        result = run_global_platform_day(
            ScenarioConfig(day_seconds=900.0, outage=False), seed=11
        )
        card = result.scorecard
        assert card["outages.count"] == 0
        assert card["failover.routed"] == 0
        assert card["jobs.shed"] == 0
        assert card["conservation.ok"] is True

    def test_scorecard_matches_builder(self, result):
        assert result.scorecard == build_scorecard(result.plane)


class TestClusterExecutor:
    def test_jobs_run_as_real_step_graphs(self):
        from repro.cluster import TranscodeCluster, VcuWorker
        from repro.vcu.chip import Vcu
        from repro.vcu.spec import DEFAULT_VCU_SPEC

        sim = Simulator()
        workers = [
            VcuWorker(Vcu(DEFAULT_VCU_SPEC, vcu_id=f"ctl-vcu{i}"))
            for i in range(2)
        ]
        cluster = TranscodeCluster(sim, workers)
        plane = ControlPlane(
            sim, make_sites([("lab", "us", (0.0, 0.0), 2)]),
            executor=ClusterExecutor(cluster),
        )
        for i in range(3):
            plane.submit(request(f"g{i}", service=2.0))
        sim.run()
        report = drained(plane)
        assert report["counts"]["done"] == 3
        assert cluster.stats.completed_graphs == 3

    def test_graphs_outside_the_plane_are_ignored(self):
        from repro.cluster import TranscodeCluster, VcuWorker
        from repro.transcode import build_transcode_graph
        from repro.vcu.chip import Vcu
        from repro.vcu.spec import DEFAULT_VCU_SPEC
        from repro.video.frame import resolution

        sim = Simulator()
        workers = [VcuWorker(Vcu(DEFAULT_VCU_SPEC, vcu_id="solo-vcu"))]
        cluster = TranscodeCluster(sim, workers)
        plane = ControlPlane(
            sim, make_sites([("lab", "us", (0.0, 0.0), 1)]),
            executor=ClusterExecutor(cluster),
        )
        graph = build_transcode_graph(
            video_id="outsider", source=resolution("480p"),
            total_frames=30, fps=30.0,
        )
        cluster.submit(graph)  # not a control-plane job
        plane.submit(request("inside", service=1.0))
        sim.run()
        drained(plane)
        assert cluster.stats.completed_graphs == 2


class TestAutoscale:
    def test_backlog_grows_slots_and_peak_tracks(self):
        sim = Simulator()
        plane = ControlPlane(
            sim, two_sites(slots=2),
            autoscale=CapacityAutoscaleConfig(
                scale_up_pressure=1.0, scale_down_pressure=0.1, step_slots=2,
            ),
            autoscale_interval_seconds=10.0,
        )
        for i in range(20):
            plane.submit(request(f"j{i}", service=200.0))
        plane.start_autoscaler(until=100.0)
        sim.run()
        drained(plane)
        assert plane.autoscaler.actions > 0
        assert plane.peak_capacity > 4

    def test_start_without_config_raises(self):
        sim = Simulator()
        plane = ControlPlane(sim, two_sites())
        with pytest.raises(RuntimeError):
            plane.start_autoscaler(until=10.0)

    @pytest.mark.parametrize(
        "interval", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_interval_must_be_finite_and_positive(self, interval):
        # A zero interval would tick forever at one timestamp and a NaN
        # one would never tick; both platform-day scenarios build their
        # plane here, so the plane is where the interval is checked.
        sim = Simulator()
        with pytest.raises(ValueError, match="autoscale_interval_seconds"):
            ControlPlane(
                sim, two_sites(),
                autoscale=CapacityAutoscaleConfig(),
                autoscale_interval_seconds=interval,
            )
