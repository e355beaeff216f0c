"""Resilience-subsystem tests: watchdog, backoff, health machine, rehab.

Covers the always-on failure loop end to end: hung devices recovered by
watchdog deadlines, retries with exponential backoff, the per-worker
health-state machine with golden-battery rehabilitation, fault-domain
host eviction, the unattended failure sweeper, and -- the acceptance
drill -- a chaos run that injects hangs, silent corruption, and a
correlated host fault mid-stream and still completes every graph with
zero escaped corruption, deterministically across same-seed runs.
"""

from collections import Counter

import pytest

from repro import obs
from repro.cluster import (
    CpuWorker,
    HealthPolicy,
    HealthState,
    TranscodeCluster,
    VcuWorker,
)
from repro.cluster.scheduler import BinPackingScheduler
from repro.failures import (
    BackoffPolicy,
    FailureManager,
    FailureSweeper,
    FaultDomainPolicy,
    FaultDomainTracker,
    FaultInjector,
    WatchdogPolicy,
)
from repro.failures.consistent_hash import ChunkAffinityPolicy, ConsistentHashRing
from repro.sim import Simulator
from repro.sim.rng import make_rng
from repro.transcode import PopularityBucket, build_transcode_graph
from repro.vcu.chip import Vcu
from repro.vcu.host import VcuHost
from repro.vcu.spec import DEFAULT_VCU_SPEC, HostSpec
from repro.vcu.telemetry import FaultKind
from repro.video.frame import resolution


def graph(video_id="v1", frames=300):
    return build_transcode_graph(
        video_id=video_id, source=resolution("720p"), total_frames=frames,
        fps=30.0, bucket=PopularityBucket.WARM,
    )


def small_host(tag: str) -> VcuHost:
    """A 4-VCU host with run-independent ids.

    Card/VCU ids come from global auto-increment counters, so two
    otherwise-identical runs would differ; reproducibility tests need
    stable names.
    """
    host = VcuHost(
        host_spec=HostSpec(vcus_per_card=2, cards_per_tray=2, trays_per_host=1),
        host_id=tag,
    )
    for index, vcu in enumerate(host.vcus):
        vcu.vcu_id = f"{tag}-vcu{index}"
        vcu.telemetry.vcu_id = vcu.vcu_id
    return host


# --------------------------------------------------------------------- #
# Policy units


class TestWatchdogPolicy:
    def test_deadline_scales_expected_duration(self):
        policy = WatchdogPolicy(deadline_multiplier=4.0, slack_seconds=5.0)
        assert policy.deadline_for(100.0) == 405.0

    def test_deadline_is_floored(self):
        policy = WatchdogPolicy(min_deadline_seconds=10.0)
        assert policy.deadline_for(0.0) == 10.0
        assert policy.deadline_for(0.5) == 10.0

    def test_rejects_sub_unity_multiplier(self):
        with pytest.raises(ValueError):
            WatchdogPolicy(deadline_multiplier=0.5)


class TestBackoffPolicy:
    def test_exponential_growth_and_cap_without_jitter(self):
        policy = BackoffPolicy(
            base_seconds=2.0, multiplier=2.0, max_seconds=16.0, jitter=0.0
        )
        rng = make_rng(0)
        delays = [policy.delay_for(attempt, rng) for attempt in range(1, 6)]
        assert delays == [2.0, 4.0, 8.0, 16.0, 16.0]

    def test_jitter_stays_within_fraction(self):
        policy = BackoffPolicy(
            base_seconds=10.0, multiplier=1.0, max_seconds=10.0, jitter=0.5
        )
        rng = make_rng(3)
        for _ in range(100):
            delay = policy.delay_for(1, rng)
            assert 10.0 <= delay < 15.0

    def test_same_seed_same_delays(self):
        policy = BackoffPolicy()
        a = [policy.delay_for(i, make_rng(9)) for i in range(1, 5)]
        b = [policy.delay_for(i, make_rng(9)) for i in range(1, 5)]
        assert a == b

    def test_rejects_bad_attempt(self):
        with pytest.raises(ValueError):
            BackoffPolicy().delay_for(0, make_rng(0))


class TestFaultDomainTracker:
    def test_single_vcu_failing_repeatedly_is_a_card_problem(self):
        tracker = FaultDomainTracker(FaultDomainPolicy(distinct_vcu_threshold=3))
        for t in range(10):
            assert not tracker.record("h0", "v0", float(t))
        assert tracker.evicted_hosts == []

    def test_distinct_vcus_in_window_evict_the_host(self):
        tracker = FaultDomainTracker(
            FaultDomainPolicy(window_seconds=100.0, distinct_vcu_threshold=3)
        )
        assert not tracker.record("h0", "v0", 0.0)
        assert not tracker.record("h0", "v1", 10.0)
        assert tracker.record("h0", "v2", 20.0)
        assert tracker.evicted_hosts == ["h0"]

    def test_window_expiry_forgets_old_failures(self):
        tracker = FaultDomainTracker(
            FaultDomainPolicy(window_seconds=50.0, distinct_vcu_threshold=3)
        )
        assert not tracker.record("h0", "v0", 0.0)
        assert not tracker.record("h0", "v1", 10.0)
        # v0 and v1 have aged out by now: only v2 and v3 are in-window.
        assert not tracker.record("h0", "v2", 200.0)
        assert not tracker.record("h0", "v3", 210.0)

    def test_hosts_tracked_independently(self):
        tracker = FaultDomainTracker(FaultDomainPolicy(distinct_vcu_threshold=2))
        assert not tracker.record("h0", "v0", 0.0)
        assert not tracker.record("h1", "v1", 0.0)
        assert tracker.record("h0", "v2", 1.0)

    def test_rejects_threshold_of_one(self):
        with pytest.raises(ValueError):
            FaultDomainPolicy(distinct_vcu_threshold=1)


# --------------------------------------------------------------------- #
# Worker health-state machine


def _worker(policy=None):
    vcu = Vcu(DEFAULT_VCU_SPEC)
    return VcuWorker(vcu, health_policy=policy)


class TestHealthStateMachine:
    def test_strikes_escalate_suspect_then_quarantined(self):
        worker = _worker(HealthPolicy(strike_budget=2))
        assert worker.record_strike() is False
        assert worker.health is HealthState.SUSPECT
        assert worker.available()  # a suspect keeps serving
        assert worker.record_strike() is True
        assert worker.health is HealthState.QUARANTINED
        assert not worker.available()
        assert worker.refused

    def test_strikes_on_quarantined_worker_are_ignored(self):
        worker = _worker(HealthPolicy(strike_budget=1))
        assert worker.record_strike() is True
        assert worker.record_strike() is False
        assert worker.health is HealthState.QUARANTINED

    def test_abort_and_quarantine_reports_the_transition_once(self):
        worker = _worker()
        assert worker.abort_and_quarantine() is True
        assert worker.abort_and_quarantine() is False
        assert worker.health is HealthState.QUARANTINED

    def test_rescreen_pass_restores_healthy_and_resets_counters(self):
        worker = _worker(HealthPolicy(strike_budget=1))
        worker.record_strike()
        worker.begin_rescreen()
        assert worker.health is HealthState.RESCREENING
        assert worker.finish_rescreen() is True
        assert worker.health is HealthState.HEALTHY
        assert worker.strikes == 0
        assert worker.available()

    def test_rescreen_failure_budget_disables_worker_and_device(self):
        worker = _worker(HealthPolicy(strike_budget=1, max_rescreen_failures=2))
        worker.vcu.mark_corrupt()
        worker.record_strike()
        worker.begin_rescreen()
        assert worker.finish_rescreen() is False
        assert worker.health is HealthState.QUARANTINED
        worker.begin_rescreen()
        assert worker.finish_rescreen() is False
        assert worker.health is HealthState.DISABLED
        assert worker.vcu.disabled

    def test_rescreen_transitions_guarded(self):
        worker = _worker()
        with pytest.raises(RuntimeError):
            worker.begin_rescreen()
        with pytest.raises(RuntimeError):
            worker.finish_rescreen()

    def test_reset_after_repair_requeues_unhealthy_workers_only(self):
        healthy = _worker()
        assert healthy.reset_after_repair() is False
        assert healthy.health is HealthState.HEALTHY

        broken = _worker(HealthPolicy(strike_budget=1, max_rescreen_failures=1))
        broken.vcu.mark_corrupt()
        broken.record_strike()
        broken.begin_rescreen()
        broken.finish_rescreen()
        assert broken.health is HealthState.DISABLED
        broken.vcu.enable()  # the repair swapped the card
        assert broken.reset_after_repair() is True
        assert broken.health is HealthState.QUARANTINED
        assert broken.rescreen_failures == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            HealthPolicy(strike_budget=0)
        with pytest.raises(ValueError):
            HealthPolicy(rescreen_backoff=0.5)
        with pytest.raises(ValueError):
            HealthPolicy(max_rescreen_failures=0)


# --------------------------------------------------------------------- #
# Scheduler preference (affinity plumbing)


class _FakeWorker:
    def __init__(self, name):
        self.name = name
        self.admitted = 0

    def available(self):
        return True

    def try_admit(self, request):
        self.admitted += 1
        return True


class TestSchedulerPreference:
    def test_preference_front_loads_probe_order(self):
        workers = [_FakeWorker(n) for n in ("a", "b", "c")]
        scheduler = BinPackingScheduler(workers)
        placed = scheduler.place({}, preference=["c", "b"])
        assert placed.name == "c"

    def test_exclusion_applies_on_top_of_preference(self):
        workers = [_FakeWorker(n) for n in ("a", "b", "c")]
        scheduler = BinPackingScheduler(workers)
        placed = scheduler.place({}, excluded={"c"}, preference=["c", "b"])
        assert placed.name == "b"

    def test_unknown_preferred_names_are_ignored(self):
        workers = [_FakeWorker(n) for n in ("a", "b")]
        scheduler = BinPackingScheduler(workers)
        placed = scheduler.place({}, preference=["ghost"])
        assert placed.name == "a"


class TestChunkAffinity:
    def test_placement_order_starts_inside_the_affinity_set(self):
        ring = ConsistentHashRing([f"w{i}" for i in range(8)])
        policy = ChunkAffinityPolicy(ring, affinity_size=3)
        owners = policy.affinity_set("video-1")
        assert len(owners) == 3
        for chunk in range(12):
            order = policy.placement_order("video-1", chunk)
            assert order[0] in owners
            assert set(order) == ring.nodes  # falls back to the full ring

    def test_exclusion_removes_nodes_from_the_order(self):
        ring = ConsistentHashRing([f"w{i}" for i in range(8)])
        policy = ChunkAffinityPolicy(ring, affinity_size=3)
        owners = policy.affinity_set("video-1")
        order = policy.placement_order("video-1", 0, excluded={owners[0]})
        assert owners[0] not in order

    def test_cluster_affinity_confines_each_video_to_few_vcus(self):
        # Light, staggered load: each video's chunks fit its affinity
        # set, so confinement (not capacity spill) decides placement.
        sim = Simulator()
        vcus = [Vcu(DEFAULT_VCU_SPEC, vcu_id=f"aff-{i}") for i in range(8)]
        workers = [VcuWorker(v) for v in vcus]
        cluster = TranscodeCluster(
            sim, workers, [CpuWorker(cores=16)], seed=4,
            affinity_placement=True, affinity_size=2,
        )
        graphs = [graph(f"affinity-v{i}") for i in range(8)]
        for i, g in enumerate(graphs):
            sim.call_in(50.0 * i, lambda g=g: cluster.submit(g))
        sim.run()
        assert all(g.completed_at is not None for g in graphs)
        per_video = [
            {s.processed_by for s in g.transcode_steps()} for g in graphs
        ]
        # Each video stays inside (or barely spills past) its 2-VCU set...
        assert all(len(used) <= 3 for used in per_video)
        # ...while hashing spreads different videos' sets across the
        # fleet -- unlike first-fit, which would pack every light video
        # onto the first workers.
        assert len(set().union(*per_video)) >= 4


# --------------------------------------------------------------------- #
# Fault injector: Poisson loops and hangs


class TestPoissonInjection:
    def test_multiple_arrivals_per_vcu_until_horizon(self):
        sim = Simulator()
        vcus = [Vcu(DEFAULT_VCU_SPEC, vcu_id=f"poisson-{i}") for i in range(3)]
        injector = FaultInjector(sim, vcus, seed=3)
        # One expected arrival per VCU-minute over an hour: ~60 per VCU,
        # far more than the one-arrival-per-VCU the seed produced.
        events = injector.random_corruptions(60.0, until=3600.0)
        assert len(events) > 3 * 10
        assert all(e.at_time < 3600.0 for e in events)
        per_vcu = {v.vcu_id: 0 for v in vcus}
        for event in events:
            per_vcu[event.vcu_id] += 1
        assert all(count > 1 for count in per_vcu.values())

    def test_random_hangs_schedule_and_clear(self):
        sim = Simulator()
        vcu = Vcu(DEFAULT_VCU_SPEC, vcu_id="ph-0")
        injector = FaultInjector(sim, [vcu], seed=1)
        events = injector.random_hangs(3600.0, until=30.0, duration=5.0)
        assert events
        assert all(e.kind == "hang" for e in events)
        sim.run()
        assert not vcu.hung  # every transient hang cleared by its horizon

    def test_random_hard_faults_land_in_telemetry(self):
        sim = Simulator()
        vcu = Vcu(DEFAULT_VCU_SPEC, vcu_id="phf-0")
        injector = FaultInjector(sim, [vcu], seed=2)
        events = injector.random_hard_faults(
            3600.0, until=30.0, kind=FaultKind.ECC_UNCORRECTABLE
        )
        sim.run()
        assert vcu.telemetry.counters[FaultKind.ECC_UNCORRECTABLE] == len(events)

    def test_hang_at_requires_positive_duration(self):
        sim = Simulator()
        vcu = Vcu(DEFAULT_VCU_SPEC)
        with pytest.raises(ValueError):
            FaultInjector(sim, [vcu]).hang_at(1.0, vcu, duration=0.0)


# --------------------------------------------------------------------- #
# Watchdog + backoff inside the cluster


class TestWatchdogInCluster:
    def test_hung_step_is_recovered_and_completes_elsewhere(self):
        sim = Simulator()
        vcus = [Vcu(DEFAULT_VCU_SPEC, vcu_id=f"wd-{i}") for i in range(2)]
        workers = [VcuWorker(v) for v in vcus]
        cluster = TranscodeCluster(
            sim, workers, [CpuWorker(cores=16)],
            integrity_check_rate=1.0, seed=5,
            backoff=BackoffPolicy(base_seconds=1.0, jitter=0.0),
        )
        FaultInjector(sim, vcus).hang_at(1.0, vcus[0])  # wedged until repair
        g = graph("wd-video")
        cluster.submit(g)
        sim.run()
        assert g.completed_at is not None
        assert cluster.stats.hangs_detected >= 1
        assert cluster.stats.retries >= 1
        assert vcus[0].telemetry.counters[FaultKind.HANG] >= 1
        # No repair ever happens here, so the wedged worker must not be
        # back in service.
        assert workers[0].health is not HealthState.HEALTHY
        assert workers[1].health is HealthState.HEALTHY

    def test_backoff_delay_accrues_on_retries(self):
        sim = Simulator()
        vcus = [Vcu(DEFAULT_VCU_SPEC, vcu_id=f"bo-{i}") for i in range(2)]
        vcus[0].mark_corrupt()
        workers = [VcuWorker(v, golden_screening=False) for v in vcus]
        cluster = TranscodeCluster(
            sim, workers, [CpuWorker(cores=16)],
            integrity_check_rate=1.0, seed=6,
            backoff=BackoffPolicy(base_seconds=2.0, jitter=0.0),
        )
        g = graph("bo-video")
        cluster.submit(g)
        sim.run()
        assert g.completed_at is not None
        assert cluster.stats.retries >= 1
        assert cluster.stats.backoff_delay_seconds >= 2.0 * cluster.stats.retries

    def test_watchdog_can_be_disabled(self):
        sim = Simulator()
        vcus = [Vcu(DEFAULT_VCU_SPEC, vcu_id=f"nowd-{i}") for i in range(2)]
        workers = [VcuWorker(v) for v in vcus]
        cluster = TranscodeCluster(
            sim, workers, [CpuWorker(cores=16)], seed=7, watchdog=None,
        )
        g = graph("nowd-video")
        cluster.submit(g)
        sim.run()
        assert g.completed_at is not None
        assert cluster.stats.hangs_detected == 0

    def test_step_finishing_exactly_at_its_deadline_is_not_a_hang(self):
        """A deadline equal to the step's duration is met, not missed:
        a healthy step that completes at the instant its watchdog fires
        is a completion, never a hang."""
        sim = Simulator()
        vcus = [Vcu(DEFAULT_VCU_SPEC, vcu_id=f"tie-{i}") for i in range(2)]
        workers = [VcuWorker(v) for v in vcus]
        cluster = TranscodeCluster(
            sim, workers, [CpuWorker(cores=16)], seed=5,
            watchdog=WatchdogPolicy(
                deadline_multiplier=1.0, slack_seconds=0.0,
                min_deadline_seconds=0.0,
            ),
        )
        g = graph("tie-video")
        cluster.submit(g)
        sim.run()
        assert g.completed_at is not None
        stats = cluster.stats
        assert (
            stats.hangs_detected, stats.retries,
            stats.software_fallbacks, stats.workers_quarantined,
        ) == (0, 0, 0, 0)
        assert all(w.health is HealthState.HEALTHY for w in workers)

    @pytest.mark.parametrize("wedged", [False, True], ids=["healthy", "wedged"])
    def test_one_sim_process_per_vcu_step_attempt(self, wedged):
        """A VCU step attempt is one simulator process, whether it
        completes or its device wedges and the watchdog recovers it."""
        sim = Simulator()
        spawned: Counter = Counter()
        spawn = sim.process

        def counting(generator, name=""):
            spawned[name.split(":")[0].split("[")[0]] += 1
            return spawn(generator, name=name)

        sim.process = counting
        vcus = [Vcu(DEFAULT_VCU_SPEC, vcu_id=f"proc-{i}") for i in range(2)]
        workers = [VcuWorker(v) for v in vcus]
        with obs.installed() as hub:
            cluster = TranscodeCluster(sim, workers, [CpuWorker(cores=16)], seed=5)
            if wedged:
                FaultInjector(sim, vcus).hang_at(1.0, vcus[0])
            g = graph("proc-video")
            cluster.submit(g)
            sim.run()
        assert g.completed_at is not None
        assert (cluster.stats.hangs_detected > 0) is wedged
        attempts = sum(
            1 for span in hub.trace.spans
            if span.kind == "step" and span.attrs["pool"] == "vcu"
        )
        assert attempts > 0
        step_processes = {
            name: count for name, count in spawned.items()
            if name not in ("cpu", "sw", "rehab")
        }
        assert step_processes == {"vcu": attempts}


class TestRehabilitation:
    def test_transient_hang_quarantine_then_return_to_service(self):
        sim = Simulator()
        vcu = Vcu(DEFAULT_VCU_SPEC, vcu_id="rehab-0")
        worker = VcuWorker(
            vcu,
            health_policy=HealthPolicy(
                strike_budget=1, rescreen_delay_seconds=20.0, screen_seconds=2.0
            ),
        )
        cluster = TranscodeCluster(
            sim, [worker], [],
            integrity_check_rate=1.0, seed=2,
            software_fallback=False, max_hardware_attempts=100,
            backoff=BackoffPolicy(base_seconds=2.0, jitter=0.0),
        )
        FaultInjector(sim, [vcu]).hang_at(0.5, vcu, duration=60.0)
        g = graph("rehab-video")
        cluster.submit(g)
        sim.run(until=4000.0)
        sim.run()
        # The fleet's only worker hung, was quarantined, and -- because the
        # hang was transient -- earned its way back via the golden battery;
        # the stalled graph then finished on the rehabilitated device.
        assert cluster.stats.hangs_detected >= 1
        assert cluster.stats.workers_quarantined == 1
        assert cluster.stats.workers_rehabilitated == 1
        assert worker.health is HealthState.HEALTHY
        assert g.completed_at is not None
        assert cluster.stats.corrupt_escaped == 0

    def test_bind_time_screening_failure_enters_rehab_loop(self):
        sim = Simulator()
        vcus = [Vcu(DEFAULT_VCU_SPEC, vcu_id=f"bind-{i}") for i in range(2)]
        vcus[0].mark_hung()  # fails the golden battery at bind time
        policy = HealthPolicy(rescreen_delay_seconds=10.0, screen_seconds=1.0)
        workers = [VcuWorker(v, health_policy=policy) for v in vcus]
        sim.call_in(5.0, vcus[0].clear_hang)  # the wedge clears on its own
        cluster = TranscodeCluster(sim, workers, [], seed=3)
        assert workers[0].health is HealthState.QUARANTINED
        g = graph("bind-video")
        cluster.submit(g)
        sim.run()
        assert workers[0].health is HealthState.HEALTHY
        assert cluster.stats.workers_rehabilitated == 1
        assert g.completed_at is not None

    def test_persistently_bad_device_is_disabled_not_readmitted(self):
        sim = Simulator()
        vcu = Vcu(DEFAULT_VCU_SPEC, vcu_id="bad-0")
        vcu.mark_corrupt()  # never passes a golden battery
        policy = HealthPolicy(
            rescreen_delay_seconds=5.0, screen_seconds=1.0,
            max_rescreen_failures=3,
        )
        worker = VcuWorker(vcu, health_policy=policy)
        cluster = TranscodeCluster(sim, [worker], [], seed=4)
        sim.run()
        assert worker.health is HealthState.DISABLED
        assert vcu.disabled
        assert cluster.stats.workers_rehabilitated == 0
        assert cluster.stats.workers_disabled == 1
        assert vcu.telemetry.counters[FaultKind.GOLDEN_FAIL] == 3


# --------------------------------------------------------------------- #
# Fleet management: sweeper, dedupe, placement-failure semantics


class TestFailureSweeper:
    def test_sweeper_runs_the_repair_workflow_unattended(self):
        sim = Simulator()
        host = small_host("sw")
        manager = FailureManager([host], repair_cap=1, card_swap_threshold=1)
        sweeper = FailureSweeper(
            sim, manager, interval_seconds=10.0, repair_seconds=50.0
        )
        sweeper.start(until=200.0)
        FaultInjector(sim, host.vcus).hard_fault_at(
            5.0, host.vcus[0], FaultKind.ECC_UNCORRECTABLE, count=3
        )
        sim.run()
        assert sweeper.sweeps >= 1
        assert "sw-vcu0" in manager.disabled_vcus
        assert sweeper.repairs_started == 1
        assert sweeper.repairs_completed == 1
        # The repair swapped the silicon: host usable, device enabled,
        # counters clean (no re-disable on the next sweep).
        assert not host.unusable
        assert not host.vcus[0].disabled
        assert host.vcus[0].telemetry.counters[FaultKind.ECC_UNCORRECTABLE] == 0

    def test_sweep_does_not_duplicate_waiting_hosts(self):
        hosts = [VcuHost() for _ in range(2)]
        manager = FailureManager(hosts, repair_cap=2)
        for vcu in hosts[0].vcus[:6]:
            vcu.telemetry.record(FaultKind.ECC_UNCORRECTABLE, count=5)
        manager.sweep()
        manager.sweep()
        manager.sweep()
        assert list(manager.repair_queue.waiting).count(hosts[0]) == 1

    def test_sweeper_validates_intervals(self):
        sim = Simulator()
        manager = FailureManager([])
        with pytest.raises(ValueError):
            FailureSweeper(sim, manager, interval_seconds=0.0)
        with pytest.raises(ValueError):
            FailureSweeper(sim, manager, repair_seconds=-1.0)


class TestHostRepairOrder:
    def test_repair_rescreens_one_hosts_workers_in_fleet_order(self):
        """A repair re-screens the repaired host's workers, and only
        those, in the cluster's fleet order -- here a permutation of
        ``host.vcus`` interleaved with another host's workers."""
        sim = Simulator()
        host, other = small_host("ord"), small_host("ord-x")
        order = [(host, 2), (other, 0), (host, 0), (host, 3), (other, 1), (host, 1)]
        workers = [VcuWorker(h.vcus[i], host=h) for h, i in order]
        fleet_order = [w.name for w in workers if w.host is host]
        assert fleet_order != [f"worker:{vcu.vcu_id}" for vcu in host.vcus]
        spawned = []
        spawn = sim.process

        def recording(generator, name=""):
            spawned.append(name)
            return spawn(generator, name=name)

        sim.process = recording
        with obs.installed() as hub:
            cluster = TranscodeCluster(sim, workers, [], seed=2)
            for worker in workers:
                worker.record_strike()  # SUSPECT: a repair must re-screen it
            first = len(hub.trace.spans)
            cluster.on_host_repaired(host)
            sim.run()
        assert spawned == [f"rehab:{name}" for name in fleet_order]
        health = [
            (span.attrs["to"], span.name)
            for span in hub.trace.spans[first:] if span.kind == "health"
        ]
        assert health == [
            (state, name)
            for state in ("quarantined", "rescreening", "healthy")
            for name in fleet_order
        ]
        assert all(
            w.health is HealthState.SUSPECT for w in workers if w.host is other
        )


class TestPlacementFailureSemantics:
    def test_waiting_for_capacity_is_not_a_failed_placement(self):
        sim = Simulator()
        vcu = Vcu(DEFAULT_VCU_SPEC, vcu_id="cap-0")
        cluster = TranscodeCluster(
            sim, [VcuWorker(vcu)], [CpuWorker(cores=16)], seed=1
        )
        for i in range(4):  # far more work than one VCU admits at once
            cluster.submit(graph(f"cap-v{i}"))
        sim.run()
        assert cluster.stats.completed_graphs == 4
        assert cluster.stats.failed_placements == 0

    def test_no_remaining_path_is_a_genuine_failure(self):
        sim = Simulator()
        vcu = Vcu(DEFAULT_VCU_SPEC, vcu_id="dead-0")
        cluster = TranscodeCluster(sim, [VcuWorker(vcu)], [], seed=1)
        g = graph("dead-video")
        for step in g.transcode_steps():
            step.software_only = True  # no hardware path, no CPU fleet
        cluster.submit(g)
        sim.run()
        assert g.completed_at is None
        assert cluster.stats.failed_placements > 0


# --------------------------------------------------------------------- #
# The full lifecycle (satellite: corruption -> ... -> back in service)


def test_full_failure_lifecycle_returns_device_to_service():
    sim = Simulator()
    host = small_host("lc")
    policy = HealthPolicy(
        strike_budget=1, rescreen_delay_seconds=15.0, screen_seconds=2.0,
        rescreen_backoff=2.0, max_rescreen_failures=10,
    )
    workers = [VcuWorker(v, host=host, health_policy=policy) for v in host.vcus]
    cluster = TranscodeCluster(
        sim, workers, [CpuWorker(cores=16, name="lc-cpu")],
        integrity_check_rate=1.0, seed=9,
        backoff=BackoffPolicy(base_seconds=1.0, jitter=0.25),
    )
    manager = FailureManager([host], repair_cap=1, card_swap_threshold=1)
    sweeper = FailureSweeper(
        sim, manager, interval_seconds=20.0, repair_seconds=120.0, cluster=cluster
    )
    sweeper.start(until=1200.0)
    FaultInjector(sim, host.vcus, seed=9).corrupt_at(0.5, host.vcus[0])
    graphs = [graph(f"lc-v{i}") for i in range(6)]
    for i, g in enumerate(graphs):
        sim.call_in(3.0 * i, lambda g=g: cluster.submit(g))
    sim.run(until=1300.0)
    sim.run()

    # 1. The integrity check caught the corruption and quarantined the worker.
    assert cluster.stats.corrupt_caught >= 1
    assert cluster.stats.corrupt_escaped == 0
    assert cluster.stats.workers_quarantined >= 1
    # 2. Failed golden re-screens landed in telemetry and the sweep
    #    disabled the device, queueing the host for a card swap.
    assert host.vcus[0].telemetry.counters[FaultKind.GOLDEN_FAIL] == 0  # reset
    assert "lc-vcu0" in manager.disabled_vcus
    assert sweeper.repairs_completed >= 1
    # 3. After the repair, the golden battery passed and the worker
    #    returned to HEALTHY -- the one-way door is gone.
    assert cluster.stats.workers_rehabilitated >= 1
    assert workers[0].health is HealthState.HEALTHY
    assert not host.vcus[0].corrupt and not host.vcus[0].disabled
    # 4. All work completed clean despite the mid-run failure.
    assert all(g.completed_at is not None for g in graphs)
    assert all(not s.corrupt_output for g in graphs for s in g.transcode_steps())

    # 5. The rehabilitated device genuinely serves again.
    before = dict(cluster.stats.per_vcu_megapixels)
    late = graph("lc-late")
    cluster.submit(late)
    sim.run()
    assert late.completed_at is not None
    assert cluster.stats.per_vcu_megapixels.get("lc-vcu0", 0.0) > before.get(
        "lc-vcu0", 0.0
    )


# --------------------------------------------------------------------- #
# The chaos drill (acceptance): hangs + corruption + correlated host fault


def _chaos_run():
    sim = Simulator()
    hosts = [small_host("chaos-a"), small_host("chaos-b")]
    policy = HealthPolicy(
        strike_budget=2, rescreen_delay_seconds=20.0, screen_seconds=2.0,
        rescreen_backoff=2.0, max_rescreen_failures=3,
    )
    workers = [
        VcuWorker(v, host=h, health_policy=policy) for h in hosts for v in h.vcus
    ]
    cluster = TranscodeCluster(
        sim, workers, [CpuWorker(cores=32, name="chaos-cpu")],
        integrity_check_rate=1.0, seed=42,
        backoff=BackoffPolicy(base_seconds=1.0, max_seconds=20.0, jitter=0.5),
        fault_domain=FaultDomainPolicy(window_seconds=300.0, distinct_vcu_threshold=3),
        affinity_placement=True, affinity_size=3,
    )
    manager = FailureManager(hosts, repair_cap=1, card_swap_threshold=1)
    sweeper = FailureSweeper(
        sim, manager, interval_seconds=25.0, repair_seconds=150.0, cluster=cluster
    )
    sweeper.start(until=2500.0)
    injector = FaultInjector(sim, [v for h in hosts for v in h.vcus], seed=7)
    # Silent corruption on one device of host B.
    injector.corrupt_at(2.0, hosts[1].vcus[0])
    # A transient firmware wedge on another device of host B.
    injector.hang_at(10.0, hosts[1].vcus[1], duration=200.0)
    # A correlated chassis fault wedges every device of host A at once.
    injector.correlated_hangs(20.0, hosts[0].vcus, stagger_seconds=2.0)
    graphs = [graph(f"chaos-v{i}") for i in range(16)]
    for i, g in enumerate(graphs):
        sim.call_in(6.0 * i, lambda g=g: cluster.submit(g))
    sim.run(until=2500.0)
    sim.run()
    return sim, cluster, sweeper, graphs, hosts, workers


def test_chaos_drill_completes_everything_clean():
    sim, cluster, sweeper, graphs, hosts, workers = _chaos_run()
    # 100% of graphs completed despite hangs, corruption, and a host fault.
    assert all(g.completed_at is not None for g in graphs)
    assert cluster.stats.completed_graphs == len(graphs)
    # Zero escaped corruption at integrity_check_rate=1.0.
    assert cluster.stats.corrupt_escaped == 0
    assert all(not s.corrupt_output for g in graphs for s in g.transcode_steps())
    # The watchdog saw the hangs; the correlated wedge evicted host A.
    assert cluster.stats.hangs_detected >= 3
    assert cluster.stats.host_evictions >= 1
    assert "chaos-a" in cluster._fault_domains.evicted_hosts
    # The repair flow ran and at least one quarantined worker was
    # rehabilitated back to service.
    assert sweeper.repairs_completed >= 1
    assert cluster.stats.workers_quarantined >= 1
    assert cluster.stats.workers_rehabilitated >= 1

    # ... and a rehabilitated device serves real work again: submit a
    # fresh wave and check a previously-faulted, now-HEALTHY device
    # gains throughput.
    rehabbed = [
        w for w in workers
        if w.health is HealthState.HEALTHY
        and (
            w.vcu.telemetry.counters[FaultKind.HANG] > 0
            or w.vcu.telemetry.counters[FaultKind.RESET] > 0
            or w.name.startswith("worker:chaos-a")
        )
    ]
    assert rehabbed
    before = dict(cluster.stats.per_vcu_megapixels)
    for i in range(4):
        cluster.submit(graph(f"chaos-post-v{i}"))
    sim.run()
    gained = [
        w for w in rehabbed
        if cluster.stats.per_vcu_megapixels.get(w.vcu.vcu_id, 0.0)
        > before.get(w.vcu.vcu_id, 0.0)
    ]
    assert gained


def test_chaos_drill_is_deterministic_across_same_seed_runs():
    _, cluster_a, _, _, _, _ = _chaos_run()
    _, cluster_b, _, _, _, _ = _chaos_run()
    assert cluster_a.stats.counter_snapshot() == cluster_b.stats.counter_snapshot()


# --------------------------------------------------------------------- #
# The resilience/observability seam: the same drill, as seen by the hub


class TestObservabilitySeam:
    def test_exactly_one_health_span_per_state_change(self):
        with obs.installed() as hub:
            _, _, _, _, _, workers = _chaos_run()
        health = [s for s in hub.trace if s.kind == "health"]
        assert health  # the drill quarantines and rehabilitates workers
        by_worker = {}
        for span in health:
            by_worker.setdefault(span.name, []).append(span)
        for spans in by_worker.values():
            # Every span is a genuine change...
            assert all(s.attrs["from"] != s.attrs["to"] for s in spans)
            # ...and per-worker spans chain gaplessly from the initial
            # HEALTHY state: a duplicate emission would repeat a state, a
            # missed one would break a link.  Together: exactly one span
            # per transition.
            assert spans[0].attrs["from"] == HealthState.HEALTHY.value
            for prev, cur in zip(spans, spans[1:]):
                assert prev.attrs["to"] == cur.attrs["from"]
        # The last span per worker agrees with the live state machine.
        by_name = {w.name: w for w in workers}
        for name, spans in by_worker.items():
            assert by_name[name].health.value == spans[-1].attrs["to"]
        # And the mirrored counter saw every one of them.
        snapshot = hub.metrics.snapshot()
        assert snapshot["worker.health_transitions"] == len(health)

    def test_hang_and_retry_spans_reconcile_with_cluster_stats(self):
        with obs.installed() as hub:
            _, cluster, _, _, _, _ = _chaos_run()
        hangs = [s for s in hub.trace if s.kind == "hang"]
        retries = [s for s in hub.trace if s.kind == "retry"]
        assert len(hangs) == cluster.stats.hangs_detected
        assert len(retries) == cluster.stats.retries
        # Each watchdog strike names the worker it fired over, and every
        # strike is also a "hang"-outcome step span (the aborted attempt).
        assert all("worker" in s.attrs for s in hangs)
        hung_steps = [
            s for s in hub.trace
            if s.kind == "step" and s.attrs.get("outcome") == "hang"
        ]
        assert len(hung_steps) == len(hangs)

    def test_observed_drill_matches_unobserved_drill(self):
        # Observability must never perturb the simulation: the same drill
        # with and without a hub installed lands on identical counters.
        _, bare, _, _, _, _ = _chaos_run()
        with obs.installed():
            _, observed, _, _, _, _ = _chaos_run()
        assert bare.stats.counter_snapshot() == observed.stats.counter_snapshot()
