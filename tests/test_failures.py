"""Failure-management tests: injection, screening, black-holing, repair."""

import math

import pytest

from repro.cluster import CpuWorker, TranscodeCluster, VcuWorker
from repro.failures import FailureManager, FaultInjector, RepairQueue
from repro.failures.management import blast_radius
from repro.sim import Simulator
from repro.transcode import PopularityBucket, build_transcode_graph
from repro.vcu.chip import Vcu
from repro.vcu.host import VcuHost
from repro.vcu.spec import DEFAULT_VCU_SPEC
from repro.vcu.telemetry import FaultKind
from repro.video.frame import resolution


def graph(video_id="v1", frames=300):
    return build_transcode_graph(
        video_id=video_id, source=resolution("720p"), total_frames=frames,
        fps=30.0, bucket=PopularityBucket.WARM,
    )


class TestGoldenScreening:
    def test_corrupt_vcu_refused_at_worker_start(self):
        vcu = Vcu(DEFAULT_VCU_SPEC)
        vcu.mark_corrupt()
        worker = VcuWorker(vcu, golden_screening=True)
        assert worker.refused
        assert not worker.available()

    def test_screening_can_be_disabled(self):
        vcu = Vcu(DEFAULT_VCU_SPEC)
        vcu.mark_corrupt()
        worker = VcuWorker(vcu, golden_screening=False)
        assert worker.available()


class TestRetriesAndCorruption:
    def _run(self, integrity_rate, screening, seed=3):
        sim = Simulator()
        vcus = [Vcu(DEFAULT_VCU_SPEC, vcu_id=f"f{seed}-vcu{i}") for i in range(3)]
        vcus[0].mark_corrupt()  # fails *after* screening-time in test below
        workers = [VcuWorker(v, golden_screening=screening) for v in vcus]
        cluster = TranscodeCluster(
            sim, workers, [CpuWorker(cores=16)],
            integrity_check_rate=integrity_rate, seed=seed,
        )
        g = graph()
        cluster.submit(g)
        sim.run()
        return cluster, g

    def test_integrity_checks_catch_and_retry(self):
        cluster, g = self._run(integrity_rate=1.0, screening=False)
        assert g.completed_at is not None
        assert cluster.stats.corrupt_escaped == 0
        assert cluster.stats.retries > 0
        # Retried steps must have landed on a different VCU.
        for step in g.transcode_steps():
            assert not step.corrupt_output

    def test_quarantine_after_detection(self):
        cluster, _ = self._run(integrity_rate=1.0, screening=False)
        corrupt_workers = [w for w in cluster.vcu_workers if w.vcu.corrupt]
        assert all(w.refused for w in corrupt_workers)

    def test_screening_prevents_any_corruption(self):
        cluster, g = self._run(integrity_rate=0.0, screening=True)
        assert cluster.stats.corrupt_escaped == 0
        assert g.completed_at is not None

    def test_escapes_without_checks_or_screening(self):
        # With no integrity checks and no screening, some bad chunks
        # escape -- the residual risk Section 4.4 acknowledges.
        cluster, g = self._run(integrity_rate=0.0, screening=False)
        assert cluster.stats.corrupt_escaped > 0


class TestBlackHoling:
    def test_fast_corrupt_vcu_attracts_work_without_mitigation(self):
        # A failing-but-fast VCU completes steps quicker, so first-fit
        # keeps it loaded; record its share of processed chunks.
        sim = Simulator()
        vcus = [Vcu(DEFAULT_VCU_SPEC, vcu_id=f"bh-vcu{i}") for i in range(2)]
        vcus[0].mark_corrupt()
        workers = [VcuWorker(v, golden_screening=False) for v in vcus]
        cluster = TranscodeCluster(
            sim, workers, [CpuWorker(cores=16)], integrity_check_rate=0.0, seed=1
        )
        graphs = [graph(f"v{i}") for i in range(4)]
        for g in graphs:
            cluster.submit(g)
        sim.run()
        processed = [s.processed_by for g in graphs for s in g.transcode_steps()]
        share = blast_radius(processed, "bh-vcu0") / len(processed)
        assert share > 0.5  # the bad VCU black-holed most traffic

    def test_blast_radius_counts(self):
        assert blast_radius(["a", "b", "a", None], "a") == 2


class TestFaultInjector:
    def test_corrupt_at_fires_on_schedule(self):
        sim = Simulator()
        vcu = Vcu(DEFAULT_VCU_SPEC)
        injector = FaultInjector(sim, [vcu])
        injector.corrupt_at(5.0, vcu)
        sim.run(until=4.0)
        assert not vcu.corrupt
        sim.run()
        assert vcu.corrupt

    def test_hard_faults_recorded_in_telemetry(self):
        sim = Simulator()
        vcu = Vcu(DEFAULT_VCU_SPEC)
        injector = FaultInjector(sim, [vcu])
        injector.hard_fault_at(1.0, vcu, FaultKind.ECC_UNCORRECTABLE, count=3)
        sim.run()
        assert vcu.telemetry.should_disable()

    def test_random_corruptions_deterministic_per_seed(self):
        def events(seed):
            sim = Simulator()
            vcus = [Vcu(DEFAULT_VCU_SPEC, vcu_id=f"r{seed}-{i}") for i in range(10)]
            injector = FaultInjector(sim, vcus, seed=seed)
            return [(e.at_time) for e in injector.random_corruptions(0.5, until=3600)]

        assert events(7) == events(7)

    def test_zero_rate_injects_nothing(self):
        sim = Simulator()
        injector = FaultInjector(sim, [Vcu(DEFAULT_VCU_SPEC)])
        assert injector.random_corruptions(0.0, until=100) == []


class TestRegionalOutage:
    def _fleet(self, n_hosts=3):
        sim = Simulator()
        hosts = [VcuHost(host_id=f"ro-{i}") for i in range(n_hosts)]
        vcus = [vcu for host in hosts for vcu in host.vcus]
        return sim, hosts, FaultInjector(sim, vcus)

    def test_every_vcu_wedges_then_clears_together(self):
        sim, hosts, injector = self._fleet()
        events = injector.regional_outage(10.0, hosts, duration=50.0)
        assert len(events) == sum(len(h.vcus) for h in hosts)
        assert all(e.kind == "hang" for e in events)
        sim.run(until=9.0)
        assert not any(v.hung for h in hosts for v in h.vcus)
        sim.run(until=30.0)
        assert all(v.hung for h in hosts for v in h.vcus)
        sim.run()  # outage lifts at t=60: a single restoration event
        assert sim.now == pytest.approx(60.0)
        assert not any(v.hung for h in hosts for v in h.vcus)

    def test_stagger_rolls_across_hosts(self):
        sim, hosts, injector = self._fleet()
        injector.regional_outage(0.0, hosts, duration=100.0,
                                 stagger_seconds=10.0)
        sim.run(until=15.0)  # host 0 (t=0) and host 1 (t=10) hit, not host 2
        assert all(v.hung for v in hosts[0].vcus)
        assert all(v.hung for v in hosts[1].vcus)
        assert not any(v.hung for v in hosts[2].vcus)
        sim.run()
        assert not any(v.hung for h in hosts for v in h.vcus)

    def test_validation(self):
        sim, hosts, injector = self._fleet()
        with pytest.raises(ValueError):
            injector.regional_outage(0.0, hosts, duration=0.0)
        with pytest.raises(ValueError):
            injector.regional_outage(0.0, [], duration=10.0)
        with pytest.raises(ValueError):
            # Third host would come up at t=20, after the t=15 clear.
            injector.regional_outage(0.0, hosts, duration=15.0,
                                     stagger_seconds=10.0)


class TestInjectorValidatesFirst:
    """A rejected injection records no event, arms no callback and draws
    no random number: nothing is hung or faulted after ``sim.run``."""

    def _fleet(self, n_hosts=3):
        sim = Simulator()
        hosts = [VcuHost(host_id=f"iv-{i}") for i in range(n_hosts)]
        vcus = [vcu for host in hosts for vcu in host.vcus]
        return sim, hosts, vcus, FaultInjector(sim, vcus, seed=4)

    @staticmethod
    def _nothing_injected(sim, injector, vcus):
        assert injector.injected == []
        sim.run()
        assert not any(vcu.hung for vcu in vcus)
        assert not any(vcu.telemetry.total_faults() for vcu in vcus)

    def test_zero_hang_duration(self):
        sim, _, vcus, injector = self._fleet(1)
        with pytest.raises(ValueError, match="hang duration must be positive"):
            injector.hang_at(1.0, vcus[0], duration=0)
        self._nothing_injected(sim, injector, vcus)

    def test_infinite_hang_duration(self):
        # A permanent hang is ``duration=None``.
        sim, _, vcus, injector = self._fleet(1)
        with pytest.raises(ValueError, match="positive and finite"):
            injector.hang_at(5.0, vcus[0], duration=math.inf)
        self._nothing_injected(sim, injector, vcus)

    @pytest.mark.parametrize(
        "at_time, duration",
        [(math.nan, 10.0), (math.inf, 10.0), (0.0, math.inf), (0.0, math.nan)],
    )
    def test_non_finite_outage(self, at_time, duration):
        sim, hosts, vcus, injector = self._fleet(2)
        with pytest.raises(ValueError, match="outage (start|duration) must be"):
            injector.regional_outage(at_time, hosts, duration=duration)
        self._nothing_injected(sim, injector, vcus)

    @pytest.mark.parametrize("until", [math.inf, math.nan])
    def test_non_finite_poisson_horizon(self, until):
        sim, _, vcus, injector = self._fleet(1)
        with pytest.raises(ValueError, match="horizon must be finite"):
            injector.random_hangs(3600.0, until=until)
        self._nothing_injected(sim, injector, vcus)

    def test_stagger_past_the_outage_end(self):
        sim, hosts, vcus, injector = self._fleet(3)
        with pytest.raises(ValueError, match="past the outage end"):
            injector.regional_outage(0.0, hosts, duration=15.0, stagger_seconds=10.0)
        self._nothing_injected(sim, injector, vcus)

    def test_zero_fault_count(self):
        sim, _, vcus, injector = self._fleet(1)
        with pytest.raises(ValueError, match="fault count must be >= 1"):
            injector.hard_fault_at(1.0, vcus[0], FaultKind.ECC_UNCORRECTABLE, count=0)
        self._nothing_injected(sim, injector, vcus)

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), -1.0])
    def test_rate_not_finite_and_non_negative(self, rate):
        sim, _, vcus, injector = self._fleet(1)
        with pytest.raises(ValueError, match="rate must be finite and >= 0"):
            injector.random_hangs(rate, until=100.0)
        self._nothing_injected(sim, injector, vcus)

    def test_poisson_arguments_checked_before_any_draw(self):
        sim, _, vcus, injector = self._fleet(1)
        with pytest.raises(ValueError, match="hang duration"):
            injector.random_hangs(3600.0, until=30.0, duration=0.0)
        with pytest.raises(ValueError, match="fault count"):
            injector.random_hard_faults(3600.0, until=30.0, count=0)
        self._nothing_injected(sim, injector, vcus)
        fresh = self._fleet(1)[3]
        assert [e.at_time for e in injector.random_corruptions(60.0, until=600.0)] == [
            e.at_time for e in fresh.random_corruptions(60.0, until=600.0)
        ]

    def test_past_time_records_nothing(self):
        sim, hosts, vcus, injector = self._fleet(1)
        sim.run(until=5.0)
        with pytest.raises(ValueError, match="before now"):
            injector.hang_at(1.0, vcus[0], duration=10.0)
        with pytest.raises(ValueError, match="before now"):
            injector.regional_outage(1.0, hosts, duration=10.0)
        self._nothing_injected(sim, injector, vcus)


class TestFleetManagement:
    def test_sweep_disables_and_queues_repair(self):
        hosts = [VcuHost() for _ in range(2)]
        manager = FailureManager(hosts)
        # Cross the host fault budget on host 0.
        for vcu in hosts[0].vcus[:6]:
            vcu.telemetry.record(FaultKind.ECC_UNCORRECTABLE, count=5)
        disabled = manager.sweep()
        assert len(disabled) == 6
        assert hosts[0].unusable
        assert manager.available_vcu_count() == 20  # only host 1 healthy

    def test_repair_cap_limits_capacity_loss(self):
        hosts = [VcuHost() for _ in range(4)]
        queue = RepairQueue(cap=2)
        accepted = [queue.enqueue(h) for h in hosts]
        assert accepted == [True, True, False, False]

    def test_repair_restores_host(self):
        host = VcuHost()
        host.unusable = True
        host.vcus[0].disable()
        queue = RepairQueue(cap=1)
        queue.enqueue(host)
        queue.start_repairs()
        queue.finish_repair(host)
        assert not host.unusable
        assert len(host.healthy_vcus()) == 20

    def test_capacity_fraction(self):
        hosts = [VcuHost()]
        manager = FailureManager(hosts)
        assert manager.fleet_capacity_fraction() == 1.0
        hosts[0].vcus[0].disable()
        assert manager.fleet_capacity_fraction() == pytest.approx(0.95)


class TestRepairSettings:
    @pytest.mark.parametrize("cap", [0, -1])
    def test_repair_cap_below_one_is_rejected(self, cap):
        with pytest.raises(ValueError, match="repair_cap must be >= 1"):
            RepairQueue(cap=cap)
        with pytest.raises(ValueError, match="repair_cap must be >= 1"):
            FailureManager([], repair_cap=cap)

    @pytest.mark.parametrize("threshold", [0, -2])
    def test_card_swap_threshold_below_one_is_rejected(self, threshold):
        with pytest.raises(ValueError, match="card_swap_threshold must be >= 1"):
            FailureManager([], card_swap_threshold=threshold)

    def test_smallest_valid_settings_are_accepted(self):
        manager = FailureManager([], repair_cap=1, card_swap_threshold=1)
        assert manager.repair_queue.cap == 1
        assert FailureManager([], card_swap_threshold=None).card_swap_threshold is None
