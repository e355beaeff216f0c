"""A fleet holds only what is live (DESIGN.md "Object lifetime").

Per-device state that every device holds identically is one shared,
read-only object: the zero fault counters, the resource capacity, the
specs, the health policy and the cluster's availability-hook pair.  A
device's own copy appears only once the device diverges (its first
fault), and goes back to the shared one on reset.  The cluster's per-step
bookkeeping ends with the step, so a drained cluster holds none of it.
"""

from __future__ import annotations

import pytest

from repro.cluster import CpuWorker, TranscodeCluster, VcuWorker
from repro.failures import FailureManager, FailureSweeper, FaultInjector
from repro.sim.engine import Simulator
from repro.sim.resources import MultiResource
from repro.transcode import PopularityBucket, build_transcode_graph
from repro.vcu.chip import Vcu
from repro.vcu.host import VcuHost
from repro.vcu.spec import DEFAULT_HOST_SPEC, DEFAULT_VCU_SPEC, VcuSpec
from repro.vcu.telemetry import FaultKind
from repro.video.frame import resolution

#: Every map the cluster keeps per step or per graph in flight.
PER_STEP_MAPS = (
    "_graph_of", "_remaining_deps", "_dependents", "_graph_remaining",
    "_vcu_requests",
)


class TestSharedDeviceState:
    def test_fresh_devices_share_counters_and_capacity(self):
        a, b = Vcu(vcu_id="fp-a"), Vcu(vcu_id="fp-b")
        assert a.telemetry.counters is b.telemetry.counters
        assert a.resources.capacity is b.resources.capacity
        assert a.resources.available is not b.resources.available
        assert dict(a.telemetry.counters) == {kind: 0 for kind in FaultKind}

    def test_a_record_gives_one_device_its_own_counters(self):
        a, b = Vcu(vcu_id="fp-a"), Vcu(vcu_id="fp-b")
        a.telemetry.record(FaultKind.PCIE, count=2)
        assert a.telemetry.counters is not b.telemetry.counters
        assert a.telemetry.counters[FaultKind.PCIE] == 2
        assert b.telemetry.counters[FaultKind.PCIE] == 0
        assert b.telemetry.total_faults() == 0
        assert Vcu(vcu_id="fp-c").telemetry.total_faults() == 0

    def test_reset_returns_to_the_shared_view(self):
        a, b = Vcu(vcu_id="fp-a"), Vcu(vcu_id="fp-b")
        a.telemetry.record(FaultKind.RESET, count=5)
        assert a.telemetry.tripped
        a.telemetry.reset()
        assert a.telemetry.counters is b.telemetry.counters
        assert not a.telemetry.tripped
        a.telemetry.record(FaultKind.RESET)
        assert a.telemetry.counters[FaultKind.RESET] == 1
        assert b.telemetry.counters[FaultKind.RESET] == 0

    def test_shared_state_is_read_only(self):
        vcu = Vcu(vcu_id="fp-ro")
        with pytest.raises(TypeError):
            vcu.telemetry.counters[FaultKind.PCIE] = 1
        with pytest.raises(TypeError):
            vcu.resources.capacity["milliencode"] = 1.0
        assert vcu.telemetry.total_faults() == 0
        assert vcu.resources.capacity["milliencode"] == DEFAULT_VCU_SPEC.milliencode

    def test_reservations_stay_per_device(self):
        a, b = Vcu(vcu_id="fp-a"), Vcu(vcu_id="fp-b")
        assert a.try_admit({"milliencode": 4000.0})
        assert a.encoder_utilization() == pytest.approx(0.4)
        assert b.encoder_utilization() == 0.0
        assert b.resources.available["milliencode"] == DEFAULT_VCU_SPEC.milliencode

    def test_only_devices_built_alike_share_a_capacity(self):
        shared = Vcu(vcu_id="fp-a").resources.capacity
        assert Vcu(DEFAULT_VCU_SPEC, vcu_id="fp-b").resources.capacity is shared
        assert Vcu(VcuSpec(), vcu_id="fp-c").resources.capacity is shared
        other = Vcu(vcu_id="fp-d", host_decode_capacity=250.0).resources.capacity
        assert other is not shared and other["host_decode"] == 250.0
        bigger = Vcu(VcuSpec(milliencode=20000), vcu_id="fp-e").resources.capacity
        assert bigger is not shared and bigger["milliencode"] == 20000.0

    def test_a_resource_copies_any_other_mapping(self):
        source = {"enc": 100.0}
        resource = MultiResource(source)
        source["enc"] = 1.0
        assert resource.capacity["enc"] == 100.0

    def test_devices_and_resources_are_slotted(self):
        vcu = Vcu(vcu_id="fp-s")
        assert not hasattr(vcu, "__dict__")
        assert not hasattr(vcu.resources, "__dict__")

    def test_hosts_without_specs_share_the_defaults(self):
        host = VcuHost(host_id="fp-h")
        assert host.spec is DEFAULT_VCU_SPEC
        assert host.host_spec is DEFAULT_HOST_SPEC
        assert all(vcu.spec is DEFAULT_VCU_SPEC for vcu in host.vcus)

    def test_workers_without_a_policy_share_one(self):
        host = VcuHost(host_id="fp-p")
        workers = [VcuWorker(vcu, host=host) for vcu in host.vcus]
        assert len({id(worker.health_policy) for worker in workers}) == 1

    def test_a_cluster_stores_one_hook_pair_on_every_worker(self):
        host = VcuHost(host_id="fp-k")
        workers = [VcuWorker(vcu, host=host, golden_screening=False) for vcu in host.vcus]
        cluster = TranscodeCluster(Simulator(), workers)
        pairs = {id(worker._on_availability_change) for worker in workers}
        assert len(pairs) == 1
        ref, func = workers[0]._on_availability_change
        assert ref() is cluster
        assert func is TranscodeCluster.note_availability_changed
        assert workers[3].on_availability_change == cluster.note_availability_changed

    def test_a_second_cluster_gets_its_own_pair(self):
        host = VcuHost(host_id="fp-k2")
        workers = [VcuWorker(vcu, host=host, golden_screening=False) for vcu in host.vcus]
        first = TranscodeCluster(Simulator(), workers[:10])
        second = TranscodeCluster(Simulator(), workers[10:])
        assert workers[0]._on_availability_change[0]() is first
        assert workers[10]._on_availability_change[0]() is second


def fleet_day(horizon: float, seed: int = 3):
    """A 2-host, fleet-day-shaped cluster: uploads, faults, sweeps, repairs.

    Corruptions and hangs make steps retry on other devices and reach
    their watchdog deadlines, so every completion path runs.
    """
    sim = Simulator()
    hosts = [VcuHost(host_id=f"fp-day-h{i}") for i in range(2)]
    workers = [
        VcuWorker(vcu, host=host, golden_screening=False)
        for host in hosts for vcu in host.vcus
    ]
    cpus = [CpuWorker(cores=16, name=f"fp-day-cpu{i}") for i in range(2)]
    cluster = TranscodeCluster(sim, workers, cpus, seed=seed)
    manager = FailureManager(hosts, repair_cap=2, card_swap_threshold=2)
    FailureSweeper(
        sim, manager, interval_seconds=20.0, repair_seconds=60.0, cluster=cluster,
    ).start(until=horizon)
    injector = FaultInjector(sim, [vcu for host in hosts for vcu in host.vcus], seed=seed)
    injector.random_hard_faults(20.0, until=horizon, count=3)
    injector.random_corruptions(20.0, until=horizon)
    injector.random_hangs(20.0, until=horizon, duration=10.0)
    submitted = []

    def uploader():
        while sim.now + 1.5 <= horizon:
            yield 1.5
            graph = build_transcode_graph(
                video_id=f"fp-day-v{len(submitted)}", source=resolution("720p"),
                total_frames=300, fps=30.0, bucket=PopularityBucket.WARM,
            )
            submitted.append(graph)
            cluster.submit(graph)

    sim.process(uploader(), name="fp-uploader")
    return sim, cluster, submitted


class TestPerStepBookkeeping:
    def test_a_drained_cluster_holds_no_per_step_entry(self):
        sim, cluster, submitted = fleet_day(horizon=120.0)
        sim.run()
        stats = cluster.stats
        assert stats.completed_graphs == len(submitted) > 0
        assert stats.retries > 0 and stats.hangs_detected > 0
        assert stats.corrupt_caught > 0
        for name in PER_STEP_MAPS:
            assert len(getattr(cluster, name)) == 0, name

    def test_a_running_cluster_holds_only_steps_in_flight(self):
        sim, cluster, submitted = fleet_day(horizon=120.0)
        completed = []
        cluster.on_step_done = completed.append
        sim.run(until=30.0)
        in_flight = sum(len(graph.steps) for graph in submitted) - len(completed)
        open_graphs = [graph for graph in submitted if graph.completed_at is None]
        assert in_flight > 0 and open_graphs
        assert len(cluster._graph_of) == len(cluster._remaining_deps) == in_flight
        assert len(cluster._graph_remaining) == len(open_graphs)
        sim.close()

    def test_completing_a_step_twice_raises(self):
        sim, cluster, submitted = fleet_day(horizon=6.0)
        sim.run()
        step = submitted[0].steps[-1]
        with pytest.raises(RuntimeError, match="completed twice"):
            cluster._complete(step, corrupt=False)
        assert cluster.stats.completed_steps == sum(len(g.steps) for g in submitted)
