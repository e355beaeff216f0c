"""Event-driven disable: the ``tripped`` flag against a full-scan oracle.

``VcuTelemetry.record`` latches ``tripped`` when the counter it just
bumped reaches that kind's threshold, ``reset`` clears it, and the sweep
reads only the flag -- and only on hosts whose ``sweep_due`` flag a trip
or a re-enable set.  These tests keep the old any-threshold scan as an
oracle and replay random ``record``/``reset``/``enable``/``disable``/
sweep/repair sequences through two identical fleets -- one swept by
``FailureManager.sweep``, one by an oracle sweep that re-derives every
decision from the counters and every disabled count from the devices --
asserting the same disables, in the same order, at the same sweeps, and
that each host's ``disabled_vcus`` count and ``sweep_due`` flag stay
exact after every operation.
"""

from __future__ import annotations

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.failures import FailureManager
from repro.vcu.host import VcuHost
from repro.vcu.spec import HostSpec
from repro.vcu.telemetry import DISABLE_THRESHOLDS, FaultKind, VcuTelemetry

HOSTS = 2
VCUS_PER_HOST = 4
KINDS = list(FaultKind)


def oracle_should_disable(telemetry: VcuTelemetry) -> bool:
    """The pre-flag decision: scan every counter against its threshold."""
    return any(
        telemetry.counters[kind] >= threshold
        for kind, threshold in DISABLE_THRESHOLDS.items()
    )


def oracle_needs_repair(manager: FailureManager, host: VcuHost) -> bool:
    """The card-swap test with the disabled devices counted afresh."""
    if host.unusable:
        return True
    threshold = manager.card_swap_threshold
    return threshold is not None and sum(v.disabled for v in host.vcus) >= threshold


def oracle_sweep(manager: FailureManager) -> List[str]:
    """``FailureManager.sweep`` with every device's decision re-derived."""
    newly_disabled: List[str] = []
    for host in manager.hosts:
        for vcu in host.vcus:
            if not vcu.disabled and oracle_should_disable(vcu.telemetry):
                vcu.disable()
                newly_disabled.append(vcu.vcu_id)
                host.component_faults += 1
        if host.component_faults >= host.fault_budget:
            host.unusable = True
        if oracle_needs_repair(manager, host) and not manager.repair_queue.queued(host):
            manager.repair_queue.enqueue(host)
    manager.disabled_vcus.extend(newly_disabled)
    return newly_disabled


def assert_bookkeeping_exact(manager: FailureManager) -> None:
    """Each host's count and flag against a walk over its devices."""
    for host in manager.hosts:
        assert host.disabled_vcus == sum(v.disabled for v in host.vcus)
        if not host.sweep_due:
            # Nothing the next sweep must disable hides behind a clear flag.
            assert not any(
                v.telemetry.tripped and not v.disabled for v in host.vcus
            )
    assert manager.available_vcu_count() == sum(
        len(host.healthy_vcus()) for host in manager.hosts
    )


def make_fleet(tag: str, repair_cap: int, card_swap_threshold) -> FailureManager:
    hosts = []
    for h in range(HOSTS):
        host = VcuHost(
            host_spec=HostSpec(vcus_per_card=2, cards_per_tray=2, trays_per_host=1),
            host_id=f"{tag}-h{h}",
        )
        for index, vcu in enumerate(host.vcus):
            # Run-independent ids so the two fleets' disables compare.
            vcu.vcu_id = f"h{h}-vcu{index}"
            vcu.telemetry.vcu_id = vcu.vcu_id
        hosts.append(host)
    return FailureManager(
        hosts, repair_cap=repair_cap, card_swap_threshold=card_swap_threshold
    )


def fleet_state(manager: FailureManager):
    return (
        [
            (
                host.unusable,
                host.component_faults,
                [(v.disabled, dict(v.telemetry.counters)) for v in host.vcus],
            )
            for host in manager.hosts
        ],
        [h.host_id.split("-")[-1] for h in manager.repair_queue.waiting],
        [h.host_id.split("-")[-1] for h in manager.repair_queue.in_repair],
        manager.disabled_vcus,
    )


DEVICE = st.integers(0, HOSTS * VCUS_PER_HOST - 1)
COUNT = st.one_of(st.integers(1, 3), st.sampled_from([999, 1000]))
OPS = st.one_of(
    st.tuples(st.just("record"), DEVICE, st.sampled_from(KINDS), COUNT),
    st.tuples(st.just("reset"), DEVICE),
    st.tuples(st.just("enable"), DEVICE),
    st.tuples(st.just("disable"), DEVICE),
    st.tuples(st.just("sweep")),
    st.tuples(st.just("repair")),
)


def apply(manager: FailureManager, op, sweep) -> List[str]:
    """Apply one operation; returns the ids a sweep disabled (else [])."""
    vcus = [vcu for host in manager.hosts for vcu in host.vcus]
    name = op[0]
    if name == "record":
        vcus[op[1]].telemetry.record(op[2], count=op[3])
    elif name == "reset":
        vcus[op[1]].telemetry.reset()
    elif name == "enable":
        vcus[op[1]].enable()  # a manual re-enable that keeps the counters
    elif name == "disable":
        # A disable outside any sweep: the path a worker's failed golden
        # re-screens take (``VcuWorker.finish_rescreen``).
        vcus[op[1]].disable()
    elif name == "sweep":
        return sweep(manager)
    else:
        queue = manager.repair_queue
        for host in queue.start_repairs():
            queue.finish_repair(host)
            # The swapped silicon starts clean: nothing left to re-trip.
            assert not any(
                vcu.telemetry.tripped or vcu.telemetry.total_faults()
                for vcu in host.vcus
            )
    return []


class TestTrippedFlag:
    def test_trips_exactly_at_threshold(self):
        telemetry = VcuTelemetry("t")
        telemetry.record(FaultKind.ECC_UNCORRECTABLE, count=2)
        assert not telemetry.tripped and not telemetry.should_disable()
        telemetry.record(FaultKind.ECC_UNCORRECTABLE)
        assert telemetry.tripped and telemetry.should_disable()

    def test_other_kinds_below_threshold_do_not_trip(self):
        telemetry = VcuTelemetry("t")
        for kind in KINDS:
            telemetry.record(kind, count=DISABLE_THRESHOLDS[kind] - 1)
        assert not telemetry.tripped

    def test_reset_clears_counters_history_and_flag(self):
        telemetry = VcuTelemetry("t")
        telemetry.record(FaultKind.PCIE, at_time=4.0, count=3)
        telemetry.reset()
        assert not telemetry.tripped
        assert telemetry.counters == {kind: 0 for kind in FaultKind}
        assert telemetry.total_faults() == 0

    def test_enable_without_reset_is_disabled_again_next_sweep(self):
        manager = make_fleet("e", repair_cap=2, card_swap_threshold=None)
        vcu = manager.hosts[0].vcus[1]
        vcu.telemetry.record(FaultKind.RESET, count=5)
        assert manager.sweep() == [vcu.vcu_id]
        vcu.enable()
        assert manager.sweep() == [vcu.vcu_id]
        vcu.telemetry.reset()
        vcu.enable()
        assert manager.sweep() == []


class TestSweepMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(OPS, max_size=60),
        repair_cap=st.integers(1, 2),
        card_swap_threshold=st.one_of(st.none(), st.integers(1, 3)),
    )
    def test_flag_and_sweeps_match_full_scan(self, ops, repair_cap, card_swap_threshold):
        real = make_fleet("real", repair_cap, card_swap_threshold)
        oracle = make_fleet("oracle", repair_cap, card_swap_threshold)
        for op in ops:
            got = apply(real, op, FailureManager.sweep)
            want = apply(oracle, op, oracle_sweep)
            assert got == want, op
            for host in real.hosts:
                for vcu in host.vcus:
                    assert vcu.telemetry.should_disable() == oracle_should_disable(
                        vcu.telemetry
                    )
            assert fleet_state(real) == fleet_state(oracle)
            assert_bookkeeping_exact(real)


class TestHostBookkeeping:
    def test_disabled_count_moves_only_when_a_device_flips(self):
        host = make_fleet("b", repair_cap=2, card_swap_threshold=None).hosts[0]
        vcu = host.vcus[0]
        vcu.disable()
        vcu.disable()
        assert host.disabled_vcus == 1
        assert not host.sweep_due  # a disable leaves nothing to sweep
        vcu.enable()
        assert host.disabled_vcus == 0
        assert host.sweep_due  # the device may still be tripped
        host.sweep_due = False
        vcu.enable()
        assert host.disabled_vcus == 0
        assert not host.sweep_due

    def test_only_the_first_trip_flags_the_host(self):
        host = make_fleet("t", repair_cap=2, card_swap_threshold=None).hosts[0]
        telemetry = host.vcus[3].telemetry
        telemetry.record(FaultKind.PCIE, count=2)
        assert not host.sweep_due
        telemetry.record(FaultKind.PCIE)
        assert host.sweep_due
        host.sweep_due = False
        telemetry.record(FaultKind.PCIE)  # already tripped
        assert not host.sweep_due

    def test_sweep_reads_devices_only_on_hosts_flagged_since_the_last(self):
        manager = make_fleet("c", repair_cap=2, card_swap_threshold=None)
        reads: List[str] = []

        class CountingTelemetry(VcuTelemetry):
            def __getattribute__(self, name):
                if name == "tripped":
                    reads.append(super().__getattribute__("vcu_id"))
                return super().__getattribute__(name)

        for host in manager.hosts:
            for vcu in host.vcus:
                vcu.telemetry.__class__ = CountingTelemetry
        manager.hosts[1].vcus[2].telemetry.record(FaultKind.PCIE, count=3)
        reads.clear()
        assert manager.sweep() == ["h1-vcu2"]
        assert reads == [vcu.vcu_id for vcu in manager.hosts[1].vcus]
        reads.clear()
        assert manager.sweep() == []
        assert reads == []  # clean hosts cost the flag test, not a device walk
