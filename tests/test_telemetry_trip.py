"""Event-driven disable: the ``tripped`` flag against a full-scan oracle.

``VcuTelemetry.record`` latches ``tripped`` when the counter it just
bumped reaches that kind's threshold, ``reset`` clears it, and the sweep
reads only the flag.  These tests keep the old any-threshold scan as an
oracle and replay random ``record``/``reset``/``enable``/sweep/repair
sequences through two identical fleets -- one swept by
``FailureManager.sweep``, one by an oracle sweep that re-derives every
decision from the counters -- asserting the same disables, in the same
order, at the same sweeps.
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
        if manager._needs_repair(host) and not manager.repair_queue.queued(host):
            manager.repair_queue.enqueue(host)
    manager.disabled_vcus.extend(newly_disabled)
    return newly_disabled


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
        assert telemetry.history == []
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

