"""Fleet failure management: sweeps, disables, and the capped repair flow.

Mirrors Section 4.4's workflow: hosts collect telemetry from their VCUs;
when a device crosses a fault threshold it is disabled (the VCU, not the
host, is the lowest unit of fault management -- each has an independent
power rail); hosts with enough component faults are marked unusable and
queued for repair; and the number of systems allowed in repair states is
capped so a faulty repair *signal* cannot black-hole fleet capacity.

:class:`FailureSweeper` runs the whole workflow unattended as a periodic
simulator process: sweep telemetry, start capped repairs, model the
technician's repair time, and hand repaired hosts back to the cluster so
their workers are golden re-screened before taking work again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Generator, List, Optional, Sequence, TYPE_CHECKING

from repro import obs
from repro.sim.engine import Process, Simulator
from repro.vcu.host import VcuHost

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import TranscodeCluster


@dataclass
class RepairQueue:
    """Hosts waiting for a human technician, with a concurrency cap."""

    cap: int = 2
    waiting: Deque[VcuHost] = field(default_factory=deque)
    in_repair: List[VcuHost] = field(default_factory=list)
    repaired: List[VcuHost] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.cap < 1:
            raise ValueError(
                f"repair_cap must be >= 1, got {self.cap}: a smaller cap"
                " never starts a repair"
            )

    def enqueue(self, host: VcuHost) -> bool:
        """Queue a host for repair; returns False when the cap blocks it.

        A blocked host stays in production (tolerated-but-faulty) rather
        than being drained -- the capacity-protection behaviour the paper
        describes.
        """
        if len(self.in_repair) + len(self.waiting) >= self.cap:
            return False
        self.waiting.append(host)
        return True

    def queued(self, host: VcuHost) -> bool:
        """Whether the host is already anywhere in the repair flow."""
        return host in self.waiting or host in self.in_repair

    def start_repairs(self) -> List[VcuHost]:
        started = []
        while self.waiting and len(self.in_repair) < self.cap:
            host = self.waiting.popleft()
            self.in_repair.append(host)
            started.append(host)
        return started

    def finish_repair(self, host: VcuHost) -> None:
        self.in_repair.remove(host)
        host.unusable = False
        host.component_faults = 0
        for vcu in host.vcus:
            vcu.enable()
            # A repair swaps the faulty silicon: the replacement starts
            # with clean counters.  Without this, the next sweep re-reads
            # the old fault history and re-disables the fresh device.
            vcu.telemetry.reset()
        self.repaired.append(host)


class FailureManager:
    """Periodic telemetry sweeps across hosts, driving disables/repairs."""

    def __init__(
        self,
        hosts: Sequence[VcuHost],
        repair_cap: int = 2,
        card_swap_threshold: Optional[int] = None,
    ):
        if card_swap_threshold is not None and card_swap_threshold < 1:
            raise ValueError(
                f"card_swap_threshold must be >= 1 or None, got {card_swap_threshold}"
            )
        self.hosts = list(hosts)
        self.repair_queue = RepairQueue(cap=repair_cap)
        self.disabled_vcus: List[str] = []
        #: When set, a host with at least this many *disabled* VCUs is
        #: queued for repair (a card swap) even before it turns unusable.
        #: ``None`` preserves the stricter behaviour: only unusable hosts
        #: enter the repair flow.
        self.card_swap_threshold = card_swap_threshold

    def sweep(self) -> List[str]:
        """One pass over all hosts; returns newly-disabled VCU ids.

        Every host is visited, in host order, so a host that turned
        unusable outside a sweep (an eviction) is still queued; a host
        where nothing tripped costs O(1)."""
        newly_disabled: List[str] = []
        for host in self.hosts:
            for vcu in host.sweep_telemetry():
                newly_disabled.append(vcu.vcu_id)
            if self._needs_repair(host) and not self.repair_queue.queued(host):
                self.repair_queue.enqueue(host)
        self.disabled_vcus.extend(newly_disabled)
        return newly_disabled

    def _needs_repair(self, host: VcuHost) -> bool:
        """An unusable host, or (with a card-swap threshold) one with that
        many disabled devices.  Reads the host's ``disabled_vcus`` count,
        which its devices keep exact, so the check costs no device walk."""
        if host.unusable:
            return True
        if self.card_swap_threshold is None:
            return False
        return host.disabled_vcus >= self.card_swap_threshold

    def available_vcu_count(self) -> int:
        return sum(
            0 if host.unusable else len(host.vcus) - host.disabled_vcus
            for host in self.hosts
        )

    def fleet_capacity_fraction(self) -> float:
        total = sum(len(host.vcus) for host in self.hosts)
        return self.available_vcu_count() / total if total else 0.0


class FailureSweeper:
    """The always-on fault-management loop, as a simulator process.

    Every ``interval_seconds``: sweep telemetry (disabling VCUs and
    queueing hosts), start repairs up to the cap, and model each repair as
    taking ``repair_seconds`` of technician time with the host drained.
    When a ``cluster`` is attached, repaired hosts are handed back so the
    cluster re-screens their workers before they serve again.  Built under
    an observability hub, it attaches its tallies to the hub's registry.
    """

    def __init__(
        self,
        sim: Simulator,
        manager: FailureManager,
        interval_seconds: float = 60.0,
        repair_seconds: float = 900.0,
        cluster: Optional["TranscodeCluster"] = None,
    ):
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        if repair_seconds < 0:
            raise ValueError("repair_seconds must be >= 0")
        self.sim = sim
        self.manager = manager
        self.interval_seconds = interval_seconds
        self.repair_seconds = repair_seconds
        self.cluster = cluster
        self.sweeps = 0
        self.repairs_started = 0
        self.repairs_completed = 0
        hub = obs.active()
        if hub is not None:
            hub.metrics.attach(self)

    def snapshot(self, now: Optional[float] = None) -> Dict[str, float]:
        """Sweeps and completed repairs as ``fleet.*`` metrics (zeros absent)."""
        counts = {
            "fleet.sweeps": self.sweeps,
            "fleet.repairs_completed": self.repairs_completed,
        }
        return {name: float(count) for name, count in counts.items() if count}

    def start(self, until: float) -> Process:
        """Run periodic sweeps until the ``until`` horizon (sim time)."""
        return self.sim.process(self._run(until), name="failure-sweeper")

    def _run(self, until: float) -> Generator:
        while self.sim.now + self.interval_seconds <= until:
            yield self.interval_seconds
            newly_disabled = self.manager.sweep()
            self.sweeps += 1
            if newly_disabled and self.cluster is not None:
                # Sweep disables bypass the worker health machine; tell
                # the cluster so its availability mask stays exact.
                self.cluster.on_vcus_disabled(newly_disabled)
            hub = obs.active()
            if hub is not None:
                hub.emit(
                    "sweep", "telemetry", t0=self.sim.now,
                    attrs={"disabled": sorted(newly_disabled)},
                )
            for host in self.manager.repair_queue.start_repairs():
                self.repairs_started += 1
                self.sim.process(self._repair(host), name=f"repair:{host.host_id}")

    def _repair(self, host: VcuHost) -> Generator:
        # Drained while the technician works on it.
        host.unusable = True
        if self.cluster is not None:
            self.cluster.on_host_drained(host)
        started = self.sim.now
        yield self.repair_seconds
        self.manager.repair_queue.finish_repair(host)
        self.repairs_completed += 1
        hub = obs.active()
        if hub is not None:
            hub.emit(
                "repair", host.host_id, t0=started, t1=self.sim.now,
                attrs={"host": host.host_id},
            )
        if self.cluster is not None:
            self.cluster.on_host_repaired(host)


def blast_radius(processed_by: Sequence[Optional[str]], corrupt_vcu: str) -> int:
    """How many chunks a single corrupt VCU touched (Section 4.4).

    The software records the VCUs each chunk was processed on exactly so
    this correlation is possible; consistent hashing is the paper's
    proposed future mitigation for shrinking it.
    """
    return sum(1 for vcu_id in processed_by if vcu_id == corrupt_vcu)
