"""Fault injection: makes VCUs fail while the cluster runs.

Three fault flavours matter to the evaluation:

* *hard* faults -- ECC storms, resets -- that show up in telemetry and get
  the VCU disabled by the fault-management sweep,
* *silent corruption* -- the dangerous one: the VCU keeps completing work
  (often faster than healthy devices because it skips real work), feeding
  the black-holing failure mode of Section 4.4, and
* *hangs* -- a wedged device whose in-flight steps never complete; only a
  watchdog deadline gets the work back.

Besides single-device injection, :meth:`FaultInjector.correlated_host_fault`
and :meth:`FaultInjector.correlated_hangs` model shared-fault-domain
events (a chassis PCIe riser, a power rail) that take out several VCUs of
one host nearly at once -- the case fault-domain-aware eviction exists for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.sim.engine import Simulator
from repro.sim.rng import SeedLike, make_rng
from repro.vcu.chip import Vcu
from repro.vcu.host import VcuHost
from repro.vcu.telemetry import FaultKind


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    at_time: float
    vcu_id: str
    kind: str  # "silent_corruption", "hang", or a FaultKind value


def _check_hang_duration(duration: Optional[float]) -> None:
    # A permanent hang is ``duration=None``, not an infinite duration.
    if duration is not None and not 0 < duration < math.inf:
        raise ValueError(
            f"hang duration must be positive and finite, got {duration}"
        )


def _check_fault_count(count: int) -> None:
    if count < 1:
        raise ValueError(f"fault count must be >= 1, got {count}")


class FaultInjector:
    """Schedules faults onto VCUs over simulated time."""

    def __init__(self, sim: Simulator, vcus: Sequence[Vcu], seed: SeedLike = 0):
        self.sim = sim
        self.vcus = list(vcus)
        self._rng = make_rng(seed)
        self.injected: List[FaultEvent] = []

    def corrupt_at(self, at_time: float, vcu: Vcu) -> FaultEvent:
        """Silently corrupt one VCU at a given time."""
        self.sim.call_at(at_time, vcu.mark_corrupt)
        event = FaultEvent(at_time=at_time, vcu_id=vcu.vcu_id, kind="silent_corruption")
        self.injected.append(event)
        return event

    def hang_at(
        self, at_time: float, vcu: Vcu, duration: Optional[float] = None
    ) -> FaultEvent:
        """Wedge one VCU at a given time.

        With ``duration`` the hang is transient (a firmware stall that
        clears itself); otherwise the device stays wedged until a repair.
        Either way, any step in flight when the hang lands stalls and must
        be recovered by the cluster's watchdog.
        """
        _check_hang_duration(duration)
        self.sim.call_at(at_time, vcu.mark_hung)
        if duration is not None:
            self.sim.call_at(at_time + duration, vcu.clear_hang)
        event = FaultEvent(at_time=at_time, vcu_id=vcu.vcu_id, kind="hang")
        self.injected.append(event)
        return event

    def hard_fault_at(
        self, at_time: float, vcu: Vcu, kind: FaultKind, count: int = 1
    ) -> FaultEvent:
        """Record hard faults in telemetry at a given time."""
        _check_fault_count(count)
        self.sim.call_at(
            at_time, lambda: vcu.telemetry.record(kind, at_time=at_time, count=count)
        )
        event = FaultEvent(at_time=at_time, vcu_id=vcu.vcu_id, kind=kind.value)
        self.injected.append(event)
        return event

    def correlated_host_fault(
        self,
        at_time: float,
        host: VcuHost,
        kind: FaultKind = FaultKind.PCIE,
        vcu_count: Optional[int] = None,
        count_per_vcu: int = 1,
        stagger_seconds: float = 0.0,
    ) -> List[FaultEvent]:
        """A shared-domain hard fault hitting several VCUs of one host.

        ``vcu_count`` limits how many of the host's VCUs are hit (all by
        default); ``stagger_seconds`` spaces the per-VCU events slightly,
        as a real cascading chassis fault would.
        """
        victims = host.vcus if vcu_count is None else host.vcus[:vcu_count]
        return [
            self.hard_fault_at(
                at_time + index * stagger_seconds, vcu, kind, count=count_per_vcu
            )
            for index, vcu in enumerate(victims)
        ]

    def correlated_hangs(
        self,
        at_time: float,
        vcus: Sequence[Vcu],
        duration: Optional[float] = None,
        stagger_seconds: float = 0.0,
    ) -> List[FaultEvent]:
        """Wedge several devices almost at once (one shared fault domain)."""
        return [
            self.hang_at(at_time + index * stagger_seconds, vcu, duration=duration)
            for index, vcu in enumerate(vcus)
        ]

    def regional_outage(
        self,
        at_time: float,
        hosts: Sequence[VcuHost],
        duration: float,
        stagger_seconds: float = 0.0,
    ) -> List[FaultEvent]:
        """Take a whole region's hosts down for ``duration`` seconds.

        The regional analogue of :meth:`correlated_hangs`: every VCU on
        every listed host wedges (a power/network event at data-center
        scale), then clears once the outage lifts.  ``stagger_seconds``
        spaces the per-host onsets -- a real regional event rolls across
        rows, it does not hit every chassis in the same microsecond.
        All hangs clear together at ``at_time + duration``: recovery is
        a single restoration event, not a rolling one.
        """
        if not math.isfinite(at_time):
            raise ValueError(f"outage start must be finite, got {at_time}")
        if not 0 < duration < math.inf:
            raise ValueError(
                f"outage duration must be positive and finite, got {duration}"
            )
        if not hosts:
            raise ValueError("regional outage needs at least one host")
        clear_at = at_time + duration
        onsets = [at_time + index * stagger_seconds for index in range(len(hosts))]
        if any(onset >= clear_at for onset in onsets):
            raise ValueError("stagger pushes a host past the outage end")
        if min(onsets) < self.sim.now:
            raise ValueError(
                f"outage onset {min(onsets)} is before now={self.sim.now}"
            )
        events: List[FaultEvent] = []
        for onset, host in zip(onsets, hosts):
            for vcu in host.vcus:
                event = FaultEvent(at_time=onset, vcu_id=vcu.vcu_id, kind="hang")
                self.injected.append(event)
                self.sim.call_at(onset, vcu.mark_hung)
                self.sim.call_at(clear_at, vcu.clear_hang)
                events.append(event)
        return events

    # ------------------------------------------------------------------ #
    # Random (Poisson) fleet-wide injection

    def random_corruptions(
        self, rate_per_vcu_hour: float, until: float
    ) -> List[FaultEvent]:
        """Poisson silent-corruption arrivals across the fleet.

        VCU failures are largely independent (Section 4.4: card swaps
        correlate with single-VCU failures), so each device draws its own
        Poisson process: exponential inter-arrival gaps, looped until the
        horizon (not just the first arrival).
        """
        return self._poisson_arrivals(rate_per_vcu_hour, until, self.corrupt_at)

    def random_hangs(
        self,
        rate_per_vcu_hour: float,
        until: float,
        duration: Optional[float] = None,
    ) -> List[FaultEvent]:
        """Poisson hang arrivals across the fleet."""
        _check_hang_duration(duration)
        return self._poisson_arrivals(
            rate_per_vcu_hour,
            until,
            lambda at, vcu: self.hang_at(at, vcu, duration=duration),
        )

    def random_hard_faults(
        self,
        rate_per_vcu_hour: float,
        until: float,
        kind: FaultKind = FaultKind.ECC_UNCORRECTABLE,
        count: int = 1,
    ) -> List[FaultEvent]:
        """Poisson hard-fault arrivals (telemetry hits) across the fleet."""
        _check_fault_count(count)
        return self._poisson_arrivals(
            rate_per_vcu_hour,
            until,
            lambda at, vcu: self.hard_fault_at(at, vcu, kind, count=count),
        )

    def _poisson_arrivals(self, rate_per_vcu_hour, until, inject) -> List[FaultEvent]:
        # An infinite rate draws zero gaps forever; NaN draws NaN gaps
        # that silently end the loop.  An infinite horizon never ends it.
        if not (math.isfinite(rate_per_vcu_hour) and rate_per_vcu_hour >= 0):
            raise ValueError(
                f"rate must be finite and >= 0, got {rate_per_vcu_hour}"
            )
        if not math.isfinite(until):
            raise ValueError(f"horizon must be finite, got {until}")
        events: List[FaultEvent] = []
        rate_per_second = rate_per_vcu_hour / 3600.0
        if rate_per_second == 0:
            return events
        for vcu in self.vcus:
            t = float(self._rng.exponential(1.0 / rate_per_second))
            while t < until:
                events.append(inject(t, vcu))
                t += float(self._rng.exponential(1.0 / rate_per_second))
        return events
