"""Per-VCU health telemetry (Section 4.4).

The firmware reports temperature, resets, and ECC counters; the host
aggregates them and marks itself unusable once enough faults accumulate.
DRAM has SECDED ECC; many embedded SRAMs are detect-only (double-error
detect), so uncorrectable counts matter more than corrected ones.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, Mapping, Optional

if TYPE_CHECKING:  # deferred: repro.vcu.host imports this module back
    from repro.vcu.host import VcuHost


class FaultKind(enum.Enum):
    ECC_CORRECTED = "ecc_corrected"
    ECC_UNCORRECTABLE = "ecc_uncorrectable"
    RESET = "reset"
    THERMAL = "thermal"
    PCIE = "pcie"
    #: A step blew through its watchdog deadline on this device -- the
    #: firmware-hang signature the resilience subsystem detects.
    HANG = "hang"
    #: The device failed a golden re-screen battery while quarantined.
    GOLDEN_FAIL = "golden_fail"


#: Faults of each kind tolerated before the device should be disabled.
DISABLE_THRESHOLDS: Dict[FaultKind, int] = {
    FaultKind.ECC_CORRECTED: 1000,
    FaultKind.ECC_UNCORRECTABLE: 3,
    FaultKind.RESET: 5,
    FaultKind.THERMAL: 10,
    FaultKind.PCIE: 3,
    FaultKind.HANG: 3,
    FaultKind.GOLDEN_FAIL: 2,
}


#: Every counter at zero, and the read-only view of it that every
#: fault-free device shares as its ``counters``.
_ZERO_COUNTERS: Dict[FaultKind, int] = dict.fromkeys(FaultKind, 0)
_ZERO_VIEW: Mapping[FaultKind, int] = MappingProxyType(_ZERO_COUNTERS)


def _zero_view() -> Mapping[FaultKind, int]:
    return _ZERO_VIEW


@dataclass
class VcuTelemetry:
    """Counters mirrored from device firmware.

    ``counters`` change only through :meth:`record` and :meth:`reset`, so
    the disable decision is kept as a flag at the moment a counter crosses
    its threshold instead of being re-derived on every fleet sweep.  When
    the device sits in a :class:`~repro.vcu.host.VcuHost`, a trip also
    sets that host's ``sweep_due`` flag, so the next sweep re-reads this
    host's devices and skips every host where nothing tripped.
    """

    vcu_id: str
    temperature_c: float = 55.0
    #: Faults recorded per kind, read-only.  Until its first
    #: :meth:`record` a device reads one all-zero view shared by every
    #: fault-free device (most of a fleet, most of the time); that record
    #: gives the device its own dict, and :meth:`reset` points it back at
    #: the shared view.
    counters: Mapping[FaultKind, int] = field(default_factory=_zero_view)
    #: Some counter has reached its disable threshold (sticky until reset).
    tripped: bool = field(default=False, init=False)
    # Set by the host that holds this device; read through ``host``.
    _host_ref: Optional["weakref.ref[VcuHost]"] = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def host(self) -> Optional["VcuHost"]:
        """The host this device sits in, told of each trip.

        A weak reference, as :attr:`repro.vcu.chip.Vcu.host` is: the
        host owns its devices and their telemetry.
        """
        ref = self._host_ref
        return None if ref is None else ref()

    def record(self, kind: FaultKind, at_time: float = 0.0, count: int = 1) -> None:
        """Count ``count`` faults of ``kind``.

        ``at_time`` is the simulated time of the fault; the counters keep
        totals only.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        counters = self.counters
        if not isinstance(counters, dict):
            # The shared zero view: a first fault gives the device its own.
            counters = self.counters = dict(counters)
        total = counters[kind] + count
        counters[kind] = total
        if total >= DISABLE_THRESHOLDS[kind] and not self.tripped:
            self.tripped = True
            host = self.host
            if host is not None:
                host.sweep_due = True

    def reset(self) -> None:
        """Clean counters, as after a repair swaps the faulty silicon."""
        self.counters = _ZERO_VIEW
        self.tripped = False

    def should_disable(self) -> bool:
        """Whether accumulated faults cross any disable threshold."""
        return self.tripped

    def total_faults(self) -> int:
        return sum(self.counters.values())

    def snapshot(self) -> Dict[str, float]:
        """A flat metrics view, as the fleet monitoring system would see."""
        view: Dict[str, float] = {"temperature_c": self.temperature_c}
        for kind, value in self.counters.items():
            view[kind.value] = float(value)
        return view
