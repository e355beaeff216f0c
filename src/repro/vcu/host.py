"""Cards, trays, and the 20-VCU accelerator host (Section 3.3.1).

The physical hierarchy matters to failure management: the *rack* is the
unit of deployment, the card/chassis/cable is the unit of repair, each
VCU has an independent power rail (so a VCU can be disabled alone), and a
host accumulates component faults until it is marked unusable.
"""

from __future__ import annotations

import itertools
import weakref
from typing import List, Optional

from repro.vcu.chip import Vcu
from repro.vcu.spec import DEFAULT_HOST_SPEC, DEFAULT_VCU_SPEC, HostSpec, VcuSpec


class VcuCard:
    """A full-length PCIe card carrying two VCU ASICs."""

    _ids = itertools.count()

    def __init__(self, spec: VcuSpec = None, host_spec: HostSpec = None):
        spec = spec or DEFAULT_VCU_SPEC
        host_spec = host_spec or DEFAULT_HOST_SPEC
        self.card_id = f"card-{next(self._ids)}"
        self.vcus = [
            Vcu(spec, vcu_id=f"{self.card_id}/vcu{i}")
            for i in range(host_spec.vcus_per_card)
        ]

    def healthy_vcus(self) -> List[Vcu]:
        return [v for v in self.vcus if not v.disabled]


class VcuTray:
    """An accelerator expansion chassis holding five cards."""

    _ids = itertools.count()

    def __init__(self, spec: VcuSpec = None, host_spec: HostSpec = None):
        host_spec = host_spec or DEFAULT_HOST_SPEC
        self.tray_id = f"tray-{next(self._ids)}"
        self.cards = [
            VcuCard(spec, host_spec) for _ in range(host_spec.cards_per_tray)
        ]
        self.vcus: List[Vcu] = [vcu for card in self.cards for vcu in card.vcus]


class VcuHost:
    """One accelerator host: 2 trays x 5 cards x 2 VCUs = 20 VCUs.

    ``numa_aware`` gates the post-launch NUMA scheduling fix; the
    oblivious configuration pays :attr:`HostSpec.numa_penalty` on
    throughput (Section 4.3: fixing it gained 16-25%).
    """

    _ids = itertools.count()

    def __init__(
        self,
        spec: VcuSpec = None,
        host_spec: HostSpec = None,
        numa_aware: bool = True,
        host_id: Optional[str] = None,
    ):
        self.spec = spec or DEFAULT_VCU_SPEC
        self.host_spec = host_spec or DEFAULT_HOST_SPEC
        self.host_id = host_id or f"host-{next(self._ids)}"
        self.numa_aware = numa_aware
        self.trays = [
            VcuTray(self.spec, self.host_spec)
            for _ in range(self.host_spec.trays_per_host)
        ]
        #: Trays and cards are fixed for the host's life, so the flat VCU
        #: list is built once.
        self.vcus: List[Vcu] = [vcu for tray in self.trays for vcu in tray.vcus]
        #: Some device may be tripped and enabled: set by a trip
        #: (:meth:`VcuTelemetry.record`) and by re-enabling a disabled
        #: device, cleared by :meth:`sweep_telemetry`.
        self.sweep_due = False
        #: How many of :attr:`vcus` are disabled, kept by the devices'
        #: own :meth:`Vcu.disable` / :meth:`Vcu.enable`.
        self.disabled_vcus = 0
        # Devices point back here without owning this host: one weak
        # reference, shared by all of them, so no cycle joins a host and
        # its devices.
        back = weakref.ref(self)
        for vcu in self.vcus:
            vcu._host_ref = back
            vcu.telemetry._host_ref = back
        self.unusable = False
        self.component_faults = 0
        #: Faults before the host is queued for repair (dozens of discrete
        #: components; a handful of hard faults takes it out).
        self.fault_budget = 6

    def healthy_vcus(self) -> List[Vcu]:
        if self.unusable:
            return []
        return [v for v in self.vcus if not v.disabled]

    @property
    def throughput_multiplier(self) -> float:
        """Host-level efficiency: NUMA-oblivious scheduling costs ~17%."""
        return 1.0 if self.numa_aware else 1.0 / self.host_spec.numa_penalty

    def sweep_telemetry(self) -> List[Vcu]:
        """Disable any VCU whose fault counters crossed a threshold.

        Returns the VCUs disabled by this sweep, in device order (the
        host-level fault collection workflow of Section 4.4).  Only a
        trip or a re-enable can leave a device tripped and enabled, and
        both set :attr:`sweep_due`, so the devices are read only when the
        flag is set; a host where nothing changed costs the flag test
        and the fault-budget check.
        """
        newly_disabled: List[Vcu] = []
        if self.sweep_due:
            self.sweep_due = False
            newly_disabled = [
                vcu for vcu in self.vcus
                if vcu.telemetry.tripped and not vcu.disabled
            ]
            for vcu in newly_disabled:
                vcu.disable()
            self.component_faults += len(newly_disabled)
        if self.component_faults >= self.fault_budget:
            self.unusable = True
        return newly_disabled
