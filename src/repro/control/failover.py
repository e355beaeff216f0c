"""Multi-region routing with failover: sites, selection, and drains.

Each :class:`SiteRuntime` is one data-center site as the control plane
sees it: its name, region and map location, whether it is up, and the
*dynamic* picture -- autoscaled slot count, the per-site dispatch
queue, and the running set.

Routing preference mirrors the paper's Section 2.2 behaviour: a job
lands on the nearest *up* site with free slots; with no free slot
anywhere it queues at the least-loaded up site (ties broken by
distance, then name -- always deterministic).  When the nearest site of
all is down and the job lands elsewhere, that is a **failover** (counted
separately from ordinary capacity spills).

:meth:`FailoverRouter.mark_down` is the regional-outage entry point: it
flips the site down and hands back both its queued and its in-flight
jobs so the control plane can drain them to surviving regions under the
same admission rules as fresh traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.control.jobs import Job
from repro.control.queue import ClassQueue


def distance(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


@dataclass
class SiteRuntime:
    """One site's place and dynamic state as the control plane sees it."""

    name: str
    region: str
    #: Abstract map coordinates (distance drives routing preference).
    location: Tuple[float, float]
    #: Current dispatch slots (autoscaling moves this between min/max).
    slots: int
    min_slots: int = 1
    max_slots: int = 0
    #: False while the site is lost to a regional outage.
    up: bool = True
    queue: ClassQueue = field(default_factory=ClassQueue)
    #: job_id -> Job, insertion-ordered (dispatch order).
    running: Dict[str, Job] = field(default_factory=dict)
    dispatched_total: int = 0

    def __post_init__(self) -> None:
        if self.max_slots <= 0:
            self.max_slots = self.slots * 4
        if not self.min_slots <= self.slots <= self.max_slots:
            raise ValueError(
                f"site {self.name}: need min_slots <= slots <= max_slots"
            )

    def headroom(self) -> int:
        return self.slots - len(self.running)

    def outstanding(self) -> int:
        return len(self.queue) + len(self.running)

    def load(self) -> float:
        """Outstanding jobs per slot (the routing tie-breaker)."""
        return self.outstanding() / self.slots if self.slots else float("inf")


class FailoverRouter:
    """Deterministic site selection plus outage drain bookkeeping."""

    def __init__(self, sites: Sequence[SiteRuntime]) -> None:
        if not sites:
            raise ValueError("need at least one site")
        names = [s.name for s in sites]
        if len(set(names)) != len(names):
            raise ValueError("site names must be unique")
        #: Name-sorted so every fleet walk has one canonical order.
        self.sites: List[SiteRuntime] = sorted(sites, key=lambda s: s.name)
        self._by_name = {s.name: s for s in self.sites}
        self.failover_routed = 0
        self.spill_routed = 0

    def site(self, name: str) -> SiteRuntime:
        try:
            return self._by_name[name]
        except KeyError:
            known = ", ".join(s.name for s in self.sites)
            raise KeyError(f"unknown site {name!r}; have: {known}") from None

    def up_sites(self) -> List[SiteRuntime]:
        return [s for s in self.sites if s.up]

    def total_capacity(self) -> int:
        """Slots across up sites -- the admission controller's divisor."""
        return sum(s.slots for s in self.sites if s.up)

    def nearest(self, origin: Tuple[float, float]) -> SiteRuntime:
        """Nearest site regardless of health (the failover reference)."""
        return min(
            self.sites,
            key=lambda s: (distance(origin, s.location), s.name),
        )

    def choose(self, origin: Tuple[float, float]) -> Optional[SiteRuntime]:
        """Where an admitted job should queue, or ``None`` (all down).

        Preference: nearest up site with a free slot; otherwise the
        least-loaded up site (distance, then name, break ties).  Updates
        the spill/failover accounting as a side effect.
        """
        candidates = self.up_sites()
        if not candidates:
            return None
        with_headroom = [s for s in candidates if s.headroom() > 0]
        if with_headroom:
            chosen = min(
                with_headroom,
                key=lambda s: (distance(origin, s.location), s.name),
            )
        else:
            chosen = min(
                candidates,
                key=lambda s: (
                    s.load(), distance(origin, s.location), s.name,
                ),
            )
        nearest = self.nearest(origin)
        if chosen.name != nearest.name:
            if nearest.up:
                self.spill_routed += 1
            else:
                self.failover_routed += 1
        return chosen

    # ------------------------------------------------------------------ #
    # Outage lifecycle

    def mark_down(self, name: str) -> Tuple[List[Job], List[Job]]:
        """Take a site down; returns (queued, running) jobs to drain.

        The queued jobs come back priority-then-FIFO ordered; the
        running list is in dispatch order.  Both lists are *detached*
        from the site -- the caller owns their next transition.
        """
        site = self.site(name)
        site.up = False
        queued = site.queue.drain()
        running = list(site.running.values())
        site.running.clear()
        return queued, running

    def mark_up(self, name: str) -> SiteRuntime:
        site = self.site(name)
        site.up = True
        return site
