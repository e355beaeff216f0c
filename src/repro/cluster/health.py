"""The per-worker health-state machine (Section 4.4, made first-class).

The seed modelled only the happy path of the paper's failure workflow: a
worker that failed golden screening (or had a corruption caught by an
integrity check) was refused *forever*.  Production fault management is a
cycle, not a one-way door -- devices hang transiently, repairs replace
cards, and a re-screened device returns to service.  The state machine:

::

    HEALTHY --strike/quarantine--> SUSPECT --strikes--> QUARANTINED
       ^                                                    |
       |                                     rescreen_delay |
       +-- golden battery passes -- RESCREENING <-----------+
                                        |
                    repeated failures   v
                  (max_rescreen_failures) --> DISABLED

* ``HEALTHY``: taking work.
* ``SUSPECT``: struck by a watchdog hang; still serving, but the next
  strike within the policy's strike budget quarantines it.
* ``QUARANTINED``: refused work; the cluster schedules rehabilitation.
* ``RESCREENING``: running the golden transcode battery.
* ``DISABLED``: failed too many re-screens; the device itself is disabled
  and only a physical repair (card swap) brings the worker back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple


class HealthState(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    QUARANTINED = "quarantined"
    RESCREENING = "rescreening"
    DISABLED = "disabled"


class IllegalHealthTransition(RuntimeError):
    """A health-state set outside the declared transition table."""


#: The declared worker-health transition table (the diagram above, as
#: data).  ``VcuWorker._set_health`` enforces it at runtime and the
#: ``state-machine`` lint pass verifies every call site against it
#: statically -- edit this table and the lint run tells you which sites
#: and tests the change invalidates.  Same-state sets are no-ops at the
#: choke point, so no self-loops are declared.
LEGAL_HEALTH_TRANSITIONS: Dict[HealthState, Tuple[HealthState, ...]] = {
    HealthState.HEALTHY: (HealthState.SUSPECT, HealthState.QUARANTINED),
    HealthState.SUSPECT: (HealthState.QUARANTINED,),
    HealthState.QUARANTINED: (HealthState.RESCREENING,),
    HealthState.RESCREENING: (
        HealthState.HEALTHY,
        HealthState.QUARANTINED,
        HealthState.DISABLED,
    ),
    HealthState.DISABLED: (HealthState.QUARANTINED,),
}


@dataclass(frozen=True)
class HealthPolicy:
    """Knobs for the worker health-state machine."""

    #: Watchdog strikes tolerated before SUSPECT escalates to QUARANTINED.
    #: (The first strike moves HEALTHY -> SUSPECT; reaching this many
    #: total strikes quarantines.)
    strike_budget: int = 2
    #: Seconds a quarantined worker waits before its first re-screen.
    rescreen_delay_seconds: float = 30.0
    #: Wall-clock cost of the golden transcode battery itself.
    screen_seconds: float = 5.0
    #: Delay multiplier between successive failed re-screens.
    rescreen_backoff: float = 2.0
    #: Failed re-screens tolerated before the worker is DISABLED.
    max_rescreen_failures: int = 3

    def __post_init__(self) -> None:
        if self.strike_budget < 1:
            raise ValueError("strike_budget must be >= 1")
        if self.rescreen_delay_seconds < 0 or self.screen_seconds < 0:
            raise ValueError("rescreen delays must be >= 0")
        if self.rescreen_backoff < 1.0:
            raise ValueError("rescreen_backoff must be >= 1")
        if self.max_rescreen_failures < 1:
            raise ValueError("max_rescreen_failures must be >= 1")


#: The policy of every worker built without one (frozen, so shareable).
DEFAULT_HEALTH_POLICY = HealthPolicy()
