"""Demand-disturbance scenarios: popularity surge and live mix shift.

Two variations on the platform day whose stressor is the *workload*
rather than the infrastructure (no outage):

* ``popularity-surge`` -- a viral window mid-day where upload and batch
  arrival rates triple (a premiere driving ingest plus the
  popularity-driven re-encode wave behind it), then fall back;
* ``live-mix-shift`` -- from mid-day on, the class mix tilts for the
  rest of the day: live arrivals jump 2.5x while uploads dip (a global
  live event), exercising strict-priority scheduling and the capacity
  autoscaler under a mix the sites were not sized for.

Both run on the platform day's runner -- admission, retries, spill
routing, autoscaling -- over
:class:`~repro.workloads.events.EventedDayWorkload` demand, and score
the same per-class SLO and plane fields as the flagship ``platform-day``
scorecard plus the event-window accounting.  As with every catalog
scenario the run is a pure function of ``(config, seed)``, and
:func:`build_scorecard` is the one place its keys are named:
byte-identical scorecards at any ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.control.jobs import JobRequest
from repro.control.plane import ControlPlane
from repro.control.scenario import (
    DEFAULT_SITES,
    _start_day,
    job_fields,
    plane_fields,
)
from repro.sim.rng import SeedLike
from repro.workloads.events import EventedDayWorkload, MixShiftSpec, SurgeSpec
from repro.workloads.platform import PlatformDayConfig

#: Bump when the scorecard's key set or semantics change.
SCORECARD_VERSION = 1

#: The two registered disturbance scenarios.
SCENARIOS: Tuple[str, ...] = ("popularity-surge", "live-mix-shift")


@dataclass(frozen=True)
class SurgeMixConfig:
    """One demand-disturbance run, fully specified."""

    scenario: str = "popularity-surge"
    day_seconds: float = 3600.0
    failure_rate: float = 0.02
    autoscale_interval_seconds: float = 60.0
    max_slots_factor: int = 2
    surge: SurgeSpec = SurgeSpec()
    mix_shift: MixShiftSpec = MixShiftSpec()
    site_specs: Tuple[Tuple[str, str, Tuple[float, float], int], ...] = (
        DEFAULT_SITES
    )

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; known: {SCENARIOS}"
            )
        if self.day_seconds <= 0:
            raise ValueError("day_seconds must be positive")

    def workload(self, seed: SeedLike) -> EventedDayWorkload:
        config = PlatformDayConfig(day_seconds=self.day_seconds)
        if self.scenario == "popularity-surge":
            return EventedDayWorkload(config, seed=seed, surge=self.surge)
        return EventedDayWorkload(config, seed=seed, mix_shift=self.mix_shift)

    def event_window(self) -> Tuple[float, float]:
        """The disturbance's [start, end) in sim seconds."""
        if self.scenario == "popularity-surge":
            start = self.surge.start_frac * self.day_seconds
            return (
                start,
                start + self.surge.duration_frac * self.day_seconds,
            )
        return (self.mix_shift.start_frac * self.day_seconds, self.day_seconds)


@dataclass
class SurgeMixResult:
    """Everything a caller might inspect after the day drains."""

    config: SurgeMixConfig
    plane: ControlPlane
    requests: List[JobRequest]
    end_time: float
    scorecard: Dict[str, Any]


def build_scorecard(
    plane: ControlPlane,
    config: SurgeMixConfig,
    jobs_in_window: int,
) -> Dict[str, Any]:
    """The flat disturbance scorecard, keys sorted, values rounded."""
    start, end = config.event_window()
    card: Dict[str, Any] = {
        "schema_version": SCORECARD_VERSION,
        **job_fields(plane),
        **plane_fields(plane),
        "scenario": config.scenario,
        "event.start": round(start, 9),
        "event.end": round(end, 9),
        "event.jobs_in_window": jobs_in_window,
    }
    return dict(sorted(card.items()))


def run_surge_mix(
    config: SurgeMixConfig, seed: SeedLike = 0
) -> SurgeMixResult:
    """Simulate one disturbance day end to end and score it.

    Arrivals stop at the day boundary; the simulation drains the
    backlog past it so every job is terminal at return.
    """
    sim, plane, requests = _start_day(
        config, autoscale=True, workload=config.workload, seed=seed
    )
    plane.start_autoscaler(until=config.day_seconds)
    sim.run()
    start, end = config.event_window()
    jobs_in_window = sum(
        1 for request in requests if start <= request.arrival_time < end
    )
    return SurgeMixResult(
        config=config,
        plane=plane,
        requests=requests,
        end_time=sim.now,
        scorecard=build_scorecard(plane, config, jobs_in_window),
    )
