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

Both run the full control plane -- admission, retries, spill routing,
autoscaling -- over :class:`~repro.workloads.events.EventedDayWorkload`
demand, and score the same per-class SLO fields as the flagship
``platform-day`` scorecard plus the event-window accounting.  As with
every catalog scenario the run is a pure function of ``(config, seed)``:
static :func:`scorecard_keys`, byte-identical scorecards at any
``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.cluster.autoscale import CapacityAutoscaleConfig
from repro.control.jobs import JobRequest, RetryPolicy, SloClass
from repro.control.plane import ControlPlane, ModeledExecutor, make_sites
from repro.control.scenario import CLASS_FIELDS, DEFAULT_SITES, job_fields
from repro.sim.engine import Simulator
from repro.sim.rng import SeedLike
from repro.workloads.events import EventedDayWorkload, MixShiftSpec, SurgeSpec
from repro.workloads.platform import PlatformDayConfig

#: Bump when the scorecard's key set or semantics change.
SCORECARD_VERSION = 1

#: The two registered disturbance scenarios.
SCENARIOS: Tuple[str, ...] = ("popularity-surge", "live-mix-shift")

_GLOBAL_FIELDS = (
    "schema_version", "scenario",
    "event.start", "event.end", "event.jobs_in_window",
    "jobs.submitted", "jobs.done", "jobs.failed", "jobs.shed",
    "failover.routed", "spill.routed",
    "autoscale.actions", "autoscale.peak_slots",
    "dead_letter.count",
    "conservation.ok",
)


def scorecard_keys() -> Tuple[str, ...]:
    """The exact, sorted key set every disturbance scorecard carries."""
    keys = list(_GLOBAL_FIELDS)
    for cls in SloClass:
        keys.extend(f"class.{cls.label}.{f}" for f in CLASS_FIELDS)
    return tuple(sorted(keys))


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
    card: Dict[str, Any] = {"schema_version": SCORECARD_VERSION}
    card.update(job_fields(plane))
    start, end = config.event_window()
    card["scenario"] = config.scenario
    card["event.start"] = round(start, 9)
    card["event.end"] = round(end, 9)
    card["event.jobs_in_window"] = jobs_in_window
    card["failover.routed"] = plane.router.failover_routed
    card["spill.routed"] = plane.router.spill_routed
    autoscaler = plane.autoscaler
    card["autoscale.actions"] = 0 if autoscaler is None else autoscaler.actions
    card["autoscale.peak_slots"] = plane.peak_capacity
    card["dead_letter.count"] = len(plane.dead_letters)
    card["conservation.ok"] = bool(plane.ledger.conservation_report()["ok"])
    if tuple(sorted(card)) != scorecard_keys():
        raise RuntimeError("scorecard keys drifted from scorecard_keys()")
    return dict(sorted(card.items()))


def run_surge_mix(
    config: SurgeMixConfig, seed: SeedLike = 0
) -> SurgeMixResult:
    """Simulate one disturbance day end to end and score it.

    Arrivals stop at the day boundary; the simulation drains the
    backlog past it so every job is terminal at return.
    """
    sim = Simulator()
    sites = make_sites(
        config.site_specs, max_slots_factor=config.max_slots_factor
    )
    plane = ControlPlane(
        sim,
        sites,
        retry=RetryPolicy(),
        autoscale=CapacityAutoscaleConfig(),
        autoscale_interval_seconds=config.autoscale_interval_seconds,
        executor=ModeledExecutor(
            sim, seed=seed, failure_rate=config.failure_rate
        ),
        seed=seed,
    )
    requests = config.workload(seed).requests(until=config.day_seconds)
    for request in requests:
        sim.call_at(
            request.arrival_time,
            lambda r=request: plane.submit(r),
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
