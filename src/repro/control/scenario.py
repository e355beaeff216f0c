"""The flagship "global platform day" scenario and its SLO scorecard.

One simulated day of diurnal upload + live + batch traffic over a
four-region fleet; mid-day, one region drops out for a fifth of the day.
The control plane drains the lost region to the survivors, admission
sheds class-ordered load while capacity is short, the capacity
autoscaler grows the surviving sites, and the region rejoins.  The
output is a flat, deterministic **SLO scorecard**: per-class completion
and shed rates, retry counts, queue-wait percentiles, failover/spill
accounting, autoscale activity, and the conservation verdict (every
submitted job in exactly one terminal state).

:func:`build_scorecard` is the one place the card's keys are named.
The reviewed key set is a golden file under ``tests/golden``: the tests
and the CI smoke gate hold every real card to it, so a refactor that
silently drops a metric fails the key diff before anyone reads a
dashboard.  The ``surge-mix`` scenario runs on the same day runner
(:func:`_start_day`) and shares :func:`job_fields` and
:func:`plane_fields`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Sequence,
    Tuple,
    Union,
)

from repro.cluster.autoscale import CapacityAutoscaleConfig
from repro.control.jobs import JobRequest, RetryPolicy, SloClass
from repro.control.plane import ControlPlane, ModeledExecutor, make_sites
from repro.sim.engine import Simulator
from repro.sim.rng import SeedLike
from repro.workloads.platform import PlatformDayConfig, PlatformDayWorkload

if TYPE_CHECKING:
    from repro.control.surge import SurgeMixConfig

#: Bump when the scorecard's key set or semantics change.
SCORECARD_VERSION = 1

#: The default fleet: four regions, 180 slots total, sized so the
#: diurnal peak (~166 slot-equivalents) fits with a little margin --
#: the healthy fleet sheds nothing -- while the loss of us-east
#: (64 slots) leaves the survivors genuinely short and forces
#: class-ordered shedding.
DEFAULT_SITES: Tuple[Tuple[str, str, Tuple[float, float], int], ...] = (
    ("us-west", "us", (0.0, 0.0), 44),
    ("us-east", "us", (40.0, 0.0), 64),
    ("eu-west", "eu", (90.0, 10.0), 40),
    ("ap-south", "apac", (160.0, -10.0), 32),
)

#: The per-class SLO block :func:`job_fields` emits by default.
CLASS_FIELDS: Tuple[str, ...] = (
    "submitted", "done", "failed", "shed", "retries",
    "completion_rate", "shed_rate", "queue_p50", "queue_p90", "queue_p99",
)


@dataclass(frozen=True)
class ScenarioConfig:
    """One global-platform-day run, fully specified."""

    #: Length of the (compressed) day; rates are per second regardless.
    day_seconds: float = 3600.0
    #: Whether the mid-day regional outage happens at all (the control
    #: arm of the experiment runs with it off).
    outage: bool = True
    outage_site: str = "us-east"
    outage_start_frac: float = 0.40
    outage_duration_frac: float = 0.20
    #: Per-attempt execution fault probability (drives retries).
    failure_rate: float = 0.02
    autoscale: bool = True
    autoscale_interval_seconds: float = 60.0
    #: Autoscale ceiling as a multiple of each site's base slots.
    max_slots_factor: int = 2
    site_specs: Tuple[Tuple[str, str, Tuple[float, float], int], ...] = (
        DEFAULT_SITES
    )

    def __post_init__(self) -> None:
        if self.day_seconds <= 0:
            raise ValueError("day_seconds must be positive")
        if not 0.0 <= self.outage_start_frac < 1.0:
            raise ValueError("outage_start_frac must be in [0, 1)")
        if self.outage_duration_frac <= 0:
            raise ValueError("outage_duration_frac must be positive")
        names = [name for name, _, _, _ in self.site_specs]
        if self.outage and self.outage_site not in names:
            raise ValueError(
                f"outage_site {self.outage_site!r} not in {names}"
            )

    def workload_config(self) -> PlatformDayConfig:
        return PlatformDayConfig(day_seconds=self.day_seconds)


@dataclass
class ScenarioResult:
    """Everything a caller might inspect after the day drains."""

    config: ScenarioConfig
    plane: ControlPlane
    requests: List[JobRequest]
    end_time: float
    scorecard: Dict[str, Any]


def job_fields(
    plane: ControlPlane,
    classes: Sequence[SloClass] = tuple(SloClass),
    fields: Sequence[str] = CLASS_FIELDS,
) -> Dict[str, Any]:
    """The scorecard fields every control-plane scenario shares.

    The fleet-wide ``jobs.{submitted,done,failed,shed}`` totals, then
    ``class.<label>.<field>`` for each of ``fields`` in each of
    ``classes`` (``classes=()`` gives the totals alone).
    """
    counts = plane.class_counts()
    card: Dict[str, Any] = {
        f"jobs.{key}": sum(counts[cls.label][key] for cls in SloClass)
        for key in ("submitted", "done", "failed", "shed")
    }
    for cls in classes:
        bucket = counts[cls.label]
        submitted = bucket["submitted"]
        hist = plane.queue_wait[cls]
        block = {
            "submitted": submitted,
            "done": bucket["done"],
            "failed": bucket["failed"],
            "shed": bucket["shed"],
            "retries": bucket["retries"],
            "completion_rate": round(
                bucket["done"] / submitted if submitted else 0.0, 6
            ),
            "shed_rate": round(
                bucket["shed"] / submitted if submitted else 0.0, 6
            ),
            "queue_p50": round(hist.quantile(0.50), 9),
            "queue_p90": round(hist.quantile(0.90), 9),
            "queue_p99": round(hist.quantile(0.99), 9),
        }
        for field in fields:
            card[f"class.{cls.label}.{field}"] = block[field]
    return card


def plane_fields(plane: ControlPlane) -> Dict[str, Any]:
    """The routing, autoscale and ledger fields of a platform-day card.

    ``platform-day`` and ``surge-mix`` both carry these six.
    """
    autoscaler = plane.autoscaler
    return {
        "failover.routed": plane.router.failover_routed,
        "spill.routed": plane.router.spill_routed,
        "autoscale.actions": 0 if autoscaler is None else autoscaler.actions,
        "autoscale.peak_slots": plane.peak_capacity,
        "dead_letter.count": len(plane.dead_letters),
        "conservation.ok": bool(plane.ledger.conservation_report()["ok"]),
    }


def build_scorecard(plane: ControlPlane) -> Dict[str, Any]:
    """The flat SLO scorecard, keys sorted, values rounded."""
    card: Dict[str, Any] = {
        "schema_version": SCORECARD_VERSION,
        **job_fields(plane),
        **plane_fields(plane),
        "failover.drained_queued": plane.drained_queued,
        "failover.drained_running": plane.drained_running,
        "outages.count": plane.outages_started,
    }
    return dict(sorted(card.items()))


def _start_day(
    config: Union[ScenarioConfig, "SurgeMixConfig"],
    autoscale: bool,
    workload: Callable[[SeedLike], PlatformDayWorkload],
    seed: SeedLike,
) -> Tuple[Simulator, ControlPlane, List[JobRequest]]:
    """One platform day up to its scenario's own events.

    Builds the sites, the modeled executor and the control plane, draws
    the day's requests from ``workload(seed)`` and schedules each one's
    submit.  The caller schedules the rest (an outage, the autoscaler)
    and runs the simulator.
    """
    sim = Simulator()
    sites = make_sites(
        config.site_specs, max_slots_factor=config.max_slots_factor
    )
    plane = ControlPlane(
        sim,
        sites,
        retry=RetryPolicy(),
        autoscale=CapacityAutoscaleConfig() if autoscale else None,
        autoscale_interval_seconds=config.autoscale_interval_seconds,
        executor=ModeledExecutor(
            sim, seed=seed, failure_rate=config.failure_rate
        ),
        seed=seed,
    )
    requests = workload(seed).requests(until=config.day_seconds)
    for request in requests:
        sim.call_at(
            request.arrival_time,
            lambda r=request: plane.submit(r),
        )
    return sim, plane, requests


def run_global_platform_day(
    config: ScenarioConfig, seed: SeedLike = 0
) -> ScenarioResult:
    """Simulate one platform day end to end and score it.

    The simulation runs past ``day_seconds`` until the event queue
    drains -- arrivals stop at the day boundary, but the backlog's tail
    (including retry backoffs) is allowed to finish, so the conservation
    invariant is checkable: every job is terminal at return.
    """
    sim, plane, requests = _start_day(
        config,
        autoscale=config.autoscale,
        workload=lambda s: PlatformDayWorkload(
            config.workload_config(), seed=s
        ),
        seed=seed,
    )
    if config.outage:
        plane.schedule_outage(
            config.outage_site,
            at=config.outage_start_frac * config.day_seconds,
            duration_seconds=config.outage_duration_frac * config.day_seconds,
        )
    if config.autoscale:
        plane.start_autoscaler(until=config.day_seconds)
    sim.run()
    return ScenarioResult(
        config=config,
        plane=plane,
        requests=requests,
        end_time=sim.now,
        scorecard=build_scorecard(plane),
    )
