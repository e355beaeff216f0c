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

The scorecard's key set is static (:func:`scorecard_keys`), which is
what the CI smoke job checks: a refactor that silently drops a metric
fails the key diff before anyone reads a dashboard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.cluster.autoscale import CapacityAutoscaleConfig
from repro.control.jobs import JobRequest, RetryPolicy, SloClass
from repro.control.plane import ControlPlane, ModeledExecutor, make_sites
from repro.sim.engine import Simulator
from repro.sim.rng import SeedLike
from repro.workloads.platform import PlatformDayConfig, PlatformDayWorkload

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
_GLOBAL_FIELDS = (
    "schema_version",
    "jobs.submitted", "jobs.done", "jobs.failed", "jobs.shed",
    "failover.routed", "failover.drained_queued", "failover.drained_running",
    "spill.routed",
    "autoscale.actions", "autoscale.peak_slots",
    "outages.count", "dead_letter.count",
    "conservation.ok",
)


def scorecard_keys() -> Tuple[str, ...]:
    """The exact, sorted key set every scorecard carries."""
    keys = list(_GLOBAL_FIELDS)
    for cls in SloClass:
        keys.extend(f"class.{cls.label}.{f}" for f in CLASS_FIELDS)
    return tuple(sorted(keys))


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


def build_scorecard(plane: ControlPlane) -> Dict[str, Any]:
    """The flat SLO scorecard, keys sorted, values rounded."""
    card: Dict[str, Any] = {"schema_version": SCORECARD_VERSION}
    card.update(job_fields(plane))
    card["failover.routed"] = plane.router.failover_routed
    card["failover.drained_queued"] = plane.drained_queued
    card["failover.drained_running"] = plane.drained_running
    card["spill.routed"] = plane.router.spill_routed
    autoscaler = plane.autoscaler
    card["autoscale.actions"] = 0 if autoscaler is None else autoscaler.actions
    card["autoscale.peak_slots"] = plane.peak_capacity
    card["outages.count"] = plane.outages_started
    card["dead_letter.count"] = len(plane.dead_letters)
    card["conservation.ok"] = bool(plane.ledger.conservation_report()["ok"])
    if tuple(sorted(card)) != scorecard_keys():
        raise RuntimeError("scorecard keys drifted from scorecard_keys()")
    return dict(sorted(card.items()))


def run_global_platform_day(
    config: ScenarioConfig, seed: SeedLike = 0
) -> ScenarioResult:
    """Simulate one platform day end to end and score it.

    The simulation runs past ``day_seconds`` until the event queue
    drains -- arrivals stop at the day boundary, but the backlog's tail
    (including retry backoffs) is allowed to finish, so the conservation
    invariant is checkable: every job is terminal at return.
    """
    sim = Simulator()
    sites = make_sites(
        config.site_specs, max_slots_factor=config.max_slots_factor
    )
    plane = ControlPlane(
        sim,
        sites,
        retry=RetryPolicy(),
        autoscale=CapacityAutoscaleConfig() if config.autoscale else None,
        autoscale_interval_seconds=config.autoscale_interval_seconds,
        executor=ModeledExecutor(
            sim, seed=seed, failure_rate=config.failure_rate
        ),
        seed=seed,
    )
    workload = PlatformDayWorkload(config.workload_config(), seed=seed)
    requests = workload.requests(until=config.day_seconds)
    for request in requests:
        sim.call_at(
            request.arrival_time,
            lambda r=request: plane.submit(r),
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
