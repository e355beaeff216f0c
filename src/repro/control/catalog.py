"""The scenario catalog: every deployment-narrative claim as an experiment.

The paper's Section 5 story -- a platform day under a regional outage,
live segment streaming, canary firmware rollouts, correlated outages
under capped repair, sixteen months of post-launch tuning, and
demand-mix disturbances -- lives here as one declarative catalog.  Each
:class:`CatalogEntry` is the only declaration of its experiment: title,
seed, grids, the scenario's config class and run function, and summary
columns.  :mod:`repro.runner.experiments` registers every entry from
this table in one loop.  A scorecard's keys are named only by the code
that builds it; the reviewed key sets the smoke gates diff real cards
against are a golden file under ``tests/golden``.

This module is deliberately import-light (the registry contract: a
cache-hot ``repro-bench run`` never touches the cluster simulator).
Entries name the scenario code as ``"module:attribute"`` strings that
:func:`resolve` imports at call time.  The project import graph reads
each such string as a lazy edge to its module, which is how the result
cache's fingerprints and the layering pass see the scenario code.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

# --------------------------------------------------------------------- #
# Global platform day (the control plane's flagship robustness scenario).

PLATFORM_DAY_SEED = 11
PLATFORM_DAY_SECONDS = 3600.0
PLATFORM_DAY_SMOKE_SECONDS = 900.0

# --------------------------------------------------------------------- #
# Live ladder (the streaming latency flagship scenario).

LIVE_LADDER_SEED = 13
LIVE_LADDER_SECONDS = 900.0
LIVE_LADDER_SMOKE_SECONDS = 360.0
#: Device fault pressure in both arms, per VCU-hour.
LIVE_LADDER_HANG_RATE = 0.5
LIVE_LADDER_CORRUPTION_RATE = 0.5

# --------------------------------------------------------------------- #
# Figure 9 replay settings: the single source of truth shared by
# benchmarks/test_fig9_scaling.py and the tuning-timeline experiment
# below.

FIG9_MONTHS = 12
FIG9_SEED = 5
FIG9_HORIZON_SECONDS = 80.0
FIG9_BASE_VCU_WORKERS = 6

# --------------------------------------------------------------------- #
# Canary firmware rollout (Section 5's deployment discipline).

CANARY_SEED = 17
CANARY_HORIZON_SECONDS = 600.0
CANARY_SMOKE_HORIZON_SECONDS = 240.0
#: Both release candidates run in both grids: rc1 carries the regression
#: the rollback path must catch, rc2 exercises the promote path.
CANARY_CANDIDATES: Tuple[str, ...] = ("fw-1.1.0-rc1", "fw-1.1.0-rc2")

# --------------------------------------------------------------------- #
# Correlated-outage chaos campaign (blast radius x capped repair).

CHAOS_SEED = 19
CHAOS_HORIZON_SECONDS = 900.0
CHAOS_SMOKE_HORIZON_SECONDS = 360.0
#: (blast_hosts, repair_cap) sweep: blast radius x repair capacity.
CHAOS_SWEEP: Tuple[Tuple[int, int], ...] = ((2, 1), (2, 4), (5, 1), (5, 4))
CHAOS_SMOKE_SWEEP: Tuple[Tuple[int, int], ...] = ((2, 1), (5, 4))

# --------------------------------------------------------------------- #
# Figure 9/10 tuning timeline (16 months of launch-and-iterate).

TIMELINE_SEED = FIG9_SEED
TIMELINE_MONTHS = 16
TIMELINE_SMOKE_MONTHS: Tuple[int, ...] = (1, 8, 16)
TIMELINE_SMOKE_HORIZON_SECONDS = 40.0
#: Nominal VCU-vs-software bitrate gap at launch (Figure 10's month-0
#: intercepts); the longitudinal curve applies the rate-control
#: efficiency decay on top.
NOMINAL_LAUNCH_GAP_PCT: Dict[str, float] = {"h264": 8.0, "vp9": 12.0}

# --------------------------------------------------------------------- #
# Popularity-surge / live-mix-shift demand disturbances.

SURGE_SEED = 23
SURGE_DAY_SECONDS = 3600.0
SURGE_SMOKE_DAY_SECONDS = 900.0
SURGE_SCENARIOS: Tuple[str, ...] = ("popularity-surge", "live-mix-shift")


def platform_day_grid(smoke: bool = False) -> List[Dict[str, Any]]:
    day = PLATFORM_DAY_SMOKE_SECONDS if smoke else PLATFORM_DAY_SECONDS
    return [
        {
            "outage": outage,
            "day_seconds": day,
            "scenario_seed": PLATFORM_DAY_SEED,
        }
        for outage in (False, True)
    ]


def live_ladder_grid(smoke: bool = False) -> List[Dict[str, Any]]:
    horizon = LIVE_LADDER_SMOKE_SECONDS if smoke else LIVE_LADDER_SECONDS
    return [
        {
            "outage": outage,
            "horizon_seconds": horizon,
            "hang_rate": LIVE_LADDER_HANG_RATE,
            "corruption_rate": LIVE_LADDER_CORRUPTION_RATE,
            "scenario_seed": LIVE_LADDER_SEED,
        }
        for outage in (False, True)
    ]


def canary_grid(smoke: bool = False) -> List[Dict[str, Any]]:
    horizon = CANARY_SMOKE_HORIZON_SECONDS if smoke else CANARY_HORIZON_SECONDS
    return [
        {
            "candidate": candidate,
            "horizon_seconds": horizon,
            "scenario_seed": CANARY_SEED,
        }
        for candidate in CANARY_CANDIDATES
    ]


def chaos_grid(smoke: bool = False) -> List[Dict[str, Any]]:
    horizon = CHAOS_SMOKE_HORIZON_SECONDS if smoke else CHAOS_HORIZON_SECONDS
    sweep = CHAOS_SMOKE_SWEEP if smoke else CHAOS_SWEEP
    return [
        {
            "blast_hosts": blast,
            "repair_cap": cap,
            "horizon_seconds": horizon,
            "scenario_seed": CHAOS_SEED,
        }
        for blast, cap in sweep
    ]


def timeline_grid(smoke: bool = False) -> List[Dict[str, Any]]:
    months = TIMELINE_SMOKE_MONTHS if smoke else range(1, TIMELINE_MONTHS + 1)
    horizon = TIMELINE_SMOKE_HORIZON_SECONDS if smoke else FIG9_HORIZON_SECONDS
    return [
        {
            "month": month,
            "workload_seed": TIMELINE_SEED,
            "horizon_seconds": horizon,
            "base_vcu_workers": FIG9_BASE_VCU_WORKERS,
        }
        for month in months
    ]


def surge_grid(smoke: bool = False) -> List[Dict[str, Any]]:
    day = SURGE_SMOKE_DAY_SECONDS if smoke else SURGE_DAY_SECONDS
    return [
        {
            "scenario": scenario,
            "day_seconds": day,
            "scenario_seed": SURGE_SEED,
        }
        for scenario in SURGE_SCENARIOS
    ]


# --------------------------------------------------------------------- #
# The tuning-timeline scorecard (the one scenario whose run logic lives
# here: it composes two existing subsystems rather than owning one).

#: Bump when the timeline scorecard's key set or semantics change.
TIMELINE_SCORECARD_VERSION = 1


def bitrate_vs_software_pct(codec: str, month: float) -> float:
    """Figure 10's y-axis: VCU bitrate at iso-quality vs software, in %.

    The launch gap shrinks with the rate-control efficiency decay; H.264
    crosses below 0% (tuned hardware beats software), VP9 approaches
    parity -- exactly the curves the paper plots.
    """
    from repro.codec.tuning import rate_control_efficiency

    gap = NOMINAL_LAUNCH_GAP_PCT[codec]
    efficiency = rate_control_efficiency(codec, month)
    return ((1.0 + gap / 100.0) * efficiency - 1.0) * 100.0


def run_tuning_month(
    month: int,
    workload_seed: int,
    horizon_seconds: float,
    base_vcu_workers: int,
) -> Dict[str, Any]:
    """One longitudinal point: cluster replay + rate-control position.

    Throughput/utilization comes from the Figure 9 cluster replay at
    this month's deployment state; the bitrate trajectory is the
    Figure 10 analytic overlay (real iso-quality encodes are a
    benchmark, not an experiment unit).
    """
    from repro.cluster.timeline import default_timeline, run_month
    from repro.codec.tuning import milestones_through, rate_control_efficiency

    config = default_timeline(month)[-1]
    result = run_month(
        config,
        base_vcu_workers=base_vcu_workers,
        horizon_seconds=horizon_seconds,
        seed=workload_seed,
    )
    card: Dict[str, Any] = {
        "schema_version": TIMELINE_SCORECARD_VERSION,
        "month": result.month,
        "throughput_mpix_s": round(result.throughput_mpix_s, 4),
        "total_megapixels": round(result.total_megapixels, 3),
        "decoder_util": round(result.decoder_utilization, 5),
        "encoder_util": round(result.encoder_utilization, 5),
        "vcu_workers": result.vcu_workers,
        "rc_efficiency.h264": round(rate_control_efficiency("h264", month), 6),
        "rc_efficiency.vp9": round(rate_control_efficiency("vp9", month), 6),
        "bitrate_vs_software.h264": round(
            bitrate_vs_software_pct("h264", month), 4
        ),
        "bitrate_vs_software.vp9": round(
            bitrate_vs_software_pct("vp9", month), 4
        ),
        "milestones_shipped": len(milestones_through(month)),
    }
    return dict(sorted(card.items()))


# --------------------------------------------------------------------- #
# The catalog itself.


@dataclass(frozen=True)
class CatalogEntry:
    """One registered scenario experiment, declared once."""

    name: str
    title: str
    seed: int
    #: The unit-result keys beyond "scorecard" (the arm parameters).
    arm_fields: Tuple[str, ...]
    #: ``grid(smoke)``: the full (False) or smoke (True) parameter grid.
    grid: Callable[[bool], List[Dict[str, Any]]]
    #: ``"module:function"`` running one unit.  With a ``config`` it is
    #: called as ``run(config, seed=params["scenario_seed"])`` and its
    #: result carries ``.scorecard``; without one, ``run(**params)``
    #: returns the scorecard itself.
    run: str
    #: ``"module:Class"`` built from the grid parameters, or ``""``.
    config: str
    #: Summary columns in report order: (column, scorecard key).  Rows
    #: lead with the arm fields.
    columns: Tuple[Tuple[str, str], ...]
    #: Grid keys whose config field is named differently (the grid key
    #: is manifest bytes; the config field is the API).
    renames: Tuple[Tuple[str, str], ...] = ()


CATALOG: Tuple[CatalogEntry, ...] = (
    CatalogEntry(
        name="platform-day",
        title="Global platform day — SLO scorecard under a regional outage",
        seed=PLATFORM_DAY_SEED,
        arm_fields=("outage",),
        grid=platform_day_grid,
        run="repro.control.scenario:run_global_platform_day",
        config="repro.control.scenario:ScenarioConfig",
        columns=(
            ("submitted", "jobs.submitted"),
            ("done", "jobs.done"),
            ("shed_batch", "class.batch.shed"),
            ("shed_upload", "class.upload.shed"),
            ("shed_live", "class.live.shed"),
            ("failover_routed", "failover.routed"),
            ("autoscale_actions", "autoscale.actions"),
            ("live_completion", "class.live.completion_rate"),
            ("conservation_ok", "conservation.ok"),
        ),
    ),
    CatalogEntry(
        name="live-ladder",
        title="Live ladder — time-to-first-segment SLOs under segment streaming",
        seed=LIVE_LADDER_SEED,
        arm_fields=("outage",),
        grid=live_ladder_grid,
        run="repro.control.live_ladder:run_live_ladder",
        config="repro.control.live_ladder:LiveLadderConfig",
        columns=(
            ("streams", "streams.completed"),
            ("segments", "segments.manifested"),
            ("segments_lost", "segments.lost"),
            ("ttfs_p50", "ttfs.p50"),
            ("ttfs_p99", "ttfs.p99"),
            ("stall_p99", "stall.p99"),
            ("deadline_miss_rate", "deadline.miss_rate"),
            ("opportunistic_fallbacks", "fallback.opportunistic"),
            ("cluster_hangs", "cluster.hangs"),
            ("conservation_ok", "conservation.ok"),
        ),
        renames=(
            ("hang_rate", "hang_rate_per_hour"),
            ("corruption_rate", "corruption_rate_per_hour"),
        ),
    ),
    CatalogEntry(
        name="canary-rollout",
        title="Firmware canary rollout — regression detection and rollback",
        seed=CANARY_SEED,
        arm_fields=("candidate",),
        grid=canary_grid,
        run="repro.control.canary:run_canary_rollout",
        config="repro.control.canary:CanaryConfig",
        columns=(
            ("stage", "rollout.stage"),
            ("regression_detected", "rollout.regression_detected"),
            ("throughput_delta", "delta.throughput_frac"),
            ("unhealthy_delta", "delta.unhealthy_frac"),
            ("hangs", "cluster.hangs"),
            ("quarantined", "cluster.workers_quarantined"),
            ("jobs_done", "jobs.done"),
            ("conservation_ok", "conservation.ok"),
        ),
    ),
    CatalogEntry(
        name="chaos-campaign",
        title="Correlated-outage chaos campaign — blast radius × repair capacity",
        seed=CHAOS_SEED,
        arm_fields=("blast_hosts", "repair_cap"),
        grid=chaos_grid,
        run="repro.control.chaos:run_chaos_campaign",
        config="repro.control.chaos:ChaosCampaignConfig",
        columns=(
            ("jobs_completed", "jobs.completed"),
            ("hangs", "cluster.hangs"),
            ("disabled_by_sweeps", "fleet.disabled_by_sweeps"),
            ("hosts_repaired", "repair.hosts_repaired"),
            ("available_end", "fleet.available_end"),
            ("availability_exact", "availability.exact"),
            ("conservation_ok", "conservation.ok"),
        ),
    ),
    CatalogEntry(
        name="tuning-timeline",
        title="Figures 9/10 — 16-month launch-and-iterate tuning timeline",
        seed=TIMELINE_SEED,
        arm_fields=("month",),
        grid=timeline_grid,
        run="repro.control.catalog:run_tuning_month",
        config="",
        columns=(
            ("throughput_mpix_s", "throughput_mpix_s"),
            ("vcu_workers", "vcu_workers"),
            ("decoder_util", "decoder_util"),
            ("encoder_util", "encoder_util"),
            ("bitrate_vs_sw_h264", "bitrate_vs_software.h264"),
            ("bitrate_vs_sw_vp9", "bitrate_vs_software.vp9"),
            ("milestones", "milestones_shipped"),
        ),
    ),
    CatalogEntry(
        name="surge-mix",
        title="Demand disturbances — popularity surge and live mix shift",
        seed=SURGE_SEED,
        arm_fields=("scenario",),
        grid=surge_grid,
        run="repro.control.surge:run_surge_mix",
        config="repro.control.surge:SurgeMixConfig",
        columns=(
            ("submitted", "jobs.submitted"),
            ("done", "jobs.done"),
            ("jobs_in_window", "event.jobs_in_window"),
            ("live_completion", "class.live.completion_rate"),
            ("autoscale_actions", "autoscale.actions"),
            ("failover_routed", "failover.routed"),
            ("conservation_ok", "conservation.ok"),
        ),
    ),
)


def resolve(path: str) -> Any:
    """The attribute a ``"module:attribute"`` string names, imported now."""
    module, _, attribute = path.partition(":")
    return getattr(importlib.import_module(module), attribute)


def catalog_names() -> Tuple[str, ...]:
    """Every catalog experiment name, in declaration order."""
    return tuple(entry.name for entry in CATALOG)


def catalog_entry(name: str) -> CatalogEntry:
    """One catalog experiment's entry, by name."""
    for entry in CATALOG:
        if entry.name == name:
            return entry
    known = ", ".join(catalog_names())
    raise KeyError(f"unknown catalog experiment {name!r}; known: {known}")
