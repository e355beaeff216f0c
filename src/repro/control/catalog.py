"""The scenario catalog: every deployment-narrative claim as an experiment.

The paper's Section 5 story -- canary firmware rollouts, correlated
outages under capped repair, sixteen months of post-launch tuning, and
demand-mix disturbances -- lives here as one declarative catalog.  Each
entry names a registered runner experiment (grids, seeds, schema
fields, source modules) so ``repro-bench run`` and CI consume the same
single source of truth, and :func:`scorecard_keys` dispatches to the
right scenario module's static key set for the smoke-gate diffs.

This module is deliberately import-light (the registry contract: a
cache-hot ``repro-bench run`` never touches the cluster simulator); the
heavy scenario modules are imported lazily inside the unit runners and
the key dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

#: Bump when any catalog entry's grid/seed/schema contract changes.
CATALOG_VERSION = 1

# --------------------------------------------------------------------- #
# Figure 9 replay settings: the single source of truth shared by
# runner/experiments.py, benchmarks/test_fig9_scaling.py, and the
# tuning-timeline experiment below (they used to duplicate these under
# "must match" comments).

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
# Correlated-outage chaos campaign (sampled telemetry, capped repair).

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

_TIMELINE_FIELDS: Tuple[str, ...] = (
    "schema_version",
    "month",
    "throughput_mpix_s",
    "total_megapixels",
    "decoder_util",
    "encoder_util",
    "vcu_workers",
    "rc_efficiency.h264",
    "rc_efficiency.vp9",
    "bitrate_vs_software.h264",
    "bitrate_vs_software.vp9",
    "milestones_shipped",
)


def timeline_scorecard_keys() -> Tuple[str, ...]:
    """The exact, sorted key set every timeline scorecard carries."""
    return tuple(sorted(_TIMELINE_FIELDS))


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
    if tuple(sorted(card)) != timeline_scorecard_keys():
        raise RuntimeError("scorecard keys drifted from timeline_scorecard_keys()")
    return dict(sorted(card.items()))


# --------------------------------------------------------------------- #
# The catalog itself.


@dataclass(frozen=True)
class CatalogEntry:
    """One registered scenario experiment's declarative contract."""

    name: str
    title: str
    seed: int
    #: The unit-result keys beyond "scorecard" (the arm parameters).
    arm_fields: Tuple[str, ...]
    #: Dotted modules fingerprinting the experiment's code for the cache.
    sources: Tuple[str, ...]


CATALOG: Tuple[CatalogEntry, ...] = (
    CatalogEntry(
        name="canary-rollout",
        title="Firmware canary rollout — regression detection and rollback",
        seed=CANARY_SEED,
        arm_fields=("candidate",),
        sources=("repro.control.canary",),
    ),
    CatalogEntry(
        name="chaos-campaign",
        title="Correlated-outage chaos campaign — blast radius × repair capacity",
        seed=CHAOS_SEED,
        arm_fields=("blast_hosts", "repair_cap"),
        sources=("repro.control.chaos",),
    ),
    CatalogEntry(
        name="tuning-timeline",
        title="Figures 9/10 — 16-month launch-and-iterate tuning timeline",
        seed=TIMELINE_SEED,
        arm_fields=("month",),
        sources=("repro.control.catalog",),
    ),
    CatalogEntry(
        name="surge-mix",
        title="Demand disturbances — popularity surge and live mix shift",
        seed=SURGE_SEED,
        arm_fields=("scenario",),
        sources=("repro.control.surge",),
    ),
)

#: The registry group every catalog experiment is registered under.
CATALOG_GROUP = "catalog"


def catalog_names() -> Tuple[str, ...]:
    """Every catalog experiment name, in declaration order."""
    return tuple(entry.name for entry in CATALOG)


def scorecard_keys(name: str) -> Tuple[str, ...]:
    """The static scorecard key set for one catalog experiment.

    Lazy dispatch: resolving a key set must not import the heavy
    scenario modules until a gate actually asks for it.
    """
    if name == "canary-rollout":
        from repro.control.canary import scorecard_keys as keys

        return keys()
    if name == "chaos-campaign":
        from repro.control.chaos import scorecard_keys as keys

        return keys()
    if name == "tuning-timeline":
        return timeline_scorecard_keys()
    if name == "surge-mix":
        from repro.control.surge import scorecard_keys as keys

        return keys()
    known = ", ".join(catalog_names())
    raise KeyError(f"unknown catalog experiment {name!r}; known: {known}")
