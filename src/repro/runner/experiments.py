"""The default experiment registry: the paper's evaluation as data.

Each registration wraps logic the ``benchmarks/`` modules previously
re-implemented inline; the benches now assert over these results.  Grid
parameters carry everything that shapes a unit's output (frame counts,
proxy heights, seeds, horizons) so the content-addressed cache key
captures the full spec, and paper reference values ride along in the
summaries so the manifest renders EXPERIMENTS.md-style
paper-vs-measured tables.

Heavy imports happen inside the unit callables: importing this module
costs only the registry bookkeeping, and a cache-hot ``repro-bench
run`` never touches the codec or the cluster simulator.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, List, Sequence

from repro.control import catalog
from repro.runner.registry import (
    Experiment,
    ExperimentRegistry,
    ResultSchema,
    UnitContext,
)

_DEFAULT = ExperimentRegistry()

#: Figure 7 sweep settings -- the benchmarks' economical single-core
#: configuration; EXPERIMENTS.md bands were validated at these.
FIG7_FRAMES = 6
FIG7_PROXY_HEIGHT = 60
FIG7_SEED = 2


def default_registry() -> ExperimentRegistry:
    """The process-wide registry of paper experiments."""
    return _DEFAULT


# --------------------------------------------------------------------- #
# Table 1 -- offline two-pass SOT throughput & perf/TCO

_TABLE1_PAPER = {
    ("Skylake", "h264"): (714.0, 1.0),
    ("Skylake", "vp9"): (154.0, 1.0),
    ("4xNvidia T4", "h264"): (2484.0, 1.5),
    ("8xVCU", "h264"): (5973.0, 4.4),
    ("8xVCU", "vp9"): (6122.0, 20.8),
    ("20xVCU", "h264"): (14932.0, 7.0),
    ("20xVCU", "vp9"): (15306.0, 33.3),
}

_TABLE1_GRID = [
    {"system": system, "codec": codec}
    for system in ("Skylake", "4xNvidia T4", "8xVCU", "20xVCU")
    for codec in ("h264", "vp9")
    if not (system == "4xNvidia T4" and codec == "vp9")  # T4 lacks VP9
]


@_DEFAULT.experiment(
    name="table1-throughput",
    title="Table 1 — offline two-pass SOT throughput & perf/TCO",
    grid=_TABLE1_GRID,
    seed=0,
    schema=ResultSchema(version=1, fields=(
        "system", "codec", "mpix_s", "perf_tco",
        "paper_mpix_s", "paper_perf_tco",
    )),
)
def table1_unit(ctx: UnitContext) -> Dict[str, Any]:
    from repro.baselines import GpuSystem, SkylakeSystem
    from repro.tco import (
        SKYLAKE_COST,
        T4_SYSTEM_COST,
        VCU_SYSTEM_8,
        VCU_SYSTEM_20,
        perf_per_tco,
    )
    from repro.vcu.spec import DEFAULT_VCU_SPEC
    from repro.vcu.throughput import vbench_sot_system_throughput

    system, codec = ctx.params["system"], ctx.params["codec"]
    cpu = SkylakeSystem()
    if system == "Skylake":
        throughput = cpu.machine_throughput(codec)
        cost = SKYLAKE_COST
    elif system == "4xNvidia T4":
        throughput = GpuSystem().machine_throughput(codec)
        cost = T4_SYSTEM_COST
    else:
        count = 8 if system == "8xVCU" else 20
        cost = VCU_SYSTEM_8 if count == 8 else VCU_SYSTEM_20
        throughput = vbench_sot_system_throughput(DEFAULT_VCU_SPEC, codec, count)
    tco = perf_per_tco(throughput, cost, cpu.machine_throughput(codec))
    paper = _TABLE1_PAPER[(system, codec)]
    return {
        "system": system,
        "codec": codec,
        "mpix_s": round(float(throughput), 3),
        "perf_tco": round(float(tco), 4),
        "paper_mpix_s": paper[0],
        "paper_perf_tco": paper[1],
    }


# --------------------------------------------------------------------- #
# Figure 7 -- RD curves + BD-rates on the vbench suite

_FIG7_COMPARISONS = {
    "vcu_vp9_vs_libx264": ("libx264", "vcu-vp9", -30.0),
    "vcu_h264_vs_libx264": ("libx264", "vcu-h264", 11.5),
    "vcu_vp9_vs_libvpx": ("libvpx", "vcu-vp9", 18.0),
    "libvpx_vs_libx264": ("libx264", "libvpx", -41.0),
}


def _fig7_grid() -> List[Dict[str, Any]]:
    # Title names are stable data (the vbench suite); spelling them out
    # here keeps grid expansion numpy-free for cache-hot runs.
    titles = [
        "presentation", "desktop", "bike", "funny", "house", "cricket",
        "girl", "game_1", "chicken", "hall", "game_2", "cat", "landscape",
        "game_3", "holi",
    ]
    return [
        {
            "title": title,
            "frames": FIG7_FRAMES,
            "proxy_height": FIG7_PROXY_HEIGHT,
            "encode_seed": FIG7_SEED,
        }
        for title in titles
    ]


def _fig7_summarize(results: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for name in sorted(_FIG7_COMPARISONS):
        paper = _FIG7_COMPARISONS[name][2]
        values = [r["bd_rates"][name] for r in results if name in r["bd_rates"]]
        mean = sum(values) / len(values) if values else float("nan")
        rows.append({
            "comparison": name,
            "bd_rate_pct": round(mean, 2),
            "paper_bd_rate_pct": paper,
            "titles": len(values),
        })
    return rows


@_DEFAULT.experiment(
    name="fig7-bd-rates",
    title="Figure 7 — RD curves & BD-rates on vbench",
    grid=_fig7_grid(),
    smoke_grid=_fig7_grid()[:3],
    seed=FIG7_SEED,
    schema=ResultSchema(version=1, fields=("title", "curves", "bd_rates")),
    summarize=_fig7_summarize,
)
def fig7_unit(ctx: UnitContext) -> Dict[str, Any]:
    from repro.codec.profiles import ALL_PROFILES
    from repro.harness.rd import rd_curve
    from repro.metrics.quality import bd_rate
    from repro.video.vbench import vbench_video

    title = vbench_video(ctx.params["title"])
    curves = {
        profile.name: rd_curve(
            profile,
            title,
            frame_count=ctx.params["frames"],
            proxy_height=ctx.params["proxy_height"],
            seed=ctx.params["encode_seed"],
        )
        for profile in ALL_PROFILES
    }
    bd_rates = {}
    for name in sorted(_FIG7_COMPARISONS):
        ref, test, _ = _FIG7_COMPARISONS[name]
        if ref in curves and test in curves:
            bd_rates[name] = round(float(bd_rate(curves[ref], curves[test])), 4)
    return {
        "title": title.name,
        "curves": {
            profile: [
                [round(float(p.bitrate), 2), round(float(p.psnr), 4)]
                for p in points
            ]
            for profile, points in sorted(curves.items())
        },
        "bd_rates": bd_rates,
    }


# --------------------------------------------------------------------- #
# Table 2 -- host resources at 153 Gpixel/s

_TABLE2_PAPER = {
    "Transcoding overheads": (42.0, 214.0),
    "Network & RPC": (13.0, 300.0),
    "Total": (55.0, 712.0),
}


def _table2_summarize(results: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for result in results:
        for row in result["rows"]:
            paper = _TABLE2_PAPER.get(row["use"])
            rows.append({
                "use": row["use"],
                "logical_cores": row["logical_cores"],
                "paper_cores": None if paper is None else paper[0],
                "dram_gbps": row["dram_bandwidth_gbps"],
                "paper_dram_gbps": None if paper is None else paper[1],
            })
    return rows


@_DEFAULT.experiment(
    name="table2-host-resources",
    title="Table 2 — host resources at 153 Gpixel/s",
    grid=[{"gpix_s": 153.0}],
    seed=0,
    schema=ResultSchema(version=1, fields=("gpix_s", "rows")),
    summarize=_table2_summarize,
)
def table2_unit(ctx: UnitContext) -> Dict[str, Any]:
    from repro.balance import host_resource_table

    rows = host_resource_table(ctx.params["gpix_s"])
    return {
        "gpix_s": ctx.params["gpix_s"],
        "rows": [
            {
                "use": row.use,
                "logical_cores": round(float(row.logical_cores), 3),
                "dram_bandwidth_gbps": round(float(row.dram_bandwidth_gbps), 3),
            }
            for row in rows
        ],
    }


# --------------------------------------------------------------------- #
# Scenario catalog -- the Section 5 deployment narrative as experiments.
# Each repro.control.catalog entry is the experiment's only declaration;
# the loop below registers all of them with one unit function and one
# summary, each bound to its entry by functools.partial (a partial of a
# module-level function pickles into the executor's shards).


def _scenario_unit(
    entry: catalog.CatalogEntry, ctx: UnitContext
) -> Dict[str, Any]:
    params = dict(ctx.params)
    run = catalog.resolve(entry.run)
    if entry.config:
        seed = params.pop("scenario_seed")
        renames = dict(entry.renames)
        config = catalog.resolve(entry.config)(
            **{renames.get(key, key): value for key, value in params.items()}
        )
        card = run(config, seed=seed).scorecard
    else:
        card = run(**params)
    result = {field: ctx.params[field] for field in entry.arm_fields}
    result["scorecard"] = card
    return result


def _scenario_summary(
    entry: catalog.CatalogEntry, results: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for result in sorted(
        results, key=lambda r: tuple(r[field] for field in entry.arm_fields)
    ):
        card = result["scorecard"]
        row = {field: result[field] for field in entry.arm_fields}
        row.update((column, card[key]) for column, key in entry.columns)
        rows.append(row)
    return rows


for _entry in catalog.CATALOG:
    _DEFAULT.add(Experiment(
        name=_entry.name,
        title=_entry.title,
        fn=functools.partial(_scenario_unit, _entry),
        grid=tuple(_entry.grid(False)),
        smoke_grid=tuple(_entry.grid(True)),
        seed=_entry.seed,
        schema=ResultSchema(version=1, fields=_entry.arm_fields + ("scorecard",)),
        summarize=functools.partial(_scenario_summary, _entry),
        sources=_entry.sources,
    ))
