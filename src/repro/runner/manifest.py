"""Manifest and report layer for runner results.

The manifest is the machine-readable record of one full experiment
sweep (:data:`DEFAULT_MANIFEST_NAME`, ``BENCH_PR10.json``): per
experiment, the declared grid, each unit's content-address fingerprint,
its result, and the summary rows the markdown report renders.  It
deliberately contains **no wall-clock, job count, or cache accounting**
-- those live in :class:`~repro.runner.executor.RunStats` -- so two runs
of unchanged code produce byte-identical manifests regardless of
``--jobs`` or cache temperature.  JSON is canonical (sorted keys, fixed separators).

The markdown rendering matches EXPERIMENTS.md's paper-vs-measured table
format: each experiment's ``summarize`` hook emits ordered row dicts
whose keys become columns.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.runner.cache import canonical_json
from repro.runner.registry import RUNNER_SCHEMA_VERSION

#: The committed manifest's filename, and ``repro-bench run``'s default
#: ``--out``.
DEFAULT_MANIFEST_NAME = "BENCH_PR10.json"


def build_manifest(runs: Sequence[Any]) -> Dict[str, Any]:
    """A deterministic manifest dict from :class:`ExperimentRun` objects."""
    experiments: Dict[str, Any] = {}
    for run in runs:
        experiment = run.experiment
        experiments[experiment.name] = {
            "title": experiment.title,
            "seed": experiment.seed,
            "schema": {
                "version": experiment.schema.version,
                "fields": list(experiment.schema.fields),
            },
            "units": [
                {
                    "index": unit.index,
                    "params": dict(unit.params),
                    "fingerprint": fingerprint,
                    "result": result,
                }
                for unit, fingerprint, result in zip(
                    run.units, run.fingerprints, run.results
                )
            ],
            "summary": run.summary_rows(),
        }
    return {
        "benchmark": "PR5 experiment runner",
        "manifest_version": RUNNER_SCHEMA_VERSION,
        "experiments": experiments,
    }


def manifest_text(manifest: Dict[str, Any]) -> str:
    """The manifest's canonical serialized form (what lands on disk)."""
    return canonical_json(manifest)


def write_manifest(path: str, manifest: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(manifest_text(manifest))


# --------------------------------------------------------------------- #
# Markdown rendering


def _cell(value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _rows_table(rows: List[Dict[str, Any]]) -> List[str]:
    if not rows:
        return ["(no rows)"]
    columns: List[str] = []
    for row in rows:  # first-seen order; summarize hooks emit stable keys
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(_cell(row.get(name)) for name in columns) + " |"
        )
    return lines


def render_markdown(manifest: Dict[str, Any]) -> str:
    """EXPERIMENTS.md-style paper-vs-measured tables, one per experiment."""
    lines: List[str] = []
    for name in sorted(manifest["experiments"]):
        entry = manifest["experiments"][name]
        lines.append(f"## {entry['title']}")
        lines.append(f"`{name}` — {len(entry['units'])} unit(s), "
                     f"seed {entry['seed']}, schema v{entry['schema']['version']}")
        lines.append("")
        lines.extend(_rows_table(entry["summary"]))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_stats(stats: Any) -> str:
    """Human one-liner block for the operational (non-manifest) numbers."""
    lines = [
        f"experiments {stats.experiments}, units {stats.units}, "
        f"shards {stats.shards} (jobs {stats.jobs})",
        f"cache: {stats.cache_hits} hit(s), {stats.cache_misses} miss(es), "
        f"{stats.cache_errors} corrupt entr(ies), "
        f"hit rate {stats.hit_rate:.0%}",
        f"wall time {stats.wall_seconds:.2f}s"
        + (
            "; shard seconds: "
            + ", ".join(f"{s:.2f}" for s in stats.shard_seconds)
            if stats.shard_seconds else ""
        ),
    ]
    return "\n".join(lines)
