"""Sharded experiment executor: process fan-out with cached results.

Execution model:

1. Load the project import graph once, expand every selected
   experiment's grid into ordered units and compute each unit's
   content-addressed fingerprint (cheap hashing, in the parent).
2. Resolve cache hits; only misses become work.
3. Deal missed units round-robin into ``jobs`` shards and run the
   shards in worker processes (``--jobs 1`` runs inline -- no pool).
4. Re-assemble results **by unit identity** (experiment name + grid
   index), validate schemas, write cache entries, and roll per-shard
   metrics into the installed :mod:`repro.obs` hub.

Determinism: a unit's RNG is derived from (experiment name, unit index,
experiment seed) inside :class:`~repro.runner.registry.UnitContext` --
shard membership and worker identity never touch the stream -- and
results are ordered by grid position, never completion order.  Hence
``jobs=1`` and ``jobs=N`` produce byte-identical manifests.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from pathlib import Path

from repro import obs
from repro.analysis.project import load_project
from repro.runner.cache import (
    ResultCache,
    closure_roots,
    repo_root,
    source_hashes,
    unit_fingerprint,
)
from repro.runner.registry import Experiment, ExperimentRegistry, UnitContext


@dataclass
class ExperimentRun:
    """One experiment's ordered unit results plus their fingerprints."""

    experiment: Experiment
    units: List[UnitContext]
    fingerprints: List[str]
    results: List[Dict[str, Any]]

    def summary_rows(self) -> List[Dict[str, Any]]:
        return self.experiment.summary_rows(self.results)


@dataclass
class RunStats:
    """Operational accounting (deliberately *not* part of the manifest)."""

    experiments: int = 0
    units: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_errors: int = 0
    shards: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0
    shard_seconds: List[float] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.units if self.units else 0.0


@dataclass
class RunResult:
    runs: List[ExperimentRun]
    stats: RunStats


# --------------------------------------------------------------------- #
# Shard worker (module-level so it pickles by reference)

#: One unit of shard work: (experiment, unit) pairs.
_ShardPayload = Tuple[int, List[Tuple[Experiment, UnitContext]]]


def _run_shard(
    payload: _ShardPayload,
) -> Tuple[int, List[Tuple[str, int, Dict[str, Any]]], float]:
    """Run one shard's units sequentially; returns tagged results.

    Results are tagged with (experiment name, unit index) so the parent
    can re-assemble them in grid order no matter which shard or process
    computed them.
    """
    shard_index, work = payload
    t0 = time.perf_counter()  # lint: allow=determinism -- shard wall-clock metric
    out: List[Tuple[str, int, Dict[str, Any]]] = []
    for experiment, unit in work:
        out.append((experiment.name, unit.index, experiment.run_unit(unit)))
    seconds = time.perf_counter() - t0  # lint: allow=determinism -- shard wall-clock metric
    return shard_index, out, seconds


def _deal_shards(
    work: Sequence[Tuple[Experiment, UnitContext]], jobs: int
) -> List[_ShardPayload]:
    """Round-robin units into at most ``jobs`` non-empty shards."""
    count = max(1, min(jobs, len(work)))
    shards: List[List[Tuple[Experiment, UnitContext]]] = [[] for _ in range(count)]
    for i, item in enumerate(work):
        shards[i % count].append(item)
    return [(i, shard) for i, shard in enumerate(shards) if shard]


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork when available (inherits locally-registered experiments);
    spawn elsewhere (default-registry experiments only)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# --------------------------------------------------------------------- #
# The run driver


def run_experiments(
    registry: ExperimentRegistry,
    names: Sequence[str] = (),
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    root: Optional[str] = None,
    smoke: bool = False,
) -> RunResult:
    """Run experiments from ``registry``, fanned out over ``jobs`` workers.

    Source fingerprints are always computed (against ``root``, default
    the checkout this module lives in) so manifests are byte-identical
    with or without a ``cache``; the cache only changes *when* a unit is
    recomputed, never what its fingerprint or result is.  Per-shard
    wall-clock and cache accounting land in :class:`RunStats` and are
    mirrored into the installed obs hub; the returned results carry no
    timing, so manifests stay byte-identical across ``jobs`` settings.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    t_start = time.perf_counter()  # lint: allow=determinism -- run wall-clock metric
    experiments = registry.select(names)
    project, _ = load_project(Path(root) if root is not None else repo_root())
    runs: List[ExperimentRun] = []
    stats = RunStats(experiments=len(experiments), jobs=jobs)

    pending: List[Tuple[Experiment, UnitContext]] = []
    slots: Dict[Tuple[str, int], ExperimentRun] = {}
    for experiment in experiments:
        units = experiment.units(smoke=smoke)
        hashes = source_hashes(project, closure_roots(experiment))
        run = ExperimentRun(
            experiment=experiment,
            units=units,
            fingerprints=[unit_fingerprint(experiment, u, hashes) for u in units],
            results=[{} for _ in units],
        )
        runs.append(run)
        stats.units += len(units)
        for unit, fingerprint in zip(units, run.fingerprints):
            cached = (
                cache.get(experiment.name, fingerprint)
                if cache is not None else None
            )
            if cached is not None:
                experiment.schema.validate(experiment.name, cached)
                run.results[unit.index] = dict(cached)
            else:
                pending.append((experiment, unit))
                slots[(experiment.name, unit.index)] = run

    shards = _deal_shards(pending, jobs)
    stats.shards = len(shards)
    if len(shards) <= 1 or jobs == 1:
        shard_outputs = [_run_shard(payload) for payload in shards]
    else:
        with ProcessPoolExecutor(
            max_workers=len(shards), mp_context=_pool_context()
        ) as pool:
            shard_outputs = list(pool.map(_run_shard, shards))

    for shard_index, tagged, seconds in sorted(shard_outputs):
        stats.shard_seconds.append(seconds)
        for exp_name, unit_index, result in tagged:
            run = slots[(exp_name, unit_index)]
            run.results[unit_index] = result
            if cache is not None:
                cache.put(
                    exp_name,
                    run.fingerprints[unit_index],
                    run.units[unit_index],
                    result,
                )

    if cache is not None:
        stats.cache_hits = cache.hits
        stats.cache_misses = cache.misses
        stats.cache_errors = cache.errors
    stats.wall_seconds = time.perf_counter() - t_start  # lint: allow=determinism -- run wall-clock metric
    _roll_into_obs(stats)
    return RunResult(runs=runs, stats=stats)


def stats_registry(stats: RunStats) -> "obs.MetricsRegistry":
    """One run's accounting as a standalone metrics registry."""
    registry = obs.MetricsRegistry()
    registry.counter("runner.experiments").inc(stats.experiments)
    registry.counter("runner.units").inc(stats.units)
    registry.counter("runner.cache.hits").inc(stats.cache_hits)
    registry.counter("runner.cache.misses").inc(stats.cache_misses)
    registry.counter("runner.cache.errors").inc(stats.cache_errors)
    registry.counter("runner.shards").inc(stats.shards)
    for seconds in stats.shard_seconds:
        registry.histogram("runner.shard_seconds").observe(seconds)
    registry.gauge("runner.jobs").set(stats.jobs)
    return registry


def _roll_into_obs(stats: RunStats) -> None:
    """Mirror run accounting into the installed obs hub (if any)."""
    hub = obs.active()
    if hub is None:
        return
    hub.metrics.merge(stats_registry(stats))
