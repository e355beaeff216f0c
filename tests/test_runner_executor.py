"""Executor determinism suite: serial-vs-sharded byte-identity, cache
lifecycle (hit / miss / source-edit invalidation / corruption recovery),
and the obs roll-in.

Each experiment's unit callable lives in its own module of a throwaway
source tree, so the module defining it roots the experiment's
fingerprint closure; the modules are loaded into ``sys.modules`` so
shard workers can pickle the callables by reference.  The experiments
themselves are registered in a throwaway registry per test.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys

import pytest

from repro import obs
from repro.runner.cache import ResultCache
from repro.runner.executor import _deal_shards, run_experiments
from repro.runner.manifest import build_manifest, manifest_text
from repro.runner.registry import Experiment, ExperimentRegistry, ResultSchema

SCHEMA = ResultSchema(version=1, fields=("x", "draw"))

#: Two independent single-file modules, one unit callable each.  Every
#: unit is deterministic by identity: params plus one private RNG draw.
MODULES = {
    "dep_a": (
        "VALUE = 1\n\n\n"
        "def unit(ctx):\n"
        "    return {'x': ctx.params['x'],\n"
        "            'draw': round(float(ctx.rng.random()), 12)}\n"
    ),
    "dep_b": (
        "VALUE = 2\n\n\n"
        "def unit(ctx):\n"
        "    return {'x': ctx.params['x'] ** 2,\n"
        "            'draw': round(float(ctx.rng.random()), 12)}\n"
    ),
}


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """The source tree under ``tmp_path/src``, its modules imported."""
    src = tmp_path / "src"
    src.mkdir()
    for name, source in MODULES.items():
        path = src / f"{name}.py"
        path.write_text(source)
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setitem(sys.modules, name, module)
    return tmp_path


def make_registry():
    registry = ExperimentRegistry()
    registry.add(Experiment(
        name="alpha", title="Alpha", fn=importlib.import_module("dep_a").unit,
        grid=tuple({"x": i} for i in range(5)), seed=3, schema=SCHEMA,
    ))
    registry.add(Experiment(
        name="beta", title="Beta", fn=importlib.import_module("dep_b").unit,
        grid=tuple({"x": i} for i in range(4)), seed=9, schema=SCHEMA,
    ))
    return registry


def run_manifest(registry, root, **kwargs):
    result = run_experiments(registry, root=str(root), **kwargs)
    return manifest_text(build_manifest(result.runs)), result


class TestDeterminism:
    def test_serial_and_sharded_manifests_byte_identical(self, tree):
        registry = make_registry()
        serial, _ = run_manifest(registry, tree, jobs=1)
        for jobs in (3, 4):
            sharded, result = run_manifest(registry, tree, jobs=jobs)
            assert sharded == serial, f"jobs={jobs} diverged from jobs=1"
            assert result.stats.shards > 1

    def test_results_land_in_grid_order(self, tree):
        result = run_experiments(make_registry(), root=str(tree), jobs=3)
        by_name = {run.experiment.name: run for run in result.runs}
        assert [r["x"] for r in by_name["alpha"].results] == [0, 1, 2, 3, 4]
        assert [r["x"] for r in by_name["beta"].results] == [0, 1, 4, 9]

    def test_cache_temperature_never_changes_the_manifest(self, tree):
        registry = make_registry()
        cache = ResultCache(tree / "cache")
        cold, _ = run_manifest(registry, tree, jobs=2, cache=cache)
        warm, _ = run_manifest(registry, tree, jobs=2, cache=cache)
        uncached, _ = run_manifest(registry, tree, jobs=1)
        assert cold == warm == uncached

    def test_jobs_must_be_positive(self, tree):
        with pytest.raises(ValueError, match="jobs"):
            run_experiments(make_registry(), root=str(tree), jobs=0)


class TestCacheLifecycle:
    def test_second_run_is_all_hits(self, tree):
        registry = make_registry()
        cache = ResultCache(tree / "cache")
        _, first = run_manifest(registry, tree, cache=cache)
        assert first.stats.cache_hits == 0
        assert first.stats.cache_misses == first.stats.units == 9

        cache2 = ResultCache(tree / "cache")
        _, second = run_manifest(registry, tree, cache=cache2)
        assert second.stats.cache_hits == 9
        assert second.stats.cache_misses == 0
        assert second.stats.hit_rate == 1.0
        assert second.stats.shards == 0  # nothing left to execute

    def test_source_edit_invalidates_only_dependents(self, tree):
        registry = make_registry()
        cache_dir = tree / "cache"
        run_manifest(registry, tree, cache=ResultCache(cache_dir))

        # alpha depends on dep_a only; beta on dep_b only.
        dep_a = tree / "src" / "dep_a.py"
        dep_a.write_text(dep_a.read_text().replace("VALUE = 1", "VALUE = 100"))
        cache = ResultCache(cache_dir)
        _, result = run_manifest(registry, tree, cache=cache)
        assert result.stats.cache_misses == 5   # alpha recomputed
        assert result.stats.cache_hits == 4     # beta untouched

    def test_corrupted_entry_recovers_by_recompute(self, tree):
        registry = make_registry()
        cache_dir = tree / "cache"
        _, first = run_manifest(registry, tree, cache=ResultCache(cache_dir))

        victim = sorted((cache_dir / "alpha").glob("*.json"))[0]
        victim.write_text("{truncated")
        _, second = run_manifest(registry, tree, cache=ResultCache(cache_dir))
        assert second.stats.cache_errors == 1
        assert second.stats.cache_hits == 8
        assert second.stats.cache_misses == 1

        # The entry was rewritten: a third run is clean again.
        _, third = run_manifest(registry, tree, cache=ResultCache(cache_dir))
        assert third.stats.cache_hits == 9 and third.stats.cache_errors == 0


class TestSharding:
    def test_deal_shards_partitions_round_robin(self):
        work = [(f"e{i}", i) for i in range(7)]
        shards = _deal_shards(work, 3)
        assert [index for index, _ in shards] == [0, 1, 2]
        dealt = [item for _, shard in shards for item in shard]
        assert sorted(dealt) == sorted(work)
        sizes = [len(shard) for _, shard in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_never_more_shards_than_work_or_jobs(self):
        work = [("e", 0), ("e", 1)]
        assert len(_deal_shards(work, 8)) == 2
        assert len(_deal_shards(work, 1)) == 1
        assert _deal_shards([], 4) == []


class TestObsRollIn:
    def test_run_accounting_lands_in_installed_hub(self, tree):
        registry = make_registry()
        with obs.installed() as hub:
            result = run_experiments(
                registry, root=str(tree), jobs=2,
                cache=ResultCache(tree / "cache"),
            )
            snap = hub.metrics.snapshot()
        assert snap["runner.experiments"] == 2.0
        assert snap["runner.units"] == 9.0
        assert snap["runner.cache.misses"] == 9.0
        assert snap["runner.shards"] == float(result.stats.shards)
        assert snap["runner.jobs"] == 2.0
        assert snap["runner.shard_seconds.count"] == float(result.stats.shards)

    def test_no_hub_no_crash(self, tree):
        assert obs.active() is None
        run_experiments(make_registry(), root=str(tree))
