"""The scenario catalog as registered experiments: the CI contract.

Locks everything the ``scenario-smoke`` CI job relies on: all six
catalog experiments are registered from their
:mod:`repro.control.catalog` entries (title, seed, schema and grids, with
every module an entry names in the experiment's fingerprint sources),
every smoke scorecard carries exactly its golden key set from
``tests/golden/scorecard_keys.json`` (drift in a key set is a
deliberate, reviewed change -- update the golden *and* bump the
scenario's ``SCORECARD_VERSION``), and the smoke manifest is
byte-identical at ``--jobs 1`` and ``--jobs 3``.
"""

from __future__ import annotations

import functools

import pytest

from repro.analysis.project import load_project
from repro.control import catalog
from repro.runner import default_registry
from repro.runner.cache import closure_roots, repo_root, source_hashes
from repro.runner.executor import run_experiments
from repro.runner.manifest import build_manifest, manifest_text
from tests.conftest import golden_scorecard_keys

#: Per-scenario golden key sets: the CI gate's ground truth.  A mismatch
#: means a scorecard changed shape without a version bump -- exactly the
#: drift the catalog exists to catch.
GOLDEN_KEYS = golden_scorecard_keys()


class TestRegistration:
    def test_catalog_group_lists_exactly_the_four(self):
        # Named when the catalog held four scenarios; platform-day and
        # live-ladder have joined it.  The experiments whose unit is
        # bound to a catalog entry are exactly catalog_names().
        registry = default_registry()
        bound = {
            name: registry.get(name).fn.args[0]
            for name in registry.names()
            if isinstance(registry.get(name).fn, functools.partial)
        }
        assert sorted(bound) == sorted(catalog.catalog_names())
        assert all(entry.name == name for name, entry in bound.items())

    def test_seeds_and_sources_match_catalog_entries(self):
        registry = default_registry()
        project, _ = load_project(repo_root())
        for entry in catalog.CATALOG:
            experiment = registry.get(entry.name)
            assert experiment.title == entry.title
            assert experiment.seed == entry.seed
            assert experiment.schema.version == 1
            assert experiment.schema.fields == entry.arm_fields + ("scorecard",)
            assert list(experiment.grid) == entry.grid(False)
            assert list(experiment.smoke_grid) == entry.grid(True)
            # The fingerprint's sources hold the code that builds the
            # unit (registry, unit function, catalog) and every module
            # the entry's "module:attribute" strings name.
            sources = source_hashes(project, closure_roots(experiment))
            named = {
                "src/" + path.partition(":")[0].replace(".", "/") + ".py"
                for path in (entry.run, entry.config) if path
            }
            assert named | {
                "src/repro/runner/experiments.py",
                "src/repro/runner/registry.py",
                "src/repro/control/catalog.py",
            } <= set(sources), entry.name

    def test_grids_come_from_the_catalog(self):
        registry = default_registry()
        for name, grid_fn in (
            ("platform-day", catalog.platform_day_grid),
            ("live-ladder", catalog.live_ladder_grid),
            ("canary-rollout", catalog.canary_grid),
            ("chaos-campaign", catalog.chaos_grid),
            ("tuning-timeline", catalog.timeline_grid),
            ("surge-mix", catalog.surge_grid),
        ):
            experiment = registry.get(name)
            assert list(experiment.grid) == grid_fn()
            assert list(experiment.smoke_grid) == grid_fn(smoke=True)

    def test_smoke_grids_are_cheaper(self):
        registry = default_registry()
        for name in catalog.catalog_names():
            experiment = registry.get(name)
            assert len(experiment.smoke_grid) <= len(experiment.grid)


class TestGoldenScorecardKeys:
    def test_golden_covers_every_catalog_entry(self):
        assert set(GOLDEN_KEYS) == set(catalog.catalog_names())


class TestSmokeRuns:
    @pytest.fixture(scope="class")
    def smoke_runs(self):
        result = run_experiments(
            default_registry(),
            names=list(catalog.catalog_names()),
            smoke=True,
            jobs=1,
        )
        return result.runs

    def test_every_scorecard_matches_its_golden_keys(self, smoke_runs):
        for run in smoke_runs:
            for result in run.results:
                card = result["scorecard"]
                assert tuple(sorted(card)) == GOLDEN_KEYS[run.experiment.name]

    def test_summary_rows_are_the_arms_then_the_entry_columns(self, smoke_runs):
        for run in smoke_runs:
            entry = catalog.catalog_entry(run.experiment.name)
            columns = list(entry.arm_fields) + [c for c, _ in entry.columns]
            rows = run.summary_rows()
            assert len(rows) == len(run.results)
            assert all(list(row) == columns for row in rows)
            arms = [tuple(row[f] for f in entry.arm_fields) for row in rows]
            assert arms == sorted(arms)

    def test_canary_smoke_catches_the_regression(self, smoke_runs):
        by_candidate = {
            result["candidate"]: result["scorecard"]
            for run in smoke_runs if run.experiment.name == "canary-rollout"
            for result in run.results
        }
        assert by_candidate["fw-1.1.0-rc1"]["rollout.rolled_back"] is True
        assert by_candidate["fw-1.1.0-rc2"]["rollout.promoted"] is True
        for card in by_candidate.values():
            assert card["conservation.ok"] is True

    def test_chaos_smoke_conserves_jobs(self, smoke_runs):
        for run in smoke_runs:
            if run.experiment.name != "chaos-campaign":
                continue
            for result in run.results:
                assert result["scorecard"]["conservation.ok"] is True
                assert result["scorecard"]["availability.exact"] is True

    def test_timeline_smoke_months_are_longitudinal(self, smoke_runs):
        months = [
            result["month"]
            for run in smoke_runs if run.experiment.name == "tuning-timeline"
            for result in run.results
        ]
        assert months == list(catalog.TIMELINE_SMOKE_MONTHS)

    def test_manifest_byte_identical_across_jobs(self, smoke_runs):
        serial = manifest_text(build_manifest(smoke_runs))
        sharded = run_experiments(
            default_registry(),
            names=list(catalog.catalog_names()),
            smoke=True,
            jobs=3,
        )
        assert manifest_text(build_manifest(sharded.runs)) == serial
