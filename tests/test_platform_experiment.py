"""The platform-day experiment as registered in the default registry.

Locks the contract the CI scenario-smoke job relies on: the experiment
exists with both arms, its smoke manifest is byte-identical at any
``--jobs`` (the runner's determinism guarantee), and every run's
scorecard carries exactly its golden key set.
"""

from __future__ import annotations

import pytest

from repro.runner.executor import run_experiments
from repro.runner.manifest import build_manifest, manifest_text
from repro.runner import default_registry
from tests.conftest import golden_scorecard_keys

NAME = "platform-day"


class TestRegistration:
    def test_registered_with_both_arms(self):
        experiment = default_registry().get(NAME)
        outages = [params["outage"] for params in experiment.grid]
        assert sorted(outages) == [False, True]
        assert len(experiment.smoke_grid) == 2
        assert experiment.schema.fields == ("outage", "scorecard")

    def test_smoke_arm_is_shorter(self):
        experiment = default_registry().get(NAME)
        full = {p["day_seconds"] for p in experiment.grid}
        smoke = {p["day_seconds"] for p in experiment.smoke_grid}
        assert max(smoke) < min(full)


class TestSmokeRun:
    @pytest.fixture(scope="class")
    def smoke_runs(self):
        result = run_experiments(
            default_registry(), names=[NAME], smoke=True, jobs=1
        )
        return result.runs

    def test_scorecard_keys_are_exact(self, smoke_runs):
        assert len(smoke_runs) == 1 and len(smoke_runs[0].results) == 2
        for result in smoke_runs[0].results:
            card = result["scorecard"]
            assert tuple(sorted(card)) == golden_scorecard_keys()[NAME]
            assert card["conservation.ok"] is True

    def test_outage_arm_fails_over_and_sheds_in_order(self, smoke_runs):
        by_outage = {
            result["outage"]: result["scorecard"]
            for run in smoke_runs for result in run.results
        }
        outage, control = by_outage[True], by_outage[False]
        assert outage["failover.routed"] > 0
        assert outage["class.batch.shed"] > 0
        assert outage["class.live.shed"] == 0
        assert control["failover.routed"] == 0
        assert control["jobs.shed"] == 0

    def test_manifest_byte_identical_across_jobs(self, smoke_runs):
        serial = manifest_text(build_manifest(smoke_runs))
        sharded = run_experiments(
            default_registry(), names=[NAME], smoke=True, jobs=2
        )
        assert manifest_text(build_manifest(sharded.runs)) == serial
