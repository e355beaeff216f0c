"""The live-ladder experiment as registered in the default registry.

Locks the contract the CI scenario-smoke job relies on: the experiment
exists with both arms (healthy and regional-outage), its smoke manifest
is byte-identical at any ``--jobs`` (the driver-level determinism
guarantee), and every run's scorecard carries exactly its golden key
set.  The ``rung.*`` keys follow the live source's ladder, so a run at
another source checks that part of the key set too.
"""

from __future__ import annotations

import pytest

from repro.control.catalog import LIVE_LADDER_SEED
from repro.control.live_ladder import LiveLadderConfig, run_live_ladder
from repro.runner.executor import run_experiments
from repro.runner.manifest import build_manifest, manifest_text
from repro.runner import default_registry
from tests.conftest import golden_scorecard_keys

NAME = "live-ladder"


class TestRegistration:
    def test_registered_with_both_arms(self):
        experiment = default_registry().get(NAME)
        outages = [params["outage"] for params in experiment.grid]
        assert sorted(outages) == [False, True]
        assert len(experiment.smoke_grid) == 2
        assert experiment.schema.fields == ("outage", "scorecard")

    def test_smoke_arm_is_shorter(self):
        experiment = default_registry().get(NAME)
        full = {p["horizon_seconds"] for p in experiment.grid}
        smoke = {p["horizon_seconds"] for p in experiment.smoke_grid}
        assert max(smoke) < min(full)

    def test_fault_pressure_is_on_in_every_arm(self):
        experiment = default_registry().get(NAME)
        for params in experiment.grid + experiment.smoke_grid:
            assert params["hang_rate"] > 0
            assert params["corruption_rate"] > 0


class TestConfigValidation:
    @pytest.mark.parametrize("rates", [
        {"hang_rate_per_hour": -1.0},
        {"corruption_rate_per_hour": -0.1},
    ])
    def test_negative_fault_rates_rejected(self, rates):
        with pytest.raises(ValueError, match="fault rates"):
            LiveLadderConfig(**rates)

    def test_outage_stagger_must_fit_the_outage(self):
        # Two hosts per region, 5 s apart: the second onset lands at
        # +5 s, and 0.15 x 30 s gives a 4.5 s outage.
        with pytest.raises(ValueError, match="stagger"):
            LiveLadderConfig(horizon_seconds=30.0, outage=True)
        LiveLadderConfig(horizon_seconds=30.0, outage=False)
        LiveLadderConfig(horizon_seconds=40.0, outage=True)


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

    def test_no_segment_is_lost_in_either_arm(self, smoke_runs):
        for result in smoke_runs[0].results:
            card = result["scorecard"]
            assert card["segments.lost"] == 0
            assert card["segments.released"] == card["segments.manifested"]
            assert card["streams.completed"] == card["streams.started"]

    def test_latency_percentiles_are_finite_and_ordered(self, smoke_runs):
        for result in smoke_runs[0].results:
            card = result["scorecard"]
            assert 0.0 < card["ttfs.p50"] <= card["ttfs.p90"] <= card["ttfs.p99"]
            assert 0.0 <= card["stall.p50"] <= card["stall.p99"]
            assert 0.0 <= card["deadline.miss_rate"] <= 1.0

    def test_outage_arm_degrades_latency_not_conservation(self, smoke_runs):
        by_outage = {
            result["outage"]: result["scorecard"]
            for run in smoke_runs for result in run.results
        }
        outage, control = by_outage[True], by_outage[False]
        # The outage hangs a region's VCUs: recovery work shows up as
        # extra retries, never as lost segments or broken ledgers.
        assert outage["cluster.hangs"] > control["cluster.hangs"]
        assert outage["cluster.retries"] > control["cluster.retries"]
        assert outage["segments.lost"] == control["segments.lost"] == 0
        assert outage["conservation.ok"] and control["conservation.ok"]

    def test_manifest_byte_identical_across_jobs(self, smoke_runs):
        serial = manifest_text(build_manifest(smoke_runs))
        sharded = run_experiments(
            default_registry(), names=[NAME], smoke=True, jobs=2
        )
        assert manifest_text(build_manifest(sharded.runs)) == serial


class TestRungKeys:
    def test_rung_keys_follow_the_live_source_ladder(self):
        config = LiveLadderConfig(horizon_seconds=60.0, live_source="720p")
        card = run_live_ladder(config, seed=LIVE_LADDER_SEED).scorecard
        rung_keys = sorted(key for key in card if key.startswith("rung."))
        assert rung_keys == sorted(
            f"rung.{rung}.{quantile}"
            for rung in config.rung_names()
            for quantile in ("queue_p50", "queue_p99")
        )
        assert "1080p" not in config.rung_names()
        # Every other key is the golden set's: only the ladder moved.
        golden = golden_scorecard_keys()[NAME]
        assert sorted(set(card) - set(rung_keys)) == [
            key for key in golden if not key.startswith("rung.")
        ]
