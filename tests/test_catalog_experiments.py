"""The scenario catalog as registered experiments: the CI contract.

Locks everything the ``scenario-smoke`` CI job relies on: all six
catalog experiments are registered from their
:mod:`repro.control.catalog` entries (title, seed, schema, grids and
sources), their scorecard key sets match per-scenario golden lists
(drift in a key set is a deliberate, reviewed change -- update the
golden *and* bump the scenario's ``SCORECARD_VERSION``), and the smoke
manifest is byte-identical at ``--jobs 1`` and ``--jobs 3``.
"""

from __future__ import annotations

import functools

import pytest

from repro.control import catalog
from repro.runner import default_registry
from repro.runner.executor import run_experiments
from repro.runner.manifest import build_manifest, manifest_text

#: Per-scenario golden key sets, spelled out: the CI gate's ground
#: truth.  A mismatch here means a scorecard changed shape without a
#: version bump -- exactly the drift the catalog exists to catch.
GOLDEN_KEYS = {
    "platform-day": (
        "autoscale.actions", "autoscale.peak_slots",
        "class.batch.completion_rate", "class.batch.done",
        "class.batch.failed", "class.batch.queue_p50",
        "class.batch.queue_p90", "class.batch.queue_p99",
        "class.batch.retries", "class.batch.shed", "class.batch.shed_rate",
        "class.batch.submitted", "class.live.completion_rate",
        "class.live.done", "class.live.failed", "class.live.queue_p50",
        "class.live.queue_p90", "class.live.queue_p99",
        "class.live.retries", "class.live.shed", "class.live.shed_rate",
        "class.live.submitted", "class.upload.completion_rate",
        "class.upload.done", "class.upload.failed",
        "class.upload.queue_p50", "class.upload.queue_p90",
        "class.upload.queue_p99", "class.upload.retries",
        "class.upload.shed", "class.upload.shed_rate",
        "class.upload.submitted", "conservation.ok", "dead_letter.count",
        "failover.drained_queued", "failover.drained_running",
        "failover.routed", "jobs.done", "jobs.failed", "jobs.shed",
        "jobs.submitted", "outages.count", "schema_version", "spill.routed",
    ),
    "live-ladder": (
        "class.live.done", "class.live.queue_p50", "class.live.queue_p99",
        "class.live.shed", "class.live.submitted", "class.upload.done",
        "class.upload.queue_p50", "class.upload.queue_p99",
        "class.upload.shed", "class.upload.submitted",
        "cluster.corrupt_caught", "cluster.hangs", "cluster.host_evictions",
        "cluster.retries", "conservation.ok", "deadline.miss_rate",
        "deadline.missed", "deadline.tracked", "fallback.opportunistic",
        "fallback.software", "jobs.done", "jobs.failed", "jobs.shed",
        "jobs.submitted", "outages.count", "rung.1080p.queue_p50",
        "rung.1080p.queue_p99", "rung.144p.queue_p50",
        "rung.144p.queue_p99", "rung.240p.queue_p50", "rung.240p.queue_p99",
        "rung.360p.queue_p50", "rung.360p.queue_p99", "rung.480p.queue_p50",
        "rung.480p.queue_p99", "rung.720p.queue_p50", "rung.720p.queue_p99",
        "schema_version", "segments.lost", "segments.manifested",
        "segments.released", "stall.p50", "stall.p99", "streams.completed",
        "streams.started", "ttfs.p50", "ttfs.p90", "ttfs.p99",
    ),
    "canary-rollout": (
        "cluster.completed_graphs", "cluster.corrupt_caught",
        "cluster.hangs", "cluster.retries", "cluster.software_fallbacks",
        "cluster.workers_quarantined", "cluster.workers_rehabilitated",
        "conservation.ok", "delta.throughput_frac", "delta.unhealthy_frac",
        "jobs.done", "jobs.failed", "jobs.shed", "jobs.submitted",
        "rollout.candidate", "rollout.promoted",
        "rollout.regression_detected", "rollout.rolled_back",
        "rollout.stage", "schema_version",
        "slice.baseline.mpix_per_vcu_s", "slice.baseline.unhealthy_frac",
        "slice.baseline.vcus", "slice.canary.mpix_per_vcu_s",
        "slice.canary.unhealthy_frac", "slice.canary.vcus",
    ),
    "chaos-campaign": (
        "availability.exact", "campaign.blast_hosts", "campaign.repair_cap",
        "cluster.corrupt_caught", "cluster.hangs", "cluster.host_evictions",
        "cluster.retries", "cluster.software_fallbacks",
        "cluster.workers_quarantined", "cluster.workers_rehabilitated",
        "conservation.ok", "fleet.available_end", "fleet.disabled_by_sweeps",
        "fleet.vcus", "jobs.completed", "jobs.submitted",
        "repair.hosts_repaired", "schema_version", "steps.completed",
        "sweeper.repairs_completed", "sweeper.repairs_started",
        "sweeper.sweeps",
    ),
    "tuning-timeline": (
        "bitrate_vs_software.h264", "bitrate_vs_software.vp9",
        "decoder_util", "encoder_util", "milestones_shipped", "month",
        "rc_efficiency.h264", "rc_efficiency.vp9", "schema_version",
        "throughput_mpix_s", "total_megapixels", "vcu_workers",
    ),
    "surge-mix": (
        "autoscale.actions", "autoscale.peak_slots",
        "class.batch.completion_rate", "class.batch.done",
        "class.batch.failed", "class.batch.queue_p50",
        "class.batch.queue_p90", "class.batch.queue_p99",
        "class.batch.retries", "class.batch.shed",
        "class.batch.shed_rate", "class.batch.submitted",
        "class.live.completion_rate", "class.live.done",
        "class.live.failed", "class.live.queue_p50",
        "class.live.queue_p90", "class.live.queue_p99",
        "class.live.retries", "class.live.shed", "class.live.shed_rate",
        "class.live.submitted", "class.upload.completion_rate",
        "class.upload.done", "class.upload.failed",
        "class.upload.queue_p50", "class.upload.queue_p90",
        "class.upload.queue_p99", "class.upload.retries",
        "class.upload.shed", "class.upload.shed_rate",
        "class.upload.submitted", "conservation.ok", "dead_letter.count",
        "event.end", "event.jobs_in_window", "event.start",
        "failover.routed", "jobs.done", "jobs.failed", "jobs.shed",
        "jobs.submitted", "scenario", "schema_version", "spill.routed",
    ),
}


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
        for entry in catalog.CATALOG:
            experiment = registry.get(entry.name)
            assert experiment.title == entry.title
            assert experiment.seed == entry.seed
            assert experiment.schema.version == 1
            assert experiment.schema.fields == entry.arm_fields + ("scorecard",)
            assert list(experiment.grid) == entry.grid(False)
            assert list(experiment.smoke_grid) == entry.grid(True)
            assert experiment.sources == entry.sources

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

    @pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
    def test_keys_match_golden(self, name):
        assert catalog.scorecard_keys(name) == GOLDEN_KEYS[name]


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
