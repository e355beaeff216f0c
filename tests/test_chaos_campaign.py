"""Correlated-outage chaos campaign: conservation under any arm.

One representative arm runs end to end and is inspected in detail; a
hypothesis sweep then drives randomized (blast radius, repair capacity,
horizon) arms through the same engine and asserts the two campaign
invariants -- job conservation and exact availability bookkeeping --
hold for every one of them, not just the catalog's declared sweep.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.control.catalog import CHAOS_SEED
from repro.control.chaos import ChaosCampaignConfig, run_chaos_campaign
from tests.conftest import golden_scorecard_keys


class TestConfigValidation:
    def test_blast_must_leave_survivors(self):
        with pytest.raises(ValueError):
            ChaosCampaignConfig(hosts=4, blast_hosts=4)

    def test_blast_storm_outage_sets_must_not_overlap(self):
        with pytest.raises(ValueError):
            ChaosCampaignConfig(hosts=4, blast_hosts=2, outage_hosts=2)

    def test_repair_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            ChaosCampaignConfig(repair_cap=0)


class TestRepresentativeArm:
    @pytest.fixture(scope="class")
    def result(self):
        config = ChaosCampaignConfig(
            horizon_seconds=360.0, blast_hosts=2, repair_cap=1
        )
        return run_chaos_campaign(config, seed=CHAOS_SEED)

    def test_every_job_completes(self, result):
        card = result.scorecard
        assert card["conservation.ok"] is True
        assert card["jobs.completed"] == result.submitted > 0

    def test_blast_disables_and_repair_restores(self, result):
        card = result.scorecard
        # The ECC storm crosses the disable threshold on every blasted
        # VCU; the capped repair queue brings hosts back one at a time.
        assert card["fleet.disabled_by_sweeps"] >= (
            result.config.blast_hosts * result.config.vcus_per_host
        )
        assert card["sweeper.repairs_started"] > 0
        assert card["repair.hosts_repaired"] > 0

    def test_hang_storm_exercises_watchdog(self, result):
        card = result.scorecard
        assert card["cluster.hangs"] > 0
        assert card["cluster.retries"] > 0
        assert card["cluster.workers_quarantined"] > 0

    def test_availability_counter_is_exact(self, result):
        assert result.scorecard["availability.exact"] is True

    def test_scorecard_keys_are_exact(self, result):
        keys = golden_scorecard_keys()["chaos-campaign"]
        assert tuple(sorted(result.scorecard)) == keys

    def test_determinism_same_seed_same_scorecard(self, result):
        config = ChaosCampaignConfig(
            horizon_seconds=360.0, blast_hosts=2, repair_cap=1
        )
        again = run_chaos_campaign(config, seed=CHAOS_SEED)
        assert again.scorecard == result.scorecard


class TestConservationProperty:
    @given(
        blast_hosts=st.integers(min_value=1, max_value=4),
        repair_cap=st.integers(min_value=1, max_value=4),
        horizon=st.sampled_from([120.0, 180.0]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_conservation_holds_for_any_arm(
        self, blast_hosts, repair_cap, horizon, seed
    ):
        config = ChaosCampaignConfig(
            horizon_seconds=horizon,
            hosts=7,
            blast_hosts=blast_hosts,
            repair_cap=repair_cap,
            outage_hosts=min(2, 6 - blast_hosts),
        )
        result = run_chaos_campaign(config, seed=seed)
        card = result.scorecard
        assert card["conservation.ok"] is True
        assert card["jobs.completed"] == result.submitted
        assert card["availability.exact"] is True
