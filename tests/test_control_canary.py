"""Firmware canary rollout: state machine, detection, and both verdicts.

The rollout state machine is covered transition by transition (including
the illegal ones), and the scenario is run end to end for both release
candidates: rc1 carries a real regression the scorecard deltas must
catch and roll back; rc2 soaks clean and must promote.  Both runs gate
the job ledger's conservation invariant and the golden scorecard keys.
"""

from __future__ import annotations

import pytest

from repro.control.canary import (
    LEGAL_ROLLOUT_TRANSITIONS,
    CanaryConfig,
    FirmwareRollout,
    IllegalRolloutTransition,
    RolloutStage,
    run_canary_rollout,
)
from repro.control.catalog import CANARY_SEED, CANARY_SMOKE_HORIZON_SECONDS
from repro.vcu.firmware import firmware_release
from tests.conftest import golden_scorecard_keys


class TestRolloutStateMachine:
    def test_table_covers_every_stage(self):
        assert set(LEGAL_ROLLOUT_TRANSITIONS) == set(RolloutStage)
        # ROLLED_BACK and PROMOTED are terminal: a respin is a new rollout.
        assert LEGAL_ROLLOUT_TRANSITIONS[RolloutStage.ROLLED_BACK] == ()
        assert LEGAL_ROLLOUT_TRANSITIONS[RolloutStage.PROMOTED] == ()

    def test_rollback_path(self):
        rollout = FirmwareRollout(firmware_release("fw-1.1.0-rc1"))
        assert rollout.stage is RolloutStage.BASELINE
        rollout.stage_canary(at=10.0)
        assert rollout.stage is RolloutStage.CANARY
        rollout.roll_back(at=20.0, reason="throughput -0.5")
        assert rollout.stage is RolloutStage.ROLLED_BACK
        assert [(t, s) for t, s, _ in rollout.log] == [
            (10.0, "canary"), (20.0, "rolled_back"),
        ]

    def test_promote_path(self):
        rollout = FirmwareRollout(firmware_release("fw-1.1.0-rc2"))
        rollout.stage_canary(at=5.0)
        rollout.promote(at=15.0, reason="clean soak window")
        assert rollout.stage is RolloutStage.PROMOTED

    def test_cannot_stage_twice(self):
        rollout = FirmwareRollout(firmware_release("fw-1.1.0-rc1"))
        rollout.stage_canary(at=1.0)
        with pytest.raises(IllegalRolloutTransition):
            rollout.stage_canary(at=2.0)

    def test_cannot_judge_before_staging(self):
        rollout = FirmwareRollout(firmware_release("fw-1.1.0-rc1"))
        with pytest.raises(IllegalRolloutTransition):
            rollout.roll_back(at=1.0, reason="premature")
        with pytest.raises(IllegalRolloutTransition):
            rollout.promote(at=1.0, reason="premature")

    def test_terminal_stages_reject_everything(self):
        rollout = FirmwareRollout(firmware_release("fw-1.1.0-rc1"))
        rollout.stage_canary(at=1.0)
        rollout.roll_back(at=2.0, reason="regressed")
        with pytest.raises(IllegalRolloutTransition):
            rollout.promote(at=3.0, reason="second thoughts")

    def test_unknown_candidate_rejected_early(self):
        with pytest.raises(KeyError):
            CanaryConfig(candidate="fw-9.9.9")


class TestRegressiveCandidate:
    @pytest.fixture(scope="class")
    def result(self):
        config = CanaryConfig(
            candidate="fw-1.1.0-rc1",
            horizon_seconds=CANARY_SMOKE_HORIZON_SECONDS,
        )
        return run_canary_rollout(config, seed=CANARY_SEED)

    def test_regression_detected_and_rolled_back(self, result):
        card = result.scorecard
        assert card["rollout.regression_detected"] is True
        assert card["rollout.rolled_back"] is True
        assert card["rollout.stage"] == "rolled_back"
        assert result.rollout.stage is RolloutStage.ROLLED_BACK

    def test_regression_is_visible_in_the_deltas(self, result):
        card = result.scorecard
        # rc1 triples the canary slice's per-step overhead: the slice
        # falls well behind baseline on per-VCU throughput.
        assert card["delta.throughput_frac"] > 0.12
        assert (card["slice.canary.mpix_per_vcu_s"]
                < card["slice.baseline.mpix_per_vcu_s"])

    def test_hang_pressure_exercises_health_machine(self, result):
        card = result.scorecard
        assert card["cluster.hangs"] > 0
        assert card["cluster.workers_quarantined"] > 0

    def test_rollback_restores_baseline_overheads(self, result):
        # After rollback every worker is back on its launch-build value.
        for worker in result.cluster.vcu_workers:
            assert worker.step_overhead_seconds == pytest.approx(0.8)

    def test_ledger_conserves_every_job(self, result):
        card = result.scorecard
        assert card["conservation.ok"] is True
        report = result.plane.ledger.conservation_report()
        assert report["ok"] is True
        assert report["nonterminal"] == []

    def test_scorecard_keys_are_exact(self, result):
        keys = golden_scorecard_keys()["canary-rollout"]
        assert tuple(sorted(result.scorecard)) == keys


class TestCleanCandidate:
    @pytest.fixture(scope="class")
    def result(self):
        config = CanaryConfig(
            candidate="fw-1.1.0-rc2",
            horizon_seconds=CANARY_SMOKE_HORIZON_SECONDS,
        )
        return run_canary_rollout(config, seed=CANARY_SEED)

    def test_no_regression_promotes(self, result):
        card = result.scorecard
        assert card["rollout.regression_detected"] is False
        assert card["rollout.promoted"] is True
        assert card["rollout.stage"] == "promoted"
        assert result.rollout.stage is RolloutStage.PROMOTED

    def test_promotion_lands_on_baseline_slice(self, result):
        # rc2 is slightly faster than launch; promotion applies it
        # fleet-wide, so every worker now runs below the launch overhead.
        for worker in result.cluster.vcu_workers:
            assert worker.step_overhead_seconds == pytest.approx(0.8 * 0.95)

    def test_ledger_conserves_every_job(self, result):
        assert result.scorecard["conservation.ok"] is True

    def test_determinism_same_seed_same_scorecard(self, result):
        config = CanaryConfig(
            candidate="fw-1.1.0-rc2",
            horizon_seconds=CANARY_SMOKE_HORIZON_SECONDS,
        )
        again = run_canary_rollout(config, seed=CANARY_SEED)
        assert again.scorecard == result.scorecard
