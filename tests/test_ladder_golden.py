"""Golden-trace regression tests for the live-segment drill.

A fixed-seed mini live-ladder run (dripping live legs + bursting
uploads + a regional outage + Poisson device faults) must serialize to a
**byte-identical** JSONL trace and scorecard on every run, on every
machine, at any ``--jobs``.  The golden copy lives in
``tests/golden/live_ladder_trace.jsonl``; any change to segment-release
ordering, barrier timing, span attributes, float rounding, or the
simulator's tie-breaking shows up here as a diff.

To intentionally re-baseline after a behaviour change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_ladder_golden.py
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro import obs
from repro.control.live_ladder import LiveLadderConfig, run_live_ladder
from repro.obs.latency import STALL_BOUNDS, TTFS_BOUNDS

GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "golden" / "live_ladder_trace.jsonl"
)

DRILL_CONFIG = LiveLadderConfig(
    horizon_seconds=180.0,
    live_rate=0.02,
    upload_rate=0.03,
    live_duration_seconds=20.0,
    outage=True,
    hang_rate_per_hour=2.0,
    corruption_rate_per_hour=2.0,
)
DRILL_SEED = 13


def _golden_drill():
    """One fixed-seed drill; returns (trace_jsonl, scorecard_json, result)."""
    with obs.installed() as hub:
        result = run_live_ladder(DRILL_CONFIG, seed=DRILL_SEED)
        trace = hub.trace.to_jsonl()
    card = json.dumps(result.scorecard, indent=2, sort_keys=True)
    return trace, card, result


def test_same_seed_runs_produce_bit_identical_traces():
    trace_a, card_a, _ = _golden_drill()
    trace_b, card_b, _ = _golden_drill()
    assert trace_a == trace_b
    assert card_a == card_b


def test_trace_matches_checked_in_golden():
    trace, _, _ = _golden_drill()
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(trace, encoding="utf-8")
        pytest.skip(f"golden re-baselined at {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        "golden trace missing -- regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    golden = GOLDEN_PATH.read_text(encoding="utf-8")
    assert trace == golden, (
        "trace diverged from tests/golden/live_ladder_trace.jsonl; if the "
        "change is intentional, re-baseline with REPRO_UPDATE_GOLDEN=1"
    )


def test_golden_drill_actually_exercised_the_streaming_ladder():
    # Guard against the fixture degenerating into a happy-path run that
    # locks down nothing interesting.
    trace, _, result = _golden_drill()
    card = result.scorecard
    assert card["streams.completed"] == card["streams.started"] > 0
    assert card["segments.lost"] == 0
    assert card["deadline.tracked"] > 0
    assert card["cluster.hangs"] >= 1
    assert card["fallback.opportunistic"] >= 1
    assert card["conservation.ok"] is True
    kinds = {line.split('"kind":"')[1].split('"')[0]
             for line in trace.splitlines()}
    for expected in ("stream", "segment", "manifest", "fallback",
                     "step", "hang", "retry"):
        assert expected in kinds, f"no {expected!r} spans in the drill"


def _snapshot_quantile(snap, name, bounds, q):
    """``Histogram.quantile`` read back from a flattened snapshot."""
    target = q * snap[f"{name}.count"]
    for bound in bounds:
        if snap[f"{name}.le.{bound:g}"] >= target:
            return bound
    return bounds[-1]


def test_hub_reads_the_scorecards_latency_histograms():
    # The hub's ladder.* histograms are the ladder's own: the
    # scorecard's bounds, so the same quantiles.
    with obs.installed() as hub:
        result = run_live_ladder(DRILL_CONFIG, seed=DRILL_SEED)
    snap = hub.metrics.snapshot()
    card = result.scorecard
    for name, bounds, quantiles in (
        ("ladder.ttfs_seconds", TTFS_BOUNDS, {"ttfs.p50": 0.5, "ttfs.p90": 0.9,
                                              "ttfs.p99": 0.99}),
        ("ladder.manifest_stall_seconds", STALL_BOUNDS,
         {"stall.p50": 0.5, "stall.p99": 0.99}),
    ):
        buckets = {key for key in snap if key.startswith(f"{name}.le.")}
        assert buckets == {f"{name}.le.{b:g}" for b in bounds} | {f"{name}.le.inf"}
        for key, q in quantiles.items():
            assert _snapshot_quantile(snap, name, bounds, q) == card[key], key
