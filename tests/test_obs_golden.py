"""Golden-trace regression tests: the observability layer is deterministic.

A fixed-seed mini chaos drill (hang + silent corruption + sweeper repair
on a 4-VCU fleet) must serialize to a **byte-identical** JSONL trace on
every run, on every machine.  The golden copy lives in
``tests/golden/obs_drill_trace.jsonl``; any change to event ordering,
span attributes, float rounding, or the simulator's tie-breaking shows
up here as a diff.  The drill's metrics snapshot is pinned the same way
in ``tests/golden/obs_drill_metrics.json``: every key the hub reports,
and every value.

To intentionally re-baseline after a behaviour change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs_golden.py
"""

import json
import os
import pathlib

import pytest

from repro import obs
from repro.cluster import CpuWorker, HealthPolicy, TranscodeCluster, VcuWorker
from repro.failures import (
    BackoffPolicy,
    FailureManager,
    FailureSweeper,
    FaultDomainPolicy,
    FaultInjector,
)
from repro.sim import Simulator
from repro.transcode import PopularityBucket, build_transcode_graph
from repro.vcu.host import VcuHost
from repro.vcu.spec import HostSpec

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "obs_drill_trace.jsonl"
METRICS_GOLDEN_PATH = GOLDEN_PATH.with_name("obs_drill_metrics.json")


def _stable_host(tag: str) -> VcuHost:
    """A 2-VCU host with run-independent ids (global counters differ)."""
    host = VcuHost(
        host_spec=HostSpec(vcus_per_card=2, cards_per_tray=1, trays_per_host=1),
        host_id=tag,
    )
    for index, vcu in enumerate(host.vcus):
        vcu.vcu_id = f"{tag}-vcu{index}"
        vcu.telemetry.vcu_id = vcu.vcu_id
    return host


def _golden_drill():
    """One fixed-seed mini drill; returns (trace_jsonl, snapshot, cluster)."""
    with obs.installed() as hub:
        sim = Simulator()
        from repro.video.frame import resolution

        hosts = [_stable_host("gold-a"), _stable_host("gold-b")]
        policy = HealthPolicy(
            strike_budget=2, rescreen_delay_seconds=20.0, screen_seconds=2.0,
            rescreen_backoff=2.0, max_rescreen_failures=3,
        )
        workers = [
            VcuWorker(v, host=h, health_policy=policy)
            for h in hosts for v in h.vcus
        ]
        cluster = TranscodeCluster(
            sim, workers, [CpuWorker(cores=16, name="gold-cpu")],
            integrity_check_rate=1.0, seed=11,
            backoff=BackoffPolicy(base_seconds=1.0, max_seconds=10.0, jitter=0.5),
            fault_domain=FaultDomainPolicy(
                window_seconds=200.0, distinct_vcu_threshold=2
            ),
        )
        manager = FailureManager(hosts, repair_cap=1, card_swap_threshold=1)
        sweeper = FailureSweeper(
            sim, manager, interval_seconds=25.0, repair_seconds=100.0,
            cluster=cluster,
        )
        sweeper.start(until=900.0)
        injector = FaultInjector(sim, [v for h in hosts for v in h.vcus], seed=3)
        injector.corrupt_at(2.0, hosts[1].vcus[0])
        injector.hang_at(8.0, hosts[0].vcus[0], duration=120.0)
        injector.hang_at(12.0, hosts[0].vcus[1], duration=120.0)
        graphs = [
            build_transcode_graph(f"gold-v{i}", resolution("720p"), 300, 30.0,
                                  bucket=PopularityBucket.WARM)
            for i in range(6)
        ]
        for i, g in enumerate(graphs):
            sim.call_in(5.0 * i, lambda g=g: cluster.submit(g))
        sim.run(until=900.0)
        sim.run()
        assert all(g.completed_at is not None for g in graphs)
        return hub.trace.to_jsonl(), hub.metrics.snapshot(now=sim.now), cluster


def test_same_seed_runs_produce_bit_identical_traces():
    trace_a, snap_a, _ = _golden_drill()
    trace_b, snap_b, _ = _golden_drill()
    assert trace_a == trace_b
    assert snap_a == snap_b


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
        "trace diverged from tests/golden/obs_drill_trace.jsonl; if the "
        "change is intentional, re-baseline with REPRO_UPDATE_GOLDEN=1"
    )


def test_metrics_match_checked_in_golden():
    _, snapshot, _ = _golden_drill()
    text = json.dumps(snapshot, indent=1, sort_keys=True) + "\n"
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        METRICS_GOLDEN_PATH.write_text(text, encoding="utf-8")
        pytest.skip(f"golden re-baselined at {METRICS_GOLDEN_PATH}")
    assert METRICS_GOLDEN_PATH.exists(), (
        "golden metrics missing -- regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    golden = METRICS_GOLDEN_PATH.read_text(encoding="utf-8")
    assert text == golden, (
        "metrics snapshot diverged from tests/golden/obs_drill_metrics.json; "
        "if the change is intentional, re-baseline with REPRO_UPDATE_GOLDEN=1"
    )


def test_golden_drill_actually_exercised_the_resilience_loop():
    # Guard against the golden fixture silently degenerating into a
    # happy-path run that locks down nothing interesting.
    trace, snapshot, cluster = _golden_drill()
    assert cluster.stats.hangs_detected >= 1
    assert cluster.stats.corrupt_caught >= 1
    assert cluster.stats.retries >= 1
    assert cluster.stats.workers_quarantined >= 1
    kinds = {line.split('"kind":"')[1].split('"')[0]
             for line in trace.splitlines()}
    for expected in ("step", "sched", "hang", "retry", "health", "graph",
                     "sweep", "device"):
        assert expected in kinds, f"no {expected!r} spans in the golden drill"
    assert snapshot["cluster.hangs_detected"] == cluster.stats.hangs_detected
