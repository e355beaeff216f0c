"""Tests of the benchmark itself: ``python -m pytest bench -q``.

Tiny builds of every workload check that tracing is transparent (same
results traced and untraced, the watchdog ``Interrupt`` path included),
that the self-time fold adds up, and that the metric and workload names
the code emits are exactly the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import crosscheck  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_tiny(name: str, tmp_path, traced: bool):
    """One tiny repetition in-process; returns (outcome, tracer or None)."""
    workload = suite.WORKLOADS[name]
    tracer = tracing.Tracer(ROOT) if traced else None
    if tracer is not None:
        assert tracer.install() == []
    try:
        state = workload.setup(None, str(tmp_path), tiny=True)
        if tracer is None:
            result = workload.body(state)
        else:
            with tracer.root():
                result = workload.body(state)
        return workload.outcome(state, result), tracer
    finally:
        if tracer is not None:
            tracer.uninstall()


# ---------------------------------------------------------------------- #
# Wrapper transparency


def test_forwarding_generator_passes_send_throw_and_return():
    tracer = tracing.Tracer(ROOT)

    def body(log):
        try:
            got = yield 1.0
            log.append(("sent", got))
            yield 2.0
        except KeyError as error:
            log.append(("caught", error.args[0]))
            yield 3.0
        finally:
            log.append(("finally",))
        return "done"

    transcripts = []
    for wrap in (False, True):
        log = []
        gen = body(log)
        if wrap:
            gen = tracer.wrap_generator(gen)
        assert gen.__name__ == "body"
        steps = [gen.send(None), gen.send("x"), gen.throw(KeyError("k"))]
        with pytest.raises(StopIteration) as stop:
            gen.send(None)
        transcripts.append((steps, stop.value.value, log))
    assert transcripts[0] == transcripts[1]


def test_forwarding_generator_propagates_uncaught_throw_and_close():
    tracer = tracing.Tracer(ROOT)
    closed = []

    def body():
        try:
            yield 1.0
            yield 2.0
        finally:
            closed.append(True)

    gen = tracer.wrap_generator(body())
    next(gen)
    with pytest.raises(ValueError):
        gen.throw(ValueError("boom"))
    assert closed == [True]
    gen = tracer.wrap_generator(body())
    next(gen)
    gen.close()
    assert closed == [True, True]


def _watchdog_drill() -> dict:
    """A hung VCU under a live step: only the watchdog recovers the work."""
    from repro.cluster import TranscodeCluster, VcuWorker
    from repro.sim.engine import Simulator
    from repro.transcode import build_transcode_graph
    from repro.vcu.chip import Vcu
    from repro.video.frame import resolution

    sim = Simulator()
    workers = [VcuWorker(Vcu(vcu_id=f"drill-vcu{i}")) for i in range(2)]
    cluster = TranscodeCluster(sim, workers, seed=3)
    cluster.submit(build_transcode_graph(
        video_id="drill", source=resolution("720p"), total_frames=300, fps=30.0,
    ))
    sim.call_at(0.01, workers[0].vcu.mark_hung)
    sim.run()
    snapshot = cluster.stats.counter_snapshot()
    assert snapshot["hangs_detected"] > 0 and snapshot["completed_graphs"] == 1
    return snapshot


def test_watchdog_interrupt_path_is_unchanged_by_tracing():
    plain = _watchdog_drill()
    tracer = tracing.Tracer(ROOT)
    assert tracer.install() == []
    try:
        with tracer.root():
            traced = _watchdog_drill()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.resumes > 0 and tracer.nesting_errors == 0


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_tiny_workload_traced_results_equal_untraced(name, tmp_path):
    plain, _ = run_tiny(name, tmp_path, traced=False)
    traced, tracer = run_tiny(name, tmp_path, traced=True)
    assert plain.problems == [] and traced.problems == []
    assert suite.digest(traced.canonical) == suite.digest(plain.canonical)
    assert tracer.nesting_errors == 0
    metrics = tracer.metrics()
    assert metrics["unattributed.share"] < 0.10


def test_install_and_uninstall_restore_every_patched_attribute():
    from repro.cluster.scheduler import BinPackingScheduler
    from repro.codec import encoder, prediction
    from repro.sim.engine import Simulator

    before = (BinPackingScheduler.place, Simulator.process, prediction.best_intra,
              encoder.best_intra)
    tracer = tracing.Tracer(ROOT)
    tracer.install()
    assert encoder.best_intra is prediction.best_intra is not before[2]
    tracer.uninstall()
    after = (BinPackingScheduler.place, Simulator.process, prediction.best_intra,
             encoder.best_intra)
    assert after == before


def test_observability_is_passive_for_the_shared_units(tmp_path):
    catalog, _ = run_tiny("scenario-catalog", tmp_path, traced=False)
    observed, _ = run_tiny("observed-chaos", tmp_path, traced=False)
    assert observed.units
    for key, result in observed.units.items():
        assert result == catalog.units[key]


# ---------------------------------------------------------------------- #
# Fold arithmetic


def test_self_times_sum_to_the_root_span(tmp_path):
    _, tracer = run_tiny("fleet-day", tmp_path, traced=True)
    assert tracer.total_spans == len(tracer.spans), "raise SPAN_CAP for this test"
    children = {}
    for sid, parent, _, t0, t1 in tracer.spans:
        children[parent] = children.get(parent, 0.0) + (t1 - t0)
    root = [span for span in tracer.spans if span[1] == 0]
    assert len(root) == 1
    root_s = root[0][4] - root[0][3]
    folded = sum((t1 - t0) - children.get(sid, 0.0) for sid, _, _, t0, t1 in tracer.spans)
    assert folded == pytest.approx(root_s, rel=0.01)
    # The layers and the tracer's own measured cost share the root.
    assert sum(tracer.layer_self) + tracer.overhead_s == pytest.approx(root_s, rel=0.01)
    assert 0 < tracer.overhead_s < root_s
    shares = tracer.metrics()
    total = sum(shares[f"{layer}.share"] for layer in tracing.LAYERS)
    assert total + shares["unattributed.share"] == pytest.approx(1.0, rel=0.01)


def test_calibrated_residuals_are_small_and_positive():
    tracer = tracing.Tracer(ROOT)
    tracer.calibrate()
    assert all(0.0 <= residual < 20e-6 for residual in tracer.residuals)


def test_crosscheck_methods_fold_every_share(tmp_path):
    for method in crosscheck.METHODS:
        shares = crosscheck.shares(method, "codec-rd", None, str(tmp_path), tiny=True)
        assert sum(shares.values()) == pytest.approx(1.0, rel=0.01), method
        assert max(shares, key=shares.get).startswith("codec."), method


def test_written_spans_reload_with_their_layers(tmp_path):
    _, tracer = run_tiny("codec-rd", tmp_path, traced=True)
    path = tmp_path / "spans.jsonl"
    written = tracer.write_spans(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == written == len(tracer.spans)
    root = [row for row in rows if row["parent"] == 0]
    assert len(root) == 1 and root[0]["t0"] == 0.0 and root[0]["layer"] == "unattributed"
    assert {row["layer"] for row in rows} >= {"codec.prediction", "codec.encoder"}


# ---------------------------------------------------------------------- #
# Names and declarations


def test_every_boundary_still_exists():
    tracer = tracing.Tracer(ROOT)
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()


def test_emitted_names_match_benchmark_json_in_both_directions():
    spec = load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        workload.why for workload in suite.WORKLOADS.values()
    ]
    declared_e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    declared_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == tracing.METRIC_UNITS
    names = list(declared_e2e) + list(declared_layer) + list(suite.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = declared_e2e["setup_s"]
    assert setup == ("s", "lower")
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_tracer_metrics_cover_the_per_layer_declarations(tmp_path):
    _, tracer = run_tiny("observed-chaos", tmp_path, traced=True)
    emitted = set(tracer.metrics()) | set(tracing.RUN_LEVEL)
    assert emitted == set(tracing.METRIC_UNITS)
    for name in emitted:
        assert NAME.match(name), name


def test_end_to_end_metrics_are_never_zero():
    record = {"setup_s": 0.1, "run_s": 2.0, "peak_rss_mib": 50.0, "sim_s": 100.0}
    values = run.end_to_end(record)
    assert set(values) == set(run.END_TO_END)
    assert all(value > 0 for value in values.values())


# ---------------------------------------------------------------------- #
# The runner and the comparison


def test_runner_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "codec-rd", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "correct" not in done.stdout


def test_calibration_kernel_is_fixed_work():
    assert run.calibration_kernel() == run.calibration_kernel() == 60_256


def test_compare_verdicts():
    old = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(old, [v * 1.5 for v in old], "lower", 0.2) == "worse"
    assert compare.verdict(old, [v * 0.8 for v in old], "lower", 0.2) == "better"
    assert compare.verdict(old, [v * 1.05 for v in old], "lower", 0.2) == "within"
    assert compare.verdict(old, [v * 1.5 for v in old], "higher", 0.2) == "better"
    noisy = [0.5, 1.0, 1.5, 2.0]
    assert compare.verdict(noisy, [1.1, 1.2, 1.3, 1.4], "lower", 0.2) == "unresolved"
    assert compare.verdict(old, [v * 0.5 for v in noisy], "lower", 0.2) == "unresolved"


# ---------------------------------------------------------------------- #
# Cross-check against the committed manifest

BENCH_PR10 = os.path.join(ROOT, "BENCH_PR10.json")
needs_manifest = pytest.mark.skipif(
    not os.path.exists(BENCH_PR10), reason="no committed manifest to check against"
)


def committed(experiment: str, index: int) -> dict:
    with open(BENCH_PR10, encoding="utf-8") as handle:
        units = json.load(handle)["experiments"][experiment]["units"]
    return next(unit["result"] for unit in units if unit["index"] == index)


@needs_manifest
def test_codec_results_match_the_committed_fig7_unit(tmp_path):
    codec = suite.CodecRd()
    codec.TITLES, codec.FRAMES = ("presentation",), 6
    state = codec.setup(None, str(tmp_path))
    outcome = codec.outcome(state, codec.body(state))
    assert outcome.canonical[0] == committed("fig7-bd-rates", 0)


@needs_manifest
def test_timeline_month_matches_the_committed_tuning_scorecard():
    from types import SimpleNamespace

    from repro.cluster.timeline import default_timeline, run_month

    timeline = suite.SaturatedTimeline()
    state = SimpleNamespace(
        run_month=run_month, draws=[(default_timeline(1)[0], 5)], horizon=80.0,
    )
    row = timeline.outcome(state, timeline.body(state)).canonical[0]
    card = committed("tuning-timeline", 0)["scorecard"]
    assert row == {key: card[key] for key in row}


@needs_manifest
@pytest.mark.parametrize("experiment", ["live-ladder", "platform-day", "surge-mix"])
def test_catalog_units_match_the_committed_manifest(experiment):
    experiment_obj, unit = suite.catalog_units([experiment], None, {})[0]
    assert experiment_obj.run_unit(unit) == committed(experiment, unit.index)
