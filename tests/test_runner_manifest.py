"""Manifest/report layer: canonical JSON, markdown tables, stats block."""

from __future__ import annotations

import json

from repro.runner.cache import repo_root
from repro.runner.executor import ExperimentRun, RunStats
from repro.runner.manifest import (
    DEFAULT_MANIFEST_NAME,
    build_manifest,
    dump_json,
    manifest_text,
    render_markdown,
    render_stats,
    write_manifest,
)
from repro.runner.registry import Experiment, ResultSchema

SCHEMA = ResultSchema(version=1, fields=("x",))


def make_run(summarize=None):
    experiment = Experiment(
        name="demo", title="Demo experiment", fn=lambda ctx: {"x": 0},
        grid=({"q": 1}, {"q": 2}), seed=5, schema=SCHEMA,
        summarize=summarize,
    )
    units = experiment.units()
    return ExperimentRun(
        experiment=experiment,
        units=units,
        fingerprints=["a" * 64, "b" * 64],
        results=[{"x": 1}, {"x": 4}],
    )


class TestManifest:
    def test_structure_carries_spec_fingerprints_and_results(self):
        manifest = build_manifest([make_run()])
        entry = manifest["experiments"]["demo"]
        assert manifest["manifest_version"] == 1
        assert entry["title"] == "Demo experiment"
        assert entry["seed"] == 5
        assert entry["schema"] == {"version": 1, "fields": ["x"]}
        assert [u["index"] for u in entry["units"]] == [0, 1]
        assert entry["units"][0]["params"] == {"q": 1}
        assert entry["units"][0]["fingerprint"] == "a" * 64
        assert entry["units"][1]["result"] == {"x": 4}
        assert entry["summary"] == [{"x": 1}, {"x": 4}]

    def test_text_is_canonical_and_newline_terminated(self):
        manifest = build_manifest([make_run()])
        text = manifest_text(manifest)
        assert text.endswith("}\n")
        assert text == manifest_text(json.loads(text))  # round-trip stable
        assert text.index('"benchmark"') < text.index('"experiments"')

    def test_write_and_dump_are_the_same_bytes(self, tmp_path):
        manifest = build_manifest([make_run()])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_manifest(str(a), manifest)
        dump_json(str(b), manifest)
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text()) == manifest

    def test_default_name_matches_this_pr(self):
        # The one manifest name: the committed manifest CI's full gate
        # compares against, and what ``repro-bench run`` writes.
        assert DEFAULT_MANIFEST_NAME == "BENCH_PR10.json"
        assert (repo_root() / DEFAULT_MANIFEST_NAME).is_file()


class TestMarkdown:
    def test_renders_summary_rows_as_table(self):
        def summarize(results):
            return [
                {"metric": "total", "ours": 5.0, "paper": 6},
                {"metric": "extra", "ours": None, "paper": 7, "note": "tail"},
            ]
        text = render_markdown(build_manifest([make_run(summarize=summarize)]))
        lines = text.splitlines()
        assert lines[0] == "## Demo experiment"
        assert "`demo` — 2 unit(s), seed 5, schema v1" in lines[1]
        # Columns in first-seen order, union over rows.
        assert "| metric | ours | paper | note |" in lines
        assert "| total | 5 | 6 | — |" in lines
        assert "| extra | — | 7 | tail |" in lines

    def test_empty_summary_renders_placeholder(self):
        run = make_run(summarize=lambda results: [])
        assert "(no rows)" in render_markdown(build_manifest([run]))

    def test_experiments_render_name_sorted(self):
        manifest = build_manifest([make_run()])
        manifest["experiments"]["aaa"] = dict(
            manifest["experiments"]["demo"], title="First"
        )
        text = render_markdown(manifest)
        assert text.index("## First") < text.index("## Demo experiment")


class TestStats:
    def test_render_stats_reports_cache_and_shards(self):
        stats = RunStats(
            experiments=2, units=9, cache_hits=8, cache_misses=1,
            cache_errors=1, shards=3, jobs=4, wall_seconds=1.25,
            shard_seconds=[0.5, 0.25, 0.5],
        )
        text = render_stats(stats)
        assert "experiments 2, units 9, shards 3 (jobs 4)" in text
        assert "8 hit(s), 1 miss(es), 1 corrupt entr(ies)" in text
        assert "hit rate 89%" in text
        assert "shard seconds: 0.50, 0.25, 0.50" in text

    def test_hit_rate_handles_empty_run(self):
        assert RunStats().hit_rate == 0.0
