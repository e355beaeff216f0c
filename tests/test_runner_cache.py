"""Cache-layer tests: import closure, fingerprints, corruption recovery.

The fake repo trees built here exercise the content-addressing contract
end to end: a fingerprint moves iff something the experiment actually
depends on moved (its params, its seed, its schema, or a source file in
its transitive import closure) -- and a damaged cache entry is always a
recomputation, never a crash or a wrong answer.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.analysis.project import load_project
from repro.runner.cache import (
    CACHE_ENTRY_VERSION,
    ResultCache,
    canonical_json,
    closure_roots,
    import_closure,
    repo_root,
    source_hashes,
    unit_fingerprint,
)
from repro.runner.registry import Experiment, ResultSchema, UnitContext

SCHEMA = ResultSchema(version=1, fields=("v",))


def fake_tree(root):
    """src-layout tree: pkg/__init__ -> a -> b, plus an unrelated module."""
    pkg = root / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from pkg import a\n")
    (pkg / "a.py").write_text("from pkg.b import helper\n\n\ndef run():\n    return helper()\n")
    (pkg / "b.py").write_text("def helper():\n    return 1\n")
    (root / "src" / "solo.py").write_text("import json\n\nVALUE = 2\n")
    return root


def closure_paths(root, modules):
    project, _ = load_project(root)
    return [info.path for info in import_closure(project, modules)]


def hashes_of(root, modules=("pkg.a",)):
    project, _ = load_project(root)
    return source_hashes(project, modules)


def make_experiment(seed=7, schema=SCHEMA, name="exp"):
    return Experiment(
        name=name, title="t", fn=lambda ctx: {"v": 0}, grid=({"q": 1},),
        seed=seed, schema=schema,
    )


def unit_fn(ctx):
    return {"v": 0}


UNIT = UnitContext(experiment="exp", index=0, params={"q": 1}, seed=7)


class TestCanonicalJson:
    def test_sorted_keys_fixed_layout_trailing_newline(self):
        text = canonical_json({"b": 1, "a": [1, 2]})
        assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'

    def test_key_order_never_leaks(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})


class TestImportClosure:
    def test_resolve_prefers_src_layout_and_handles_packages(self, tmp_path):
        fake_tree(tmp_path)
        # A package resolves to its __init__, which imports pkg.a -> pkg.b.
        assert closure_paths(tmp_path, ("pkg",)) == [
            "src/pkg/__init__.py", "src/pkg/a.py", "src/pkg/b.py",
        ]
        assert closure_paths(tmp_path, ("numpy",)) == []

    def test_closure_is_transitive_and_includes_package_init(self, tmp_path):
        fake_tree(tmp_path)
        # pkg.a imports pkg.b; importing pkg.a also runs pkg/__init__.
        assert closure_paths(tmp_path, ("pkg.a",)) == [
            "src/pkg/__init__.py", "src/pkg/a.py", "src/pkg/b.py",
        ]

    def test_external_imports_are_ignored(self, tmp_path):
        fake_tree(tmp_path)
        assert closure_paths(tmp_path, ("solo",)) == ["src/solo.py"]

    def test_every_edge_kind_is_followed(self, tmp_path):
        fake_tree(tmp_path)
        (tmp_path / "src" / "table.py").write_text(
            "from typing import TYPE_CHECKING\n\n"
            "if TYPE_CHECKING:\n    import solo\n\n"
            "ENTRY = 'pkg.b:helper'\n"
        )
        assert closure_paths(tmp_path, ("table",)) == [
            "src/pkg/__init__.py", "src/pkg/a.py", "src/pkg/b.py",
            "src/solo.py", "src/table.py",
        ]

    def test_roots_are_unit_and_summary_modules(self):
        plain = Experiment(name="e", title="t", fn=unit_fn, grid=({},),
                           seed=0, schema=SCHEMA)
        assert closure_roots(plain) == (unit_fn.__module__,)
        # A partial's own __module__ is "functools"; the root is the
        # module of the function it binds.
        bound = Experiment(
            name="e", title="t", fn=functools.partial(unit_fn), grid=({},),
            seed=0, schema=SCHEMA,
            summarize=functools.partial(json.dumps, indent=2),
        )
        assert closure_roots(bound) == (unit_fn.__module__, json.dumps.__module__)

    def test_repo_root_points_at_this_checkout(self):
        assert (repo_root() / "src" / "repro" / "runner").is_dir()
        # The real registry module resolves inside this repo.
        assert "src/repro/runner/registry.py" in closure_paths(
            repo_root(), ("repro.runner.registry",)
        )


class TestSourceHashes:
    def test_keys_are_repo_relative_posix_paths(self, tmp_path):
        fake_tree(tmp_path)
        hashes = hashes_of(tmp_path)
        assert sorted(hashes) == [
            "src/pkg/__init__.py", "src/pkg/a.py", "src/pkg/b.py",
        ]
        assert all(len(digest) == 64 for digest in hashes.values())

    def test_editing_a_file_moves_only_its_hash(self, tmp_path):
        fake_tree(tmp_path)
        before = hashes_of(tmp_path)
        (tmp_path / "src/pkg/b.py").write_text("def helper():\n    return 99\n")
        after = hashes_of(tmp_path)
        assert before["src/pkg/a.py"] == after["src/pkg/a.py"]
        assert before["src/pkg/b.py"] != after["src/pkg/b.py"]


class TestUnitFingerprint:
    def test_stable_across_calls(self, tmp_path):
        fake_tree(tmp_path)
        hashes = hashes_of(tmp_path)
        exp = make_experiment()
        assert unit_fingerprint(exp, UNIT, hashes) == unit_fingerprint(exp, UNIT, hashes)

    def test_moves_with_every_input_it_claims(self, tmp_path):
        fake_tree(tmp_path)
        hashes = hashes_of(tmp_path)
        exp = make_experiment()
        base = unit_fingerprint(exp, UNIT, hashes)

        assert unit_fingerprint(make_experiment(seed=8), UNIT, hashes) != base
        bumped = ResultSchema(version=2, fields=SCHEMA.fields)
        assert unit_fingerprint(make_experiment(schema=bumped), UNIT, hashes) != base
        other_unit = UnitContext(experiment="exp", index=0, params={"q": 2}, seed=7)
        assert unit_fingerprint(exp, other_unit, hashes) != base

        (tmp_path / "src/pkg/b.py").write_text("def helper():\n    return 99\n")
        assert unit_fingerprint(exp, UNIT, hashes_of(tmp_path)) != base

    def test_untouched_dependency_set_keeps_fingerprint(self, tmp_path):
        fake_tree(tmp_path)
        exp = make_experiment()
        base = unit_fingerprint(exp, UNIT, hashes_of(tmp_path))
        # Editing a module outside the closure changes nothing.
        (tmp_path / "src/solo.py").write_text("VALUE = 3\n")
        assert unit_fingerprint(exp, UNIT, hashes_of(tmp_path)) == base


class TestResultCache:
    FP = "f" * 64

    def test_miss_put_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("exp", self.FP) is None
        cache.put("exp", self.FP, UNIT, {"v": 42})
        assert cache.get("exp", self.FP) == {"v": 42}
        assert (cache.hits, cache.misses, cache.errors) == (1, 1, 0)

    def test_entry_layout_is_content_addressed(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("exp", self.FP, UNIT, {"v": 1})
        path = tmp_path / "exp" / f"{self.FP}.json"
        payload = json.loads(path.read_text())
        assert payload["entry_version"] == CACHE_ENTRY_VERSION
        assert payload["fingerprint"] == self.FP
        assert payload["unit_index"] == 0
        assert not list(tmp_path.rglob("*.tmp"))  # atomic replace, no debris

    @pytest.mark.parametrize("damage", [
        "not json at all",
        '"a bare string"\n',
        '{"entry_version": 999, "fingerprint": "%s", "result": {}}' % ("f" * 64),
        '{"entry_version": 1, "fingerprint": "wrong", "result": {}}',
        '{"entry_version": 1, "fingerprint": "%s", "result": [1]}' % ("f" * 64),
        "",
    ])
    def test_damaged_entries_are_counted_misses(self, tmp_path, damage):
        cache = ResultCache(tmp_path)
        cache.put("exp", self.FP, UNIT, {"v": 1})
        (tmp_path / "exp" / f"{self.FP}.json").write_text(damage)
        assert cache.get("exp", self.FP) is None
        assert cache.errors == 1 and cache.misses == 1 and cache.hits == 0

    def test_rewrite_after_damage_recovers(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("exp", self.FP, UNIT, {"v": 1})
        (tmp_path / "exp" / f"{self.FP}.json").write_text("garbage")
        assert cache.get("exp", self.FP) is None
        cache.put("exp", self.FP, UNIT, {"v": 1})
        assert cache.get("exp", self.FP) == {"v": 1}
