"""Engine-level tests: pragmas, baseline, reporters, CLI, self-lint."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_BASELINE_NAME,
    Baseline,
    analyze_source,
    default_rules,
    iter_python_files,
    render_json,
    render_text,
    run_lint,
)
from repro.analysis.reporters import JSON_VERSION, to_document
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent

BAD_SOURCE = textwrap.dedent(
    """\
    import time


    def stamp():
        return time.time()
    """
)


def lint(source, path="src/repro/fake.py"):
    return analyze_source(textwrap.dedent(source), path)


# --------------------------------------------------------------------- #
# Pragma semantics


class TestPragmas:
    def test_line_pragma_suppresses_only_its_line(self):
        findings, suppressed = lint(
            """\
            import time


            def stamp():
                a = time.time()  # lint: allow=determinism -- one-off
                b = time.time()
                return a, b
            """
        )
        assert suppressed == 1
        # The unpragma'd read on line 6 is flagged directly *and* taints
        # ``b``, which then leaks through the return on line 7.  The
        # pragma'd read on line 5 neither fires nor seeds taint.
        assert [(f.rule, f.line) for f in findings] == [
            ("determinism", 6), ("determinism-taint", 7),
        ]

    def test_line_pragma_is_rule_specific(self):
        findings, suppressed = lint(
            """\
            import time


            def stamp():
                return time.time()  # lint: allow=hygiene -- wrong rule id
            """
        )
        assert suppressed == 0
        assert [f.rule for f in findings] == ["determinism"]

    def test_file_pragma_suppresses_whole_file(self):
        findings, suppressed = lint(
            """\
            # lint: allow-file=determinism -- wall-clock shim module
            import time


            def stamp():
                return time.time() + time.perf_counter()
            """
        )
        assert findings == []
        assert suppressed == 2

    def test_comma_separated_rules_in_one_pragma(self):
        findings, suppressed = lint(
            """\
            import time


            def stamp(log=[]):  # lint: allow=hygiene,determinism
                log.append(time.time())  # lint: allow=determinism
                return log
            """
        )
        assert findings == []
        assert suppressed == 2

    def test_pragma_inside_string_literal_is_inert(self):
        findings, _ = lint(
            """\
            import time

            DOC = "example:  # lint: allow-file=determinism"


            def stamp():
                return time.time()
            """
        )
        assert [f.rule for f in findings] == ["determinism"]


# --------------------------------------------------------------------- #
# Baseline


class TestBaseline:
    def _findings(self):
        findings, _ = analyze_source(BAD_SOURCE, "src/repro/fake.py")
        assert findings
        return findings

    def test_round_trip(self, tmp_path):
        findings = self._findings()
        baseline = Baseline.from_findings(findings)
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.entries == baseline.entries
        new, grandfathered = loaded.filter(findings)
        assert new == []
        assert grandfathered == len(findings)

    def test_multiplicity_absorbs_exact_count(self):
        findings = self._findings()
        doubled = findings + findings
        baseline = Baseline.from_findings(findings)
        new, grandfathered = baseline.filter(doubled)
        # The duplicate occurrences beyond the baselined count are new.
        assert grandfathered == len(findings)
        assert new == findings

    def test_baseline_is_line_number_insensitive(self):
        findings = self._findings()
        baseline = Baseline.from_findings(findings)
        shifted, _ = analyze_source(
            "# a new leading comment shifts every line\n" + BAD_SOURCE,
            "src/repro/fake.py",
        )
        new, _ = baseline.filter(shifted)
        assert new == []

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": {}}))
        with pytest.raises(ValueError, match="version"):
            Baseline.load(path)

    def test_rejects_malformed_entries(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 1, "entries": {"k": "many"}}))
        with pytest.raises(ValueError, match="malformed"):
            Baseline.load(path)


# --------------------------------------------------------------------- #
# Reporters


class TestReporters:
    def _result(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "bad.py").write_text(BAD_SOURCE)
        return run_lint(tmp_path, targets=["src"])

    def test_json_schema(self, tmp_path):
        result = self._result(tmp_path)
        doc = json.loads(render_json(result))
        assert doc["version"] == JSON_VERSION
        assert doc["clean"] is False
        assert doc["files_scanned"] == 1
        assert doc["suppressed"] == 0
        assert doc["grandfathered"] == 0
        assert doc["parse_errors"] == []
        assert doc["findings"] == [
            {
                "rule": "determinism",
                "path": "src/bad.py",
                "line": 5,
                "col": 11,
                "message": doc["findings"][0]["message"],
            }
        ]
        assert "wall-clock" in doc["findings"][0]["message"]

    def test_text_report_lists_rule_file_line(self, tmp_path):
        result = self._result(tmp_path)
        text = render_text(result)
        assert "src/bad.py:5:11: determinism" in text
        assert "1 new finding(s) in 1 file(s)" in text

    def test_to_document_matches_render_json(self, tmp_path):
        result = self._result(tmp_path)
        assert json.loads(render_json(result)) == to_document(result)


# --------------------------------------------------------------------- #
# Driver


class TestDriver:
    def test_iter_python_files_sorted_and_deduped(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "solo.py").write_text("x = 1\n")
        files = iter_python_files(tmp_path, ["pkg", "solo.py", "pkg"])
        assert [f.name for f in files] == ["a.py", "b.py", "solo.py"]

    def test_parse_errors_are_reported_not_raised(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "broken.py").write_text("def broken(:\n")
        result = run_lint(tmp_path, targets=["src"])
        assert not result.clean
        assert "broken.py" in result.parse_errors[0]

    def test_default_rules_are_fresh_instances(self):
        first, second = default_rules(), default_rules()
        assert {r.id for r in first} == {
            "determinism", "determinism-taint", "obs-hook", "sim-yield",
            "ordered-iteration", "float-parity", "hygiene",
            "capacity-through-scheduler",
        }
        assert all(a is not b for a, b in zip(first, second))


# --------------------------------------------------------------------- #
# CLI


class TestLintCli:
    def _seed(self, tmp_path, source=BAD_SOURCE):
        (tmp_path / "src").mkdir(exist_ok=True)
        (tmp_path / "src" / "bad.py").write_text(source)

    def test_exit_nonzero_and_listing_on_violation(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(["lint", "--root", str(tmp_path), "src"]) == 1
        out = capsys.readouterr().out
        assert "src/bad.py:5:11: determinism" in out

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        self._seed(tmp_path, "x = 1\n")
        assert main(["lint", "--root", str(tmp_path), "src"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_json_flag_emits_schema(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(["lint", "--root", str(tmp_path), "--json", "src"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["rule"] == "determinism"

    def test_baseline_workflow(self, tmp_path, capsys):
        self._seed(tmp_path)
        # 1. grandfather current findings
        assert main(
            ["lint", "--root", str(tmp_path), "--baseline", "--update-baseline", "src"]
        ) == 0
        assert (tmp_path / DEFAULT_BASELINE_NAME).exists()
        capsys.readouterr()
        # 2. clean against the baseline
        assert main(["lint", "--root", str(tmp_path), "--baseline", "src"]) == 0
        assert "grandfathered" in capsys.readouterr().out
        # 3. a NEW violation still fails
        (tmp_path / "src" / "worse.py").write_text("import random\n")
        assert main(["lint", "--root", str(tmp_path), "--baseline", "src"]) == 1
        assert "worse.py:1:0: determinism" in capsys.readouterr().out

    def test_missing_baseline_file_is_an_error(self, tmp_path, capsys):
        self._seed(tmp_path, "x = 1\n")
        assert main(["lint", "--root", str(tmp_path), "--baseline", "src"]) == 2
        assert "baseline file not found" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Self-lint: the repo must stay clean against its committed baseline


class TestSelfLint:
    def test_repo_is_clean_against_committed_baseline(self):
        baseline_path = REPO_ROOT / DEFAULT_BASELINE_NAME
        assert baseline_path.exists(), "committed lint baseline is missing"
        baseline = Baseline.load(baseline_path)
        result = run_lint(REPO_ROOT, baseline=baseline)
        assert result.parse_errors == []
        assert result.new_findings == [], render_text(result)

    def test_committed_baseline_is_minimal(self):
        # Policy: fix or pragma, don't grandfather. The committed
        # baseline must stay empty; delete this test only with a very
        # good reason in the PR description.
        baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME)
        assert len(baseline) == 0


# --------------------------------------------------------------------- #
# Typing: the strict modules must stay mypy-clean (skips when mypy is
# absent; CI installs it via the `lint` extra)


class TestTyping:
    def test_strict_modules_pass_mypy(self):
        pytest.importorskip("mypy")
        proc = subprocess.run(
            [
                sys.executable, "-m", "mypy",
                "src/repro/obs", "src/repro/sim/rng.py",
                "src/repro/analysis", "src/repro/control",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
