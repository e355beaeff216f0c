"""CLI exit-code and end-to-end coverage for ``run`` and ``report``.

Every handler must return its own rc (``main`` forwards it), the ``run``
subcommand must produce a parseable manifest plus a warm-cache second
invocation and write the committed manifest's name only for a full run,
and the report path keeps its contract.
Out-of-range arguments are usage errors (rc 2), never tracebacks.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.runner import DEFAULT_MANIFEST_NAME, experiments
from repro.runner.registry import ExperimentRegistry

# table2 is the cheapest registered experiment (one analytic unit), so
# the CLI round-trips stay fast enough for tier-1.
EXPERIMENT = "table2-host-resources"
REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def one_experiment_registry(monkeypatch):
    """``run`` sees a registry holding only :data:`EXPERIMENT`."""
    only = ExperimentRegistry()
    only.add(experiments.default_registry().get(EXPERIMENT))
    monkeypatch.setattr(experiments, "default_registry", lambda: only)


class TestRunSubcommand:
    def test_end_to_end_writes_manifest(self, workdir, capsys):
        rc = main(["run", EXPERIMENT, "--out", "manifest.json"])
        assert rc == 0
        captured = capsys.readouterr()
        manifest = json.loads((workdir / "manifest.json").read_text())
        assert EXPERIMENT in manifest["experiments"]
        entry = manifest["experiments"][EXPERIMENT]
        assert len(entry["units"]) == 1
        assert all(len(u["fingerprint"]) == 64 for u in entry["units"])
        assert "## " in captured.out          # markdown report
        assert "cache:" in captured.out       # stats block
        assert "wrote manifest.json" in captured.err

    def test_second_invocation_is_all_cache_hits(self, workdir, capsys):
        argv = ["run", EXPERIMENT, "--out", "manifest.json"]
        assert main(argv) == 0
        cold = (workdir / "manifest.json").read_bytes()
        capsys.readouterr()
        assert main(argv) == 0
        assert "hit rate 100%" in capsys.readouterr().out
        assert (workdir / "manifest.json").read_bytes() == cold

    def test_json_flag_prints_exactly_the_manifest(self, workdir, capsys):
        assert main(["run", EXPERIMENT, "--no-cache", "--json",
                     "--out", "manifest.json"]) == 0
        out = capsys.readouterr().out
        assert out == (workdir / "manifest.json").read_text()

    def test_repeated_name_runs_once(self, workdir, capsys):
        """A name given twice is one experiment, run once."""
        assert main(["run", "--no-cache", "--only", EXPERIMENT,
                     "--out", "once.json"]) == 0
        capsys.readouterr()
        assert main(["run", "--no-cache", "--only", EXPERIMENT,
                     "--only", EXPERIMENT, "--out", "twice.json"]) == 0
        assert "experiments 1, units 1," in capsys.readouterr().out
        assert ((workdir / "twice.json").read_bytes()
                == (workdir / "once.json").read_bytes())

    def test_unknown_experiment_is_rc2(self, workdir, capsys):
        assert main(["run", "no-such-experiment"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert not (workdir / DEFAULT_MANIFEST_NAME).exists()

    def test_default_out_is_the_manifest_name(
        self, workdir, capsys, one_experiment_registry
    ):
        """A full run -- every registered experiment, full grids -- is
        the one run that writes the committed manifest's name by default."""
        assert main(["run", "--no-cache"]) == 0
        assert f"wrote {DEFAULT_MANIFEST_NAME}" in capsys.readouterr().err
        manifest = json.loads((workdir / DEFAULT_MANIFEST_NAME).read_text())
        assert list(manifest["experiments"]) == [EXPERIMENT]

    def test_smoke_run_writes_no_manifest(
        self, workdir, capsys, one_experiment_registry
    ):
        assert main(["run", "--smoke", "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "## " in captured.out
        assert "wrote no manifest" in captured.err
        assert list(workdir.iterdir()) == []

    def test_subset_run_leaves_the_committed_manifest_alone(self, workdir, capsys):
        """``run --only X`` from a checkout root used to replace the
        committed nine-experiment manifest with a one-experiment file."""
        committed = (REPO_ROOT / DEFAULT_MANIFEST_NAME).read_bytes()
        (workdir / DEFAULT_MANIFEST_NAME).write_bytes(committed)
        assert main(["run", "--only", EXPERIMENT, "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "## " in captured.out  # the tables still print
        assert "wrote no manifest" in captured.err
        assert (workdir / DEFAULT_MANIFEST_NAME).read_bytes() == committed


class TestReportSubcommand:
    def test_valid_trace_rc0(self, workdir, capsys):
        with obs.installed() as hub:
            hub.emit("step", "unit", t0=0.0, t1=1.0)
            hub.trace.write_jsonl("run.jsonl")
        assert main(["report", "run.jsonl"]) == 0
        assert "Trace report:" in capsys.readouterr().out

    def test_missing_trace_rc2(self, workdir, capsys):
        assert main(["report", "missing.jsonl"]) == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["live", "--duration", "-1"],
        ["gaming", "--resolution", "999p"],
        ["gaming", "--fps", "nan"],
        ["run", "--jobs", "0"],
        ["report", "--timeline", "-1"],
        ["lint", "--root", "/nonexistent"],
        ["run", "--out", "/nonexistent/dir/m.json"],
        # A directory, or no path at all, names no file to write.
        pytest.param(["run", "--out", "."], id="run--out-dir"),
        pytest.param(["run", "--out", ""], id="run--out-empty"),
    ], ids=lambda argv: argv[0] + argv[1])
    def test_rejected_at_parse_time_with_rc2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        command, flag, value = argv
        assert err.splitlines()[-1].startswith(
            f"repro-bench {command}: error: argument {flag}: "
        )
        assert repr(value) in err.splitlines()[-1]

    @pytest.mark.parametrize("path, problem", [
        ("no/such/path.py", "no such path under"),
        ("lint-baseline.json", "not a directory or .py file"),
    ], ids=["missing", "not-python"])
    def test_bad_lint_path_is_rc2(self, path, problem, workdir, capsys):
        """A path that is missing, or neither a directory nor a ``.py``
        file, is a usage error -- not an empty, passing lint run."""
        (workdir / "lint-baseline.json").write_text("{}\n")
        assert main(["lint", path]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.startswith("lint: ") and problem in captured.err
        assert repr(path) in captured.err
        assert "finding" not in captured.out  # nothing was linted

    GOOD_SPAN = '{"seq": 0, "kind": "step", "name": "s", "t0": 0.0, "t1": 1.0}'

    @pytest.mark.parametrize("line, problem", [
        ("not json",
         "not a trace span (Expecting value: line 1 column 1 (char 0))"),
        ('{"seq": 1, "name": "s", "t0": 0.0, "t1": 1.0}',
         "span has no 'kind' field"),
        ("[1, 2]",
         "not a trace span (list indices must be integers or slices, not str)"),
        (GOOD_SPAN + " x",
         "not a trace span (Extra data: line 1 column 63 (char 62))"),
        (GOOD_SPAN + GOOD_SPAN,
         "not a trace span (Extra data: line 1 column 62 (char 61))"),
        ("\ufeff" + GOOD_SPAN,
         "not a trace span (Unexpected UTF-8 BOM (decode using utf-8-sig):"
         " line 1 column 1 (char 0))"),
        (GOOD_SPAN[:-1] + ', "attrs": null}',
         "not a trace span ('NoneType' object is not iterable)"),
        ('{"seq": 1e400, "kind": "k", "name": "s", "t0": 0.0, "t1": 1.0}',
         "not a trace span (cannot convert float infinity to integer)"),
    ], ids=["not-json", "no-kind", "not-an-object", "extra-data",
            "two-objects", "bom", "attrs-null", "seq-inf"])
    def test_bad_trace_line_is_rc2_naming_the_line(
        self, line, problem, workdir, capsys
    ):
        """Each message is the one ``json.loads`` and ``TraceSpan.from_dict``
        give for the line, whichever path the reader took."""
        (workdir / "bad.jsonl").write_text(
            f"{self.GOOD_SPAN}\n\n{line}\n", encoding="utf-8"
        )
        assert main(["report", "bad.jsonl"]) == 2
        err = capsys.readouterr().err
        assert err == f"report: bad trace: bad.jsonl:3: {problem}\n"
