"""Whole-program analysis passes: import graph, layering, races, machines.

Mirrors the per-file suite in test_analysis_rules.py: every pass gets a
true-positive, a clean case, and a pragma case, plus hypothesis property
coverage for the DAG validator and a schema-stability pin for the
``--graph --json`` document.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.layering import (
    ALLOWED_DEPS,
    ArchitectureLayeringRule,
    validate_dag,
)
from repro.analysis.core import FileContext, _import_table, run_lint
from repro.analysis.machines import MachineSpec, StateMachineRule
from repro.analysis.project import (
    GRAPH_JSON_VERSION,
    ProjectContext,
    default_project_rules,
    graph_document,
    load_project,
    render_dot,
)
from repro.analysis.races import SimRaceRule
from repro.cli import main

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def ctx(sources):
    return ProjectContext.from_sources(
        {path: textwrap.dedent(src) for path, src in sources.items()}
    )


def check(rule, sources):
    return list(rule.check(ctx(sources)))


# --------------------------------------------------------------------- #
# Import-graph construction


class TestImportGraph:
    def test_edge_kind_classification(self):
        project = ctx({
            "src/repro/a.py": """\
                import repro.b
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.c import Thing


                def late():
                    from repro import c
                    return c
                """,
            "src/repro/b.py": "x = 1\n",
            "src/repro/c.py": "class Thing: pass\n",
        })
        kinds = {(e.src, e.dst): e.kind for e in project.edges}
        assert kinds[("repro.a", "repro.b")] == "toplevel"
        assert kinds[("repro.a", "repro.c")] in ("type_checking", "lazy")
        by_kind = sorted(e.kind for e in project.edges)
        assert by_kind == ["lazy", "toplevel", "type_checking"]

    def test_module_attribute_string_is_a_lazy_edge(self):
        project = ctx({
            "src/repro/x.py": "def attr(): pass\n",
            "src/repro/y.py": """\
                ENTRIES = (
                    "repro.x:attr",
                    "repro.y:own",
                    "repro.nowhere:attr",
                    "repro.x.inner:attr",
                    "numpy:array",
                    "repro.x",
                    "see repro.x:attr",
                )


                def own():
                    return "repro.x:attr"
                """,
        })
        edges = [(e.src, e.dst, e.kind, e.line) for e in project.edges]
        assert edges == [
            ("repro.y", "repro.x", "lazy", 2),
            ("repro.y", "repro.x", "lazy", 13),
        ]

    def test_relative_import_resolves_to_sibling(self):
        project = ctx({
            "src/repro/pkg/__init__.py": "",
            "src/repro/pkg/a.py": "from . import b\nfrom .b import helper\n",
            "src/repro/pkg/b.py": "def helper(): pass\n",
        })
        dsts = {e.dst for e in project.edges if e.src == "repro.pkg.a"}
        assert "repro.pkg.b" in dsts

    def test_package_init_relative_import_resolves_in_the_package(self):
        """A package ``__init__`` is inside its own package, so its
        relative import names the same module in the import table (what
        the per-file and whole-program rules read) as in the edge."""
        init = "src/repro/pkg/__init__.py"
        sources = {init: "from .core import thing", "src/repro/pkg/core.py": "thing = 1"}
        project = ProjectContext.from_sources(sources)
        assert project.modules["repro.pkg"].imports == {"thing": "repro.pkg.core.thing"}
        assert [(e.src, e.dst) for e in project.edges] == [("repro.pkg", "repro.pkg.core")]
        tree = ast.parse(sources[init])
        assert FileContext(init, sources[init], tree).imports == {
            "thing": "repro.pkg.core.thing"
        }

    def test_from_import_resolves_symbol_to_module(self):
        project = ctx({
            "src/repro/a.py": "from repro.b import helper\n",
            "src/repro/b.py": "def helper(): pass\n",
        })
        assert [(e.src, e.dst) for e in project.edges] == [("repro.a", "repro.b")]

    def test_graph_document_schema_is_stable(self):
        project = ctx({
            "src/repro/video/frame.py": "x = 1\n",
            "src/repro/metrics/quality.py": "from repro.video import frame\n",
        })
        doc = graph_document(project)
        assert doc["version"] == GRAPH_JSON_VERSION == 1
        assert set(doc) == {"version", "modules", "edges", "packages"}
        assert all(set(m) == {"name", "path", "package"} for m in doc["modules"])
        assert all(
            set(e) == {"src", "dst", "kind", "line"} for e in doc["edges"]
        )
        assert doc["packages"] == {"metrics": ["video"]}

    def test_type_checking_edges_stay_out_of_package_deps(self):
        project = ctx({
            "src/repro/video/frame.py": textwrap.dedent("""\
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.metrics.quality import RDPoint
                """),
            "src/repro/metrics/quality.py": "class RDPoint: pass\n",
        })
        doc = graph_document(project)
        assert doc["packages"].get("video", []) == []

    def test_render_dot_styles_by_kind(self):
        project = ctx({
            "src/repro/video/frame.py": "x = 1\n",
            "src/repro/metrics/quality.py": textwrap.dedent("""\
                from repro.video import frame


                def late():
                    from repro.video import frame as f
                    return f
                """),
        })
        dot = render_dot(project)
        assert dot.startswith("digraph repro {")
        assert '"metrics" -> "video";' in dot  # toplevel beats lazy

    def test_one_walk_keeps_both_readers_orders(self):
        """The import table is read in ``ast.walk``'s breadth-first order
        (a later import of a name wins), and a ``TYPE_CHECKING`` block's
        edges are listed in that order too; both come from one walk."""
        source = textwrap.dedent("""\
            from typing import TYPE_CHECKING


            def late():
                from repro.b import helper as h
                return h


            from repro.c import thing as h

            if TYPE_CHECKING:
                if True:
                    from repro.b import helper
                from repro.c import thing
            """)
        project = ctx({
            "src/repro/a.py": source,
            "src/repro/b.py": "def helper(): pass\n",
            "src/repro/c.py": "thing = 1\n",
        })
        info = project.modules["repro.a"]
        walked = _import_table(ast.walk(ast.parse(source)), "repro.a", False)
        assert info.imports == walked
        assert info.imports["h"] == "repro.b.helper"  # deeper, so later
        edges = [(e.dst, e.kind, e.line) for e in project.edges]
        assert edges == [
            ("repro.b", "lazy", 5),
            ("repro.c", "toplevel", 9),
            ("repro.c", "type_checking", 14),
            ("repro.b", "type_checking", 13),
        ]

    def test_load_project_reports_parse_errors(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "ok.py").write_text("x = 1\n")
        (tmp_path / "src" / "broken.py").write_text("def broken(:\n")
        project, errors = load_project(tmp_path, ("src",))
        assert len(errors) == 1 and "broken.py" in errors[0]
        assert project.module_for_path("src/ok.py") is not None


class TestLazyPackage:
    def test_registry_import_loads_no_lint_rule(self):
        """The experiment registry needs only the import graph; the rule
        modules load when a rule list is first read."""
        code = textwrap.dedent("""\
            import sys
            import repro.runner.experiments
            rules = ("repro.analysis.rules", "repro.analysis.races",
                     "repro.analysis.machines")
            print([name for name in rules if name in sys.modules])
            from repro.analysis import default_project_rules, default_rules
            print([rule.id for rule in default_rules()])
            print([rule.id for rule in default_project_rules()])
            """)
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        ).stdout.splitlines()
        assert out == [
            "[]",
            str([
                "determinism", "obs-hook", "sim-yield", "ordered-iteration",
                "float-parity", "hygiene", "capacity-through-scheduler",
                "determinism-taint",
            ]),
            str(["layering", "sim-race", "state-machine"]),
        ]


# --------------------------------------------------------------------- #
# Architecture layering


TINY_DAG = {
    "video": frozenset(),
    "metrics": frozenset({"video"}),
}


class TestLayering:
    def test_undeclared_dependency_is_flagged(self):
        findings = check(ArchitectureLayeringRule(TINY_DAG), {
            "src/repro/video/frame.py": "from repro.metrics import quality\n",
            "src/repro/metrics/quality.py": "x = 1\n",
        })
        assert [f.rule for f in findings] == ["layering"]
        assert "video" in findings[0].message
        assert findings[0].path == "src/repro/video/frame.py"

    def test_declared_dependency_is_clean(self):
        findings = check(ArchitectureLayeringRule(TINY_DAG), {
            "src/repro/metrics/quality.py": "from repro.video import frame\n",
            "src/repro/video/frame.py": "x = 1\n",
        })
        assert findings == []

    def test_lazy_imports_must_still_be_declared(self):
        findings = check(ArchitectureLayeringRule(TINY_DAG), {
            "src/repro/video/frame.py": textwrap.dedent("""\
                def late():
                    from repro.metrics import quality
                    return quality
                """),
            "src/repro/metrics/quality.py": "x = 1\n",
        })
        assert [f.rule for f in findings] == ["layering"]
        assert "lazy" in findings[0].message

    def test_type_checking_imports_are_exempt(self):
        findings = check(ArchitectureLayeringRule(TINY_DAG), {
            "src/repro/video/frame.py": textwrap.dedent("""\
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.metrics.quality import RDPoint
                """),
            "src/repro/metrics/quality.py": "class RDPoint: pass\n",
        })
        assert findings == []

    def test_import_time_cycle_is_flagged_as_cycle(self):
        findings = check(ArchitectureLayeringRule(TINY_DAG), {
            "src/repro/video/frame.py": "from repro.metrics import quality\n",
            "src/repro/metrics/quality.py": "from repro.video import frame\n",
        })
        assert any("cycle" in f.message for f in findings)

    def test_pragma_exempts_sanctioned_lazy_import(self, tmp_path):
        (tmp_path / "src" / "repro" / "video").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "metrics").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "video" / "frame.py").write_text(
            "def late():\n"
            "    from repro.metrics import quality"
            "  # lint: allow=layering -- sanctioned\n"
            "    return quality\n"
        )
        (tmp_path / "src" / "repro" / "metrics" / "quality.py").write_text(
            "x = 1\n"
        )
        result = run_lint(
            tmp_path, targets=["src"], rules=[],
            project_rules=[ArchitectureLayeringRule(TINY_DAG)],
        )
        assert result.findings == []
        assert result.suppressed == 1

    def test_committed_dag_is_valid_and_rule_registry_complete(self):
        validate_dag(ALLOWED_DEPS)
        ids = {rule.id for rule in default_project_rules()}
        assert ids == {"layering", "sim-race", "state-machine"}

    def test_validate_dag_rejects_self_and_unknown_deps(self):
        with pytest.raises(ValueError, match="self-dependency"):
            validate_dag({"a": frozenset({"a"})})
        with pytest.raises(ValueError, match="undeclared"):
            validate_dag({"a": frozenset({"ghost"})})

    @given(
        st.integers(min_value=2, max_value=8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(
                    st.tuples(
                        st.integers(0, n - 1), st.integers(0, n - 1)
                    ).filter(lambda p: p[0] < p[1]),
                    max_size=12,
                ),
            )
        )
    )
    def test_dag_validator_accepts_dags_rejects_cycles(self, case):
        n, edges = case
        allowed = {f"p{i}": frozenset() for i in range(n)}
        for lo, hi in edges:
            allowed[f"p{hi}"] = allowed[f"p{hi}"] | {f"p{lo}"}
        order = validate_dag(allowed)
        assert sorted(order) == sorted(allowed)
        # Every declared dep appears before its dependant.
        pos = {pkg: i for i, pkg in enumerate(order)}
        assert all(
            pos[dep] < pos[pkg]
            for pkg, deps in allowed.items()
            for dep in deps
        )
        if edges:
            lo, hi = sorted(edges)[0]
            cyclic = dict(allowed)
            cyclic[f"p{lo}"] = cyclic[f"p{lo}"] | {f"p{hi}"}
            with pytest.raises(ValueError, match="cyclic"):
                validate_dag(cyclic)


# --------------------------------------------------------------------- #
# Sim-process race detection


class TestSimRace:
    SHARED_WRITERS = {
        "src/repro/shared.py": """\
            LEDGER = []


            def writer_a():
                LEDGER.append("a")
                yield 1.0


            def writer_b():
                LEDGER.append("b")
                yield 1.0
            """,
        "src/repro/boot.py": """\
            from repro.shared import writer_a, writer_b


            def start(sim):
                sim.process(writer_a())
                sim.process(writer_b())
            """,
    }

    def test_shared_state_written_from_two_roots(self):
        findings = check(SimRaceRule(), self.SHARED_WRITERS)
        assert [f.rule for f in findings] == ["sim-race"]
        finding = findings[0]
        assert finding.path == "src/repro/shared.py" and finding.line == 1
        assert "writer_a" in finding.message and "writer_b" in finding.message

    def test_single_root_writer_is_clean(self):
        findings = check(SimRaceRule(), {
            "src/repro/shared.py": """\
                LEDGER = []


                def writer_a():
                    LEDGER.append("a")
                    yield 1.0


                def reader_b():
                    n = len(LEDGER)
                    yield float(n)
                """,
            "src/repro/boot.py": """\
                from repro.shared import writer_a, reader_b


                def start(sim):
                    sim.process(writer_a())
                    sim.process(reader_b())
                """,
        })
        assert findings == []

    def test_instance_rebound_attribute_is_not_shared(self):
        findings = check(SimRaceRule(), {
            "src/repro/shared.py": """\
                class Worker:
                    backlog = []

                    def __init__(self):
                        self.backlog = []

                    def run_a(self):
                        self.backlog.append("a")
                        yield 1.0

                    def run_b(self):
                        self.backlog.append("b")
                        yield 1.0
                """,
            "src/repro/boot.py": """\
                from repro.shared import Worker


                def start(sim):
                    w1, w2 = Worker(), Worker()
                    sim.process(w1.run_a())
                    sim.process(w2.run_b())
                """,
        })
        assert findings == []

    def test_yield_from_helper_blocking_call_is_reached(self):
        findings = check(SimRaceRule(), {
            "src/repro/proc.py": """\
                from repro.helpers import pause


                def worker():
                    yield from pause()


                def start(sim):
                    sim.process(worker())
                """,
            "src/repro/helpers.py": """\
                import time


                def pause():
                    time.sleep(1.0)
                    yield 1.0
                """,
        })
        assert [f.rule for f in findings] == ["sim-race"]
        assert "yield from" in findings[0].message
        assert findings[0].path == "src/repro/helpers.py"

    def test_race_pragma_on_definition_line(self, tmp_path):
        base = tmp_path / "src" / "repro"
        base.mkdir(parents=True)
        (base / "shared.py").write_text(
            "LEDGER = []"
            "  # lint: allow=sim-race -- drained before inspection\n"
            "\n\n"
            "def writer_a():\n"
            "    LEDGER.append('a')\n"
            "    yield 1.0\n"
            "\n\n"
            "def writer_b():\n"
            "    LEDGER.append('b')\n"
            "    yield 1.0\n"
        )
        (base / "boot.py").write_text(
            "from repro.shared import writer_a, writer_b\n"
            "\n\n"
            "def start(sim):\n"
            "    sim.process(writer_a())\n"
            "    sim.process(writer_b())\n"
        )
        result = run_lint(
            tmp_path, targets=["src"], rules=[], project_rules=[SimRaceRule()]
        )
        assert result.findings == []
        assert result.suppressed == 1


# --------------------------------------------------------------------- #
# State-machine verification


FSM_STATES = textwrap.dedent("""\
    from enum import Enum


    class Phase(Enum):
        IDLE = "idle"
        RUN = "run"
        DONE = "done"


    LEGAL = {
        Phase.IDLE: (Phase.RUN,),
        Phase.RUN: (Phase.DONE,),
        Phase.DONE: (),
    }
    """)

FSM_MACHINE = textwrap.dedent("""\
    from repro.fsm.states import LEGAL, Phase


    class Box:
        def __init__(self):
            self.phase = Phase.IDLE

        def transition(self, new):
            if new not in LEGAL[self.phase]:
                raise RuntimeError("illegal")
            self.phase = new

        def start(self):
            if self.phase is Phase.IDLE:
                self.transition(Phase.RUN)

        def finish(self):
            if self.phase is Phase.RUN:
                self.transition(Phase.DONE)
    """)

FSM_SPEC = MachineSpec(
    name="phase",
    enum_module="repro.fsm.states",
    enum_name="Phase",
    table_module="repro.fsm.states",
    table_name="LEGAL",
    choke_module="repro.fsm.machine",
    choke_class="Box",
    choke_method="transition",
    state_attr="phase",
    initial=("IDLE",),
    scope_packages=("fsm",),
)


def fsm_sources(machine=FSM_MACHINE, states=FSM_STATES):
    return {
        "src/repro/fsm/__init__.py": "",
        "src/repro/fsm/states.py": states,
        "src/repro/fsm/machine.py": machine,
    }


class TestStateMachine:
    def rule(self):
        return StateMachineRule(specs=[FSM_SPEC])

    def test_well_formed_machine_is_clean(self):
        assert check(self.rule(), fsm_sources()) == []

    def test_undeclared_transition_site_is_flagged(self):
        machine = FSM_MACHINE + textwrap.dedent("""\

            def rewind(box):
                if box.phase is Phase.DONE:
                    box.transition(Phase.IDLE)
            """)
        findings = check(self.rule(), fsm_sources(machine))
        assert any(
            "DONE -> IDLE" in f.message and "does not declare" in f.message
            for f in findings
        )

    def test_uncovered_declared_transition_anchors_at_table(self):
        machine = FSM_MACHINE.replace(
            "    def finish(self):\n"
            "        if self.phase is Phase.RUN:\n"
            "            self.transition(Phase.DONE)\n",
            "",
        )
        findings = check(self.rule(), fsm_sources(machine))
        assert any(
            "RUN -> DONE" in f.message and "no runtime site" in f.message
            and f.path == "src/repro/fsm/states.py"
            for f in findings
        )

    def test_stray_state_write_outside_choke(self):
        machine = FSM_MACHINE + textwrap.dedent("""\

            def hack(box):
                box.phase = Phase.DONE
            """)
        findings = check(self.rule(), fsm_sources(machine))
        assert any("bypasses Box.transition" in f.message for f in findings)

    def test_missing_table_entry_for_member(self):
        states = FSM_STATES.replace("    Phase.DONE: (),\n", "")
        findings = check(self.rule(), fsm_sources(states=states))
        assert any(
            "'DONE' has no entry" in f.message for f in findings
        )

    def test_declared_self_loop_is_flagged(self):
        states = FSM_STATES.replace(
            "Phase.RUN: (Phase.DONE,),", "Phase.RUN: (Phase.RUN, Phase.DONE),"
        )
        findings = check(self.rule(), fsm_sources(states=states))
        assert any("self-loop" in f.message for f in findings)

    def test_unreachable_state_is_flagged(self):
        states = FSM_STATES.replace(
            "Phase.IDLE: (Phase.RUN,),", "Phase.IDLE: (Phase.DONE,),"
        ).replace(
            "Phase.DONE: (),", "Phase.DONE: (Phase.IDLE,),"
        )
        machine = """\
            from repro.fsm.states import LEGAL, Phase


            class Box:
                def __init__(self):
                    self.phase = Phase.IDLE

                def transition(self, new):
                    if new not in LEGAL[self.phase]:
                        raise RuntimeError("illegal")
                    self.phase = new
            """
        findings = check(self.rule(), fsm_sources(machine, states))
        assert any("'RUN' is unreachable" in f.message for f in findings)

    def test_site_pragma_suppresses(self, tmp_path):
        base = tmp_path / "src" / "repro" / "fsm"
        base.mkdir(parents=True)
        (base / "__init__.py").write_text("")
        (base / "states.py").write_text(textwrap.dedent(FSM_STATES))
        machine = textwrap.dedent(FSM_MACHINE) + (
            "\n"
            "def rewind(box):\n"
            "    if box.phase is Phase.DONE:\n"
            "        box.transition(Phase.IDLE)"
            "  # lint: allow=state-machine -- test-only reset\n"
        )
        (base / "machine.py").write_text(machine)
        result = run_lint(
            tmp_path, targets=["src"], rules=[],
            project_rules=[StateMachineRule(specs=[FSM_SPEC])],
        )
        assert result.findings == []
        assert result.suppressed == 1

    def test_default_machines_hold_on_the_real_tree(self):
        project, errors = load_project(REPO_ROOT, ("src",))
        assert errors == []
        assert list(StateMachineRule().check(project)) == []


# --------------------------------------------------------------------- #
# CLI: --graph and --changed-only


class TestGraphCli:
    def test_graph_json_schema(self, capsys):
        assert main(["lint", "--root", str(REPO_ROOT), "--graph", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert set(doc) == {"version", "modules", "edges", "packages"}
        # The committed DAG must cover every runtime package edge.
        for pkg, deps in doc["packages"].items():
            declared = ALLOWED_DEPS.get(pkg, frozenset())
            undeclared = [
                d for d in deps if d not in declared and d != pkg
            ]
            assert pkg in ALLOWED_DEPS
            # The sanctioned workloads->control pragma is the only hole.
            assert undeclared in ([], ["control"]), (pkg, undeclared)

    def test_graph_dot_output(self, capsys):
        assert main(["lint", "--root", str(REPO_ROOT), "--graph"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph repro {")
        assert '"cluster" -> "vcu"' in out


def git(cwd, *argv):
    subprocess.run(
        ["git", "-c", "user.email=t@example.com", "-c", "user.name=t",
         *argv],
        cwd=cwd, check=True, capture_output=True,
    )


class TestChangedOnlyCli:
    def _repo(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "steady.py").write_text("import random\n")  # old finding
        (src / "edited.py").write_text("x = 1\n")
        git(tmp_path, "init", "-q")
        git(tmp_path, "add", "-A")
        git(tmp_path, "commit", "-q", "-m", "seed")
        return src

    def test_only_changed_files_are_linted(self, tmp_path, capsys):
        src = self._repo(tmp_path)
        (src / "edited.py").write_text("import time\nT = time.time()\n")
        rc = main([
            "lint", "--root", str(tmp_path), "--changed-only", "--base", "HEAD",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "edited.py" in out
        assert "steady.py" not in out  # unchanged finding not rescanned

    def test_deleted_file_is_skipped_silently(self, tmp_path, capsys):
        """``git diff --name-only`` lists deleted files; they are not
        user-given paths, so they are skipped, not a usage error."""
        src = self._repo(tmp_path)
        (src / "edited.py").unlink()
        rc = main([
            "lint", "--root", str(tmp_path), "--changed-only", "--base", "HEAD",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        assert "0 new finding(s) in 0 file(s)" in captured.out

    def test_no_changes_is_a_clean_noop(self, tmp_path, capsys):
        self._repo(tmp_path)
        rc = main([
            "lint", "--root", str(tmp_path), "--changed-only", "--base", "HEAD",
        ])
        assert rc == 0
        assert "no python files changed" in capsys.readouterr().out

    def test_unresolvable_base_is_rc2_naming_the_ref(self, tmp_path, capsys):
        """A checkout that cannot resolve ``--base`` is a usage error, not
        a silent full lint that exits 0."""
        self._repo(tmp_path)
        rc = main([
            "lint", "--root", str(tmp_path), "--changed-only",
            "--base", "no-such-ref",
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(
            "lint: cannot diff against --base 'no-such-ref': "
        )
        assert "linting everything" not in captured.err
        assert captured.out == ""  # nothing was linted

    def test_root_outside_a_checkout_lints_everything(self, tmp_path, capsys):
        """Without a checkout there is nothing to diff: the per-file
        rules run on every file, and the run says so."""
        src = tmp_path / "src"
        src.mkdir()
        (src / "steady.py").write_text("import random\n")
        rc = main(["lint", "--root", str(tmp_path), "--changed-only"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "linting everything" in captured.err
        assert "steady.py" in captured.out
