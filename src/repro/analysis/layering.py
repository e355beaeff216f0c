"""Architecture-layering pass: the declared package DAG and its enforcer.

``ALLOWED_DEPS`` is the architecture: for every top-level package under
``repro``, the set of packages it may import at runtime.  The map is the
single place the layering lives — DESIGN.md renders it, ``lint --graph``
draws it, and this pass enforces it.  To sanction a new dependency, add
the edge here (and justify it in DESIGN.md); to sanction a single lazy
import that intentionally violates the layering (the workloads->control
callback shims), pragma the import line:

    from repro.control.jobs import JobRequest  # lint: allow=layering -- reason

Edge semantics:

* ``toplevel`` and ``lazy`` imports are runtime edges and must be
  declared below.  TYPE_CHECKING imports are erased at runtime and
  exempt — annotate freely.
* An import *cycle* over toplevel edges alone is a hard finding on top
  of any allowed-deps findings: it can deadlock or half-initialise the
  interpreter regardless of what the DAG declares.
* ``repro`` never imports test or benchmark code at runtime: an import
  of a module under :data:`TEST_ROOTS` is a finding wherever it sits.
  Those modules are outside the project, so no edge reaches them; the
  pass reads the import statements themselves.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Set, Tuple

from repro.analysis.core import Finding, _import_base, _package_parts
from repro.analysis.project import ProjectContext, ProjectRule, register_project

__all__ = [
    "ALLOWED_DEPS",
    "TEST_ROOTS",
    "ArchitectureLayeringRule",
    "validate_dag",
]

#: Top-level packages of test and benchmark code (``tests.oracles``,
#: ``benchmarks.conftest``, the ``bench`` harness), which ``repro`` may
#: not import at runtime.
TEST_ROOTS: FrozenSet[str] = frozenset({"tests", "benchmarks", "bench"})

#: package -> packages it may import at runtime (toplevel or lazy).
#: Listed bottom-up; every entry's deps must appear earlier — that
#: ordering *is* the layer diagram, and validate_dag() proves it acyclic.
ALLOWED_DEPS: Dict[str, FrozenSet[str]] = {
    # foundation: no runtime deps on any sibling package
    "sim": frozenset(),
    "obs": frozenset(),  # import-only leaf; transcode types via TYPE_CHECKING
    "tco": frozenset(),
    "analysis": frozenset(),  # stdlib-only; runner/cli sit above it
    # modeling stack
    "video": frozenset({"sim"}),
    "metrics": frozenset({"video"}),
    "baselines": frozenset({"video"}),
    "codec": frozenset({"metrics", "video"}),
    "vcu": frozenset({"codec", "obs", "sim", "video"}),
    "harness": frozenset({"codec", "metrics", "video"}),
    "balance": frozenset({"vcu", "video"}),
    # fleet stack
    "transcode": frozenset({"obs", "sim", "vcu", "video"}),
    "failures": frozenset({"obs", "sim", "vcu"}),
    "workloads": frozenset({"baselines", "sim", "transcode", "vcu", "video"}),
    "cluster": frozenset(
        {"baselines", "failures", "obs", "sim", "transcode", "vcu", "workloads"}
    ),
    "control": frozenset(
        {"cluster", "codec", "failures", "obs", "sim", "transcode", "vcu",
         "video", "workloads"}
    ),
    # entry points
    "runner": frozenset(
        {
            "analysis",
            "balance",
            "baselines",
            "cluster",
            "codec",
            "control",
            "harness",
            "metrics",
            "obs",
            "sim",
            "tco",
            "vcu",
            "video",
        }
    ),
    "cli": frozenset(
        {
            "analysis",
            "balance",
            "baselines",
            "cluster",
            "control",
            "harness",
            "metrics",
            "obs",
            "runner",
            "tco",
            "vcu",
            "video",
            "workloads",
        }
    ),
}


def validate_dag(allowed: Mapping[str, FrozenSet[str]]) -> List[str]:
    """Topological order of the declared DAG; raises if it is not one.

    Called at rule construction so a bad edit to ALLOWED_DEPS fails the
    lint run itself (loudly, in CI) rather than silently permitting a
    cycle.
    """
    for pkg, deps in allowed.items():
        for dep in deps:
            if dep not in allowed:
                raise ValueError(
                    f"ALLOWED_DEPS[{pkg!r}] names undeclared package {dep!r}"
                )
        if pkg in deps:
            raise ValueError(f"ALLOWED_DEPS[{pkg!r}] declares a self-dependency")
    order: List[str] = []
    state: Dict[str, int] = {}  # 0 visiting, 1 done

    def visit(pkg: str, stack: Tuple[str, ...]) -> None:
        if state.get(pkg) == 1:
            return
        if state.get(pkg) == 0:
            cycle = " -> ".join(stack[stack.index(pkg) :] + (pkg,))
            raise ValueError(f"ALLOWED_DEPS is cyclic: {cycle}")
        state[pkg] = 0
        for dep in sorted(allowed[pkg]):
            visit(dep, stack + (pkg,))
        state[pkg] = 1
        order.append(pkg)

    for pkg in sorted(allowed):
        visit(pkg, ())
    return order


def _strongly_connected(edges: Mapping[str, Set[str]]) -> List[List[str]]:
    """Tarjan SCCs over a package graph; only multi-node SCCs returned."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    def strongconnect(node: str) -> None:
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for succ in sorted(edges.get(node, ())):
            if succ not in index:
                strongconnect(succ)
                low[node] = min(low[node], low[succ])
            elif succ in on_stack:
                low[node] = min(low[node], index[succ])
        if low[node] == index[node]:
            component: List[str] = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1:
                sccs.append(sorted(component))

    for node in sorted(edges):
        if node not in index:
            strongconnect(node)
    return sccs


@register_project
class ArchitectureLayeringRule(ProjectRule):
    """Enforce the declared package DAG over runtime import edges."""

    id = "layering"
    summary = "package imports must follow the declared architecture DAG"

    def __init__(self, allowed: Optional[Mapping[str, FrozenSet[str]]] = None) -> None:
        self.allowed = dict(ALLOWED_DEPS if allowed is None else allowed)
        validate_dag(self.allowed)

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        toplevel_edges: Dict[str, Set[str]] = {}
        edge_sites: Dict[Tuple[str, str], Tuple[str, int, str, str]] = {}
        findings: List[Finding] = []
        for edge in project.edges:
            if edge.kind == "type_checking":
                continue
            src_pkg = project.modules[edge.src].package
            dst_pkg = project.modules[edge.dst].package
            if not src_pkg or not dst_pkg or src_pkg == dst_pkg:
                continue
            if src_pkg not in self.allowed:
                findings.append(
                    Finding(
                        rule=self.id,
                        path=edge.path,
                        line=edge.line,
                        col=0,
                        message=(
                            f"package '{src_pkg}' is not declared in the "
                            "architecture DAG; add it to "
                            "repro.analysis.layering.ALLOWED_DEPS"
                        ),
                    )
                )
                continue
            if edge.kind == "toplevel":
                toplevel_edges.setdefault(src_pkg, set()).add(dst_pkg)
                edge_sites.setdefault(
                    (src_pkg, dst_pkg), (edge.path, edge.line, edge.src, edge.dst)
                )
            if dst_pkg not in self.allowed[src_pkg]:
                findings.append(
                    Finding(
                        rule=self.id,
                        path=edge.path,
                        line=edge.line,
                        col=0,
                        message=(
                            f"package '{src_pkg}' may not import "
                            f"'{dst_pkg}' ({edge.src} imports {edge.dst}, "
                            f"{edge.kind}); declare the edge in "
                            "repro.analysis.layering.ALLOWED_DEPS or pragma "
                            "a sanctioned lazy import"
                        ),
                    )
                )
        findings.extend(self._test_imports(project))
        # Hard cycles: SCCs over import-time edges only.  The DAG check
        # above already flags at least one direction, but a cycle is a
        # distinct, worse defect (import order dependent half-init), so
        # it gets its own finding anchored at one participating import.
        for component in _strongly_connected(toplevel_edges):
            members = set(component)
            anchor = min(
                site
                for (sp, dp), site in edge_sites.items()
                if sp in members and dp in members
            )
            findings.append(
                Finding(
                    rule=self.id,
                    path=anchor[0],
                    line=anchor[1],
                    col=0,
                    message=(
                        "import-time cycle between packages "
                        f"{', '.join(component)}; break it with a lazy "
                        "import or an inversion, do not pragma it"
                    ),
                )
            )
        findings.sort(key=lambda f: (f.path, f.line, f.message))
        for finding in findings:
            yield finding

    def _test_imports(self, project: ProjectContext) -> Iterator[Finding]:
        """Runtime imports of :data:`TEST_ROOTS` modules from ``repro``."""
        for info in project.iter_modules():
            if info.package is None:
                continue
            package_parts = _package_parts(info.name, info.is_package)
            for node, kind in info.edge_sites:
                if kind == "type_checking":
                    continue
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    targets = [_import_base(node, package_parts)]
                else:
                    continue
                for target in targets:
                    if target.partition(".")[0] in TEST_ROOTS:
                        yield Finding(
                            rule=self.id,
                            path=info.path,
                            line=node.lineno,
                            col=0,
                            message=(
                                f"{info.name} imports {target} ({kind}); "
                                "src/ may not import test or benchmark code"
                            ),
                        )
