"""Whole-program analysis: the project context and project-rule registry.

PR 4's engine is per-file: a :class:`~repro.analysis.core.Rule` sees one
parsed module and nothing else.  The whole-program passes (architecture
layering, sim-process race detection, state-machine verification) need
the *project*: every module parsed, the resolved import-edge list with
each edge classified by when it executes, and enough symbol-table
structure to resolve a call across module boundaries.

A :class:`ProjectRule` receives one :class:`ProjectContext` and yields
ordinary :class:`~repro.analysis.core.Finding` objects; the driver
(:func:`~repro.analysis.core.run_lint`) applies the same pragma and
baseline machinery as per-file rules, keyed on the file each finding
lands in.  Project rules therefore compose with ``# lint: allow=...``
pragmas and the committed baseline exactly like everything else.

Import edges carry a ``kind``:

* ``toplevel`` -- executes at import time; these are the edges that can
  genuinely deadlock the interpreter in a cycle.
* ``lazy`` -- inside a function body; executes on first call.  A lazy
  edge cannot crash at import time but still couples the packages, so
  the layering pass flags it unless a pragma sanctions it.  A string
  constant ``"<project module>:<attribute>"`` is a lazy edge too: it
  names code that is imported when called (the scenario catalog's
  entries are such strings, resolved by ``catalog.resolve``).
* ``type_checking`` -- under ``if TYPE_CHECKING:``; erased at runtime
  and exempt from layering (this is how ``repro.obs`` stays a runtime
  leaf while still naming transcode types in annotations).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Type

from repro.analysis.core import (
    Finding,
    _import_table,
    _module_name,
    iter_python_files,
)

__all__ = [
    "GRAPH_JSON_VERSION",
    "ImportEdge",
    "ModuleInfo",
    "ProjectContext",
    "ProjectRule",
    "default_project_rules",
    "graph_document",
    "load_project",
    "project_rule_ids",
    "register_project",
    "render_dot",
]

#: Bump when the ``--graph --json`` document shape changes; downstream
#: tooling keys off this (and a CI schema check pins it).
GRAPH_JSON_VERSION = 1

_EDGE_KINDS = ("toplevel", "lazy", "type_checking")

#: A ``"module:attribute"`` string naming code imported at call time.
_MODULE_ATTRIBUTE = re.compile(r"([A-Za-z_][\w.]*):[A-Za-z_][\w.]*")


@dataclass(frozen=True)
class ImportEdge:
    """One resolved module-to-module import."""

    src: str  # importing module (dotted name)
    dst: str  # imported project module (dotted name)
    path: str  # repo-relative path of the importing file
    line: int
    kind: str  # toplevel | lazy | type_checking


class ModuleInfo:
    """One parsed project module plus its local symbol tables."""

    def __init__(self, name: str, path: str, source: str, tree: ast.Module):
        self.name = name
        self.path = path
        self.source = source
        self.tree = tree
        self.is_package = Path(path).name == "__init__.py"
        imports, sites = _scan_imports(tree)
        self.imports = _import_table(imports, name)
        #: Imports and string constants, each with the kind of edge it
        #: makes, in the order :func:`_collect_edges` resolves them.
        self.edge_sites = sites
        #: Top-level function defs by name.
        self.functions: Dict[str, ast.FunctionDef] = {}
        #: Top-level class defs by name.
        self.classes: Dict[str, ast.ClassDef] = {}
        #: Method defs by ``Class.method`` qualname.
        self.methods: Dict[str, ast.FunctionDef] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self.methods[f"{node.name}.{item.name}"] = item

    @property
    def package(self) -> Optional[str]:
        """Top-level package below ``repro`` ('' for repro itself)."""
        parts = self.name.split(".")
        if parts[0] != "repro":
            return None
        return parts[1] if len(parts) > 1 else ""


class ProjectContext:
    """Everything a whole-program rule may look at."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules: Dict[str, ModuleInfo] = {m.name: m for m in modules}
        self.edges: List[ImportEdge] = []
        for info in self.iter_modules():
            self.edges.extend(_collect_edges(info, self.modules))

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "ProjectContext":
        """Build a context from ``{repo-relative-path: source}`` (tests)."""
        modules = []
        for path in sorted(sources):
            source = sources[path]
            modules.append(
                ModuleInfo(_module_name(path), path, source, ast.parse(source))
            )
        return cls(modules)

    def iter_modules(self) -> Iterator[ModuleInfo]:
        """Modules in dotted-name order (the canonical project walk)."""
        for name in sorted(self.modules):
            yield self.modules[name]

    def module_for_path(self, path: str) -> Optional[ModuleInfo]:
        for info in self.modules.values():
            if info.path == path:
                return info
        return None

    def resolve_module(self, dotted: str) -> Optional[str]:
        """Deepest project module named by a dotted path, if any.

        ``repro.control.jobs.JobRequest`` resolves to
        ``repro.control.jobs``: the AST cannot tell a symbol from a
        submodule, so candidates are matched longest-first against the
        modules that actually exist.
        """
        parts = dotted.split(".")
        while parts:
            name = ".".join(parts)
            if name in self.modules:
                return name
            parts.pop()
        return None


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def _scan_imports(
    tree: ast.Module,
) -> Tuple[List[ast.stmt], List[Tuple[ast.AST, str]]]:
    """One walk over ``tree`` for both import readers.

    Returns the import statements in ``ast.walk``'s breadth-first order
    (what :func:`~repro.analysis.core._import_table` reads) and the edge
    sites -- import statements and string constants, each with the kind
    of edge it makes -- in the order :func:`_collect_edges` lists them:
    depth first, except that a ``TYPE_CHECKING`` block's imports follow
    ``ast.walk`` within the block.
    """
    found: List[Tuple[int, ast.stmt]] = []  # (depth, import), depth first
    sites: List[Tuple[ast.AST, str]] = []

    def visit(
        node: ast.AST, depth: int, kind: str,
        block: Optional[List[Tuple[int, ast.stmt]]],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((depth + 1, child))
                if block is None:
                    sites.append((child, kind))
                else:
                    block.append((depth + 1, child))
            elif block is not None:
                visit(child, depth + 1, kind, block)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                sites.append((child, "lazy"))
            elif isinstance(child, ast.If) and _is_type_checking_test(child.test):
                inner: List[Tuple[int, ast.stmt]] = []
                visit(child, depth + 1, kind, inner)
                inner.sort(key=lambda item: item[0])  # stable: walk order
                sites.extend((imp, "type_checking") for _, imp in inner)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, depth + 1, "lazy", None)
            else:
                visit(child, depth + 1, kind, None)

    visit(tree, 0, "toplevel", None)
    found.sort(key=lambda item: item[0])  # stable: ast.walk's order
    return [node for _, node in found], sites


def _collect_edges(
    info: ModuleInfo, modules: Dict[str, ModuleInfo]
) -> List[ImportEdge]:
    """Classified, resolved import edges out of one module."""
    parts = info.name.split(".")
    package_parts = parts if info.is_package else parts[:-1]
    edges: List[ImportEdge] = []

    def resolve(dotted: str) -> Optional[str]:
        candidate = dotted.split(".")
        while candidate:
            name = ".".join(candidate)
            if name in modules:
                return name
            candidate.pop()
        return None

    def record(node: ast.AST, kind: str) -> None:
        targets: List[str] = []
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                prefix = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(prefix + ([node.module] if node.module else []))
            if base:
                # ``from base import name`` may name submodules; resolve
                # both and keep whichever is deepest per alias.
                for alias in node.names:
                    if alias.name != "*":
                        targets.append(f"{base}.{alias.name}")
                if not node.names or all(a.name == "*" for a in node.names):
                    targets.append(base)
        seen = set()
        for dotted in targets or []:
            dst = resolve(dotted)
            if dst is None and isinstance(node, ast.ImportFrom):
                continue
            if dst is None or dst == info.name or dst in seen:
                continue
            seen.add(dst)
            edges.append(
                ImportEdge(
                    src=info.name,
                    dst=dst,
                    path=info.path,
                    line=getattr(node, "lineno", 1),
                    kind=kind,
                )
            )
        # `from base import *` / symbols that didn't resolve individually
        # still establish the base-module edge.
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                prefix = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(prefix + ([node.module] if node.module else []))
            dst = resolve(base) if base else None
            if dst is not None and dst != info.name and dst not in seen:
                edges.append(
                    ImportEdge(
                        src=info.name,
                        dst=dst,
                        path=info.path,
                        line=getattr(node, "lineno", 1),
                        kind=kind,
                    )
                )

    def record_string(node: ast.Constant) -> None:
        match = _MODULE_ATTRIBUTE.fullmatch(node.value)
        dst = match.group(1) if match else None
        if dst is not None and dst in modules and dst != info.name:
            edges.append(
                ImportEdge(
                    src=info.name,
                    dst=dst,
                    path=info.path,
                    line=node.lineno,
                    kind="lazy",
                )
            )

    for node, kind in info.edge_sites:
        if isinstance(node, ast.Constant):
            record_string(node)
        else:
            record(node, kind)
    return edges


# --------------------------------------------------------------------- #
# Project-rule registry (parallel to the per-file registry in core)


class ProjectRule:
    """Base class for whole-program passes.

    Subclass, set ``id``/``summary``, implement :meth:`check` over a
    :class:`ProjectContext`.  Findings land in specific files and are
    pragma/baseline-filtered by the driver like per-file findings.
    """

    id: str = ""
    summary: str = ""

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError


_PROJECT_REGISTRY: Dict[str, Type[ProjectRule]] = {}


def register_project(rule_cls: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator adding a project rule to the default registry."""
    if not rule_cls.id:
        raise ValueError(f"{rule_cls.__name__} has no rule id")
    if rule_cls.id in _PROJECT_REGISTRY:
        raise ValueError(f"duplicate project rule id {rule_cls.id!r}")
    _PROJECT_REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def _ensure_registered() -> None:
    """Import the pass modules so their ``@register_project`` runs.

    Local imports, because each pass module imports this one at top
    level; by the time anything *calls* the registry accessors, this
    module is fully initialised and the cycle is harmless.
    """
    from repro.analysis import layering, races, machines  # noqa: F401


def default_project_rules() -> List[ProjectRule]:
    """Fresh instances of every registered project rule, in order."""
    _ensure_registered()
    return [cls() for cls in _PROJECT_REGISTRY.values()]


def project_rule_ids() -> List[str]:
    _ensure_registered()
    return list(_PROJECT_REGISTRY)


# --------------------------------------------------------------------- #
# Loading and graph emission


def load_project(
    root: Path, targets: Sequence[str] = ("src",)
) -> Tuple[ProjectContext, List[str]]:
    """Parse every python file under ``targets`` into a project context.

    Returns ``(context, parse_errors)``; unparseable files are skipped
    and reported rather than raising, matching :func:`run_lint`.
    """
    root = Path(root)
    modules: List[ModuleInfo] = []
    errors: List[str] = []
    for file_path in iter_python_files(root, list(targets)):
        rel = file_path.relative_to(root).as_posix()
        try:
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source)
        except (SyntaxError, UnicodeDecodeError) as exc:
            errors.append(f"{rel}: {exc.__class__.__name__}: {exc}")
            continue
        modules.append(ModuleInfo(_module_name(rel), rel, source, tree))
    return ProjectContext(modules), errors


def _runtime_package_edges(
    project: ProjectContext,
) -> Dict[str, FrozenSet[str]]:
    """Package -> imported packages over runtime (non-TYPE_CHECKING) edges."""
    out: Dict[str, set] = {}
    for edge in project.edges:
        if edge.kind == "type_checking":
            continue
        src_info = project.modules[edge.src]
        dst_info = project.modules[edge.dst]
        sp, dp = src_info.package, dst_info.package
        if sp is None or dp is None or not sp or not dp or sp == dp:
            continue
        out.setdefault(sp, set()).add(dp)
    return {pkg: frozenset(deps) for pkg, deps in out.items()}


def graph_document(project: ProjectContext) -> Dict[str, object]:
    """The versioned, machine-readable import-graph document."""
    modules = [
        {"name": info.name, "path": info.path, "package": info.package}
        for info in project.iter_modules()
    ]
    edges = [
        {"src": e.src, "dst": e.dst, "kind": e.kind, "line": e.line}
        for e in sorted(
            project.edges, key=lambda e: (e.src, e.dst, e.kind, e.line)
        )
    ]
    packages = {
        pkg: sorted(deps)
        for pkg, deps in sorted(_runtime_package_edges(project).items())
    }
    return {
        "version": GRAPH_JSON_VERSION,
        "modules": modules,
        "edges": edges,
        "packages": packages,
    }


_DOT_STYLE = {
    "toplevel": "",
    "lazy": ' [style=dashed, label="lazy"]',
    "type_checking": ' [style=dotted, color=gray, label="typing"]',
}


def render_dot(project: ProjectContext) -> str:
    """Package-level DOT graph (toplevel solid, lazy dashed, typing dotted)."""
    kinds: Dict[Tuple[str, str], set] = {}
    for edge in project.edges:
        sp = project.modules[edge.src].package
        dp = project.modules[edge.dst].package
        if sp is None or dp is None or not sp or not dp or sp == dp:
            continue
        kinds.setdefault((sp, dp), set()).add(edge.kind)
    lines = [
        "digraph repro {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    names = sorted(
        {p for pair in kinds for p in pair}
        | {
            info.package
            for info in project.modules.values()
            if info.package
        }
    )
    for name in names:
        lines.append(f'  "{name}";')
    for (sp, dp), edge_kinds in sorted(kinds.items()):
        # Strongest kind wins the styling: toplevel > lazy > typing.
        for kind in _EDGE_KINDS:
            if kind in edge_kinds:
                lines.append(f'  "{sp}" -> "{dp}"{_DOT_STYLE[kind]};')
                break
    lines.append("}")
    return "\n".join(lines) + "\n"
