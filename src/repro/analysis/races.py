"""Sim-process race detector and cross-module sim-yield extension.

The engine is single-threaded, but *virtual-time* interleaving is real:
two processes that both mutate one module- or class-level container
observe each other in whatever order the calendar fires them, and a tie
in timestamps makes that order an implementation detail.  The per-file
``sim-yield`` rule cannot see either hazard when the generator, the
spawn site, and the shared state live in different modules.

This project pass:

1. Collects every spawn root -- the generator callables handed to
   ``<sim>.process(...)`` anywhere in the project -- resolving local
   functions, ``self.method`` spawns, and imported callables.
2. Follows ``yield from`` delegation out of those roots and applies the
   sim-yield checks (sanctioned yield shapes, no blocking I/O) to helper
   generators the per-file rule cannot attribute to a process.
3. Builds the intra-project call graph from the roots and flags shared
   mutable state (module globals and class-body containers) written from
   two or more *distinct* roots.  One owner process mutating state is a
   fine pattern; two is a virtual-time race unless an ordering mechanism
   exists -- which is exactly what the pragma reason should name::

       _LEDGER: List[str] = []  # lint: allow=sim-race -- appends are commutative

Findings land on the shared state's definition line (the thing to fix),
with the racing roots named in the message.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import Finding, dotted_name
from repro.analysis.project import (
    ModuleInfo,
    ProjectContext,
    ProjectRule,
    register_project,
)
from repro.analysis.rules import SimYieldRule, _walk_scope

__all__ = ["SimRaceRule"]

#: (module dotted name, qualname) -- the identity of one project callable.
FuncId = Tuple[str, str]

#: Container mutators that write in place.
_MUTATORS = frozenset(
    {
        "append", "appendleft", "extend", "extendleft", "insert",
        "add", "update", "setdefault", "pop", "popleft", "popitem",
        "remove", "discard", "clear", "push",
    }
)

#: Constructor calls that build mutable containers.
_MUTABLE_CALLS = frozenset(
    {
        "list", "dict", "set", "bytearray",
        "collections.defaultdict", "collections.deque",
        "collections.OrderedDict", "collections.Counter",
        "defaultdict", "deque", "OrderedDict", "Counter",
    }
)


def _is_mutable_literal(node: Optional[ast.expr], imports: Dict[str, str]) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                         ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func, imports)
        return dotted in _MUTABLE_CALLS
    return False


class _FuncInfo:
    """One project callable with its resolved outgoing edges."""

    def __init__(self, func_id: FuncId, node: ast.FunctionDef, cls: Optional[str]):
        self.id = func_id
        self.node = node
        self.cls = cls
        self.calls: Set[FuncId] = set()  # plain calls + delegations
        self.delegations: Set[FuncId] = set()  # yield-from edges only


@register_project
class SimRaceRule(ProjectRule):
    """Shared mutable state written from two or more sim-process roots."""

    id = "sim-race"
    summary = (
        "module/class mutable state written from >=2 sim-process roots; "
        "yield-from helpers obey sim-yield across modules"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        index = _ProjectIndex(project)
        findings: List[Finding] = []
        findings.extend(index.delegation_yield_findings(self.id))
        findings.extend(index.race_findings(self.id))
        findings.sort(key=lambda f: (f.path, f.line, f.message))
        return iter(findings)


class _ProjectIndex:
    """Call graph, spawn roots, and shared-state tables for one project."""

    def __init__(self, project: ProjectContext):
        self.project = project
        self.funcs: Dict[FuncId, _FuncInfo] = {}
        #: (module, global name) or (module, "Cls.attr") -> (path, line, kind)
        self.shared: Dict[Tuple[str, str], Tuple[str, int, str]] = {}
        self.roots: Set[FuncId] = set()
        #: Functions whose own file spawns them by name (per-file rule
        #: already applies the yield checks there).
        self.locally_spawned: Set[FuncId] = set()
        for info in project.iter_modules():
            self._index_module(info)
        self._resolve_edges()
        self.reachable_roots = self._propagate_roots()

    # -- per-module indexing --------------------------------------------- #

    def _index_module(self, info: ModuleInfo) -> None:
        for name, node in info.functions.items():
            self.funcs[(info.name, name)] = _FuncInfo((info.name, name), node, None)
        for qual, node in info.methods.items():
            cls = qual.split(".", 1)[0]
            self.funcs[(info.name, qual)] = _FuncInfo((info.name, qual), node, cls)
        local_names = SimYieldRule._process_generator_names(
            _CtxShim(info)  # type: ignore[arg-type]
        )
        for name in local_names:
            for qual in (name, *(q for q in info.methods if q.endswith(f".{name}"))):
                if (info.name, qual) in self.funcs:
                    self.locally_spawned.add((info.name, qual))
        # Shared state: module globals bound to mutable containers...
        for stmt in info.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = list(stmt.targets), stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            if value is None or not _is_mutable_literal(value, info.imports):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self.shared[(info.name, target.id)] = (
                        info.path, stmt.lineno, "module global",
                    )
        # ...and class-body containers (shared across every instance).
        for cls_name, cls in info.classes.items():
            for stmt in cls.body:
                targets, value = [], None
                if isinstance(stmt, ast.Assign):
                    targets, value = list(stmt.targets), stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    targets, value = [stmt.target], stmt.value
                if value is None or not _is_mutable_literal(value, info.imports):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.shared[(info.name, f"{cls_name}.{target.id}")] = (
                            info.path, stmt.lineno, "class attribute",
                        )

    # -- call-graph construction ------------------------------------------ #

    def _resolve_callee(
        self, info: ModuleInfo, cls: Optional[str], func: ast.expr
    ) -> Optional[FuncId]:
        if isinstance(func, ast.Name):
            if func.id in info.functions:
                return (info.name, func.id)
            dotted = info.imports.get(func.id)
            if dotted is not None:
                return self._resolve_dotted(dotted)
            return None
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and cls is not None
            ):
                qual = f"{cls}.{func.attr}"
                if (info.name, qual) in self.funcs:
                    return (info.name, qual)
                return None
            dotted = dotted_name(func, info.imports)
            if dotted is not None:
                return self._resolve_dotted(dotted)
        return None

    def _resolve_dotted(self, dotted: str) -> Optional[FuncId]:
        module = self.project.resolve_module(dotted)
        if module is None or module == dotted:
            return None
        remainder = dotted[len(module) + 1 :]
        info = self.project.modules[module]
        if remainder in info.functions or remainder in info.methods:
            return (module, remainder)
        return None

    def _resolve_edges(self) -> None:
        for func_id, finfo in sorted(self.funcs.items()):
            info = self.project.modules[func_id[0]]
            for node in _walk_scope(finfo.node.body):
                if isinstance(node, ast.YieldFrom) and isinstance(
                    node.value, ast.Call
                ):
                    callee = self._resolve_callee(info, finfo.cls, node.value.func)
                    if callee is not None:
                        finfo.delegations.add(callee)
                        finfo.calls.add(callee)
                elif isinstance(node, ast.Call):
                    callee = self._resolve_callee(info, finfo.cls, node.func)
                    if callee is not None:
                        finfo.calls.add(callee)
                    self._maybe_spawn(info, finfo, node)

    def _maybe_spawn(
        self, info: ModuleInfo, finfo: _FuncInfo, node: ast.Call
    ) -> None:
        if not (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "process"
            and node.args
        ):
            return
        arg = node.args[0]
        target: Optional[FuncId] = None
        if isinstance(arg, ast.Call):
            target = self._resolve_callee(info, finfo.cls, arg.func)
        elif isinstance(arg, ast.Name):
            # `gen = make_proc(...); sim.process(gen)` -- find the binding.
            for stmt in _walk_scope(finfo.node.body):
                if (
                    isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Call)
                    and any(
                        isinstance(t, ast.Name) and t.id == arg.id
                        for t in stmt.targets
                    )
                ):
                    target = self._resolve_callee(info, finfo.cls, stmt.value.func)
                    if target is not None:
                        break
            if target is None and arg.id in info.functions:
                target = (info.name, arg.id)
        if target is not None:
            self.roots.add(target)

    def _propagate_roots(self) -> Dict[FuncId, Set[FuncId]]:
        """function -> set of roots that (transitively) reach it."""
        reach: Dict[FuncId, Set[FuncId]] = {}
        for root in sorted(self.roots):
            if root not in self.funcs:
                continue
            stack = [root]
            seen: Set[FuncId] = set()
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                reach.setdefault(current, set()).add(root)
                finfo = self.funcs.get(current)
                if finfo is None:
                    continue
                stack.extend(sorted(finfo.calls))
        return reach

    # -- extended sim-yield ------------------------------------------------ #

    def delegation_yield_findings(self, rule_id: str) -> List[Finding]:
        """Sim-yield checks on generators reached from roots via yield-from."""
        findings: List[Finding] = []
        targets: Set[FuncId] = set()
        stack = sorted(self.roots)
        seen: Set[FuncId] = set()
        while stack:
            current = stack.pop()
            if current in seen or current not in self.funcs:
                continue
            seen.add(current)
            targets.add(current)
            stack.extend(sorted(self.funcs[current].delegations))
        for func_id in sorted(targets):
            if func_id in self.locally_spawned:
                continue  # the per-file sim-yield rule already covers it
            finfo = self.funcs[func_id]
            info = self.project.modules[func_id[0]]
            scope = list(_walk_scope(finfo.node.body))
            if not any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in scope):
                continue
            for node in scope:
                if isinstance(node, ast.Yield):
                    problem = SimYieldRule._yield_problem(node)
                    if problem:
                        findings.append(
                            Finding(
                                rule=rule_id,
                                path=info.path,
                                line=node.lineno,
                                col=node.col_offset,
                                message=(
                                    f"process-reachable generator "
                                    f"'{func_id[1]}' yields {problem} "
                                    "(reached via yield from); the engine "
                                    "only accepts delays and Events"
                                ),
                            )
                        )
                elif isinstance(node, ast.Call):
                    dotted = dotted_name(node.func, info.imports)
                    if dotted is None:
                        continue
                    if dotted in SimYieldRule.BLOCKING_EXACT or dotted.startswith(
                        SimYieldRule.BLOCKING_PREFIXES
                    ):
                        findings.append(
                            Finding(
                                rule=rule_id,
                                path=info.path,
                                line=node.lineno,
                                col=node.col_offset,
                                message=(
                                    f"blocking call '{dotted}()' inside "
                                    f"process-reachable generator "
                                    f"'{func_id[1]}' (reached via yield "
                                    "from) stalls the event loop; model "
                                    "latency as a yielded virtual delay"
                                ),
                            )
                        )
        return findings

    # -- races ------------------------------------------------------------- #

    def _writes_of(self, func_id: FuncId) -> Set[Tuple[str, str]]:
        finfo = self.funcs[func_id]
        info = self.project.modules[func_id[0]]
        locals_bound: Set[str] = set()
        for node in _walk_scope(finfo.node.body):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        locals_bound.add(target.id)
        params = {a.arg for a in finfo.node.args.args}
        locals_bound |= params
        globals_declared: Set[str] = set()
        for node in _walk_scope(finfo.node.body):
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
        writes: Set[Tuple[str, str]] = set()

        def note(expr: ast.expr) -> None:
            key = self._state_key(info, finfo.cls, expr, locals_bound, globals_declared)
            if key is not None:
                writes.add(key)

        for node in _walk_scope(finfo.node.body):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATORS:
                    note(node.func.value)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        note(target.value)
                    elif isinstance(target, ast.Name) and (
                        target.id in globals_declared
                    ):
                        note(target)
                    elif isinstance(target, ast.Attribute):
                        note(target)
        return writes

    def _state_key(
        self,
        info: ModuleInfo,
        cls: Optional[str],
        expr: ast.expr,
        locals_bound: Set[str],
        globals_declared: Set[str],
    ) -> Optional[Tuple[str, str]]:
        """Resolve an expression to a shared-state key, if it names one."""
        if isinstance(expr, ast.Name):
            if expr.id in locals_bound and expr.id not in globals_declared:
                return None
            if (info.name, expr.id) in self.shared:
                return (info.name, expr.id)
            dotted = info.imports.get(expr.id)
            if dotted is not None:
                return self._shared_from_dotted(dotted)
            return None
        if isinstance(expr, ast.Attribute):
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and cls is not None
            ):
                key = (info.name, f"{cls}.{expr.attr}")
                if key in self.shared and not self._instance_shadowed(
                    info, cls, expr.attr
                ):
                    return key
                return None
            dotted = dotted_name(expr, info.imports)
            if dotted is not None:
                return self._shared_from_dotted(dotted)
        return None

    def _shared_from_dotted(self, dotted: str) -> Optional[Tuple[str, str]]:
        module = self.project.resolve_module(dotted)
        if module is None or module == dotted:
            return None
        remainder = dotted[len(module) + 1 :]
        key = (module, remainder)
        return key if key in self.shared else None

    def _instance_shadowed(self, info: ModuleInfo, cls: str, attr: str) -> bool:
        """True if any method rebinds ``self.attr``, making it per-instance."""
        node = info.classes[cls]
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == attr
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        return True
        return False

    def race_findings(self, rule_id: str) -> List[Finding]:
        writers: Dict[Tuple[str, str], Set[FuncId]] = {}
        for func_id in sorted(self.funcs):
            roots = self.reachable_roots.get(func_id)
            if not roots:
                continue
            for key in self._writes_of(func_id):
                writers.setdefault(key, set()).update(roots)
        findings: List[Finding] = []
        for key in sorted(writers):
            roots = writers[key]
            if len(roots) < 2:
                continue
            path, line, kind = self.shared[key]
            names = ", ".join(f"{mod}:{qual}" for mod, qual in sorted(roots))
            findings.append(
                Finding(
                    rule=rule_id,
                    path=path,
                    line=line,
                    col=0,
                    message=(
                        f"{kind} '{key[1]}' is written from {len(roots)} "
                        f"sim-process roots ({names}); virtual-time "
                        "interleaving makes the final state order-dependent "
                        "-- route writes through one owner process or pragma "
                        "with the ordering mechanism"
                    ),
                )
            )
        return findings


class _CtxShim:
    """Just enough of FileContext for SimYieldRule's static helper."""

    def __init__(self, info: ModuleInfo):
        self.tree = info.tree
        self.path = info.path
        self.imports = info.imports
