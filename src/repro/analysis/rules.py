"""The repo-specific rule catalogue.

Each rule encodes one runtime contract of the reproduction.  They are
deliberately narrow: a lint that cries wolf gets pragma'd into silence,
so every check here is something a reviewer would genuinely block a PR
over.  See DESIGN.md "Static analysis" for the rationale behind each.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import FileContext, Finding, Rule, register

__all__ = [
    "DeterminismRule",
    "ObsHookRule",
    "SimYieldRule",
    "OrderedIterationRule",
    "FloatParityRule",
    "HygieneRule",
    "CapacityThroughSchedulerRule",
]


def _walk_scope(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function/class defs.

    Rules that reason about one scope (a function's locals, a module's
    top level) must not leak conclusions into enclosed scopes.
    """
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue  # the nested scope is yielded but not entered
        stack.extend(ast.iter_child_nodes(node))


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# --------------------------------------------------------------------- #
# determinism


@register
class DeterminismRule(Rule):
    """All randomness and time must be virtual / explicitly seeded.

    Two runs with the same seed must produce identical schedules, traces,
    and bitstreams; that only holds if every stochastic component takes
    an explicit ``np.random.Generator`` (built via ``repro.sim.rng``) and
    nothing reads the wall clock.  ``sim/rng.py`` is the one sanctioned
    constructor site.  Tests and benchmarks may build their own seeded
    generators (their determinism is local to the test), but wall-clock
    reads and the stdlib ``random`` module stay banned everywhere --
    wall-clock timing belongs to the speedup floors in
    ``benchmarks/perf`` and the runner's own run metrics, behind a
    pragma.
    """

    id = "determinism"
    summary = (
        "randomness must flow through repro.sim.rng generators; "
        "no wall-clock reads outside pragma'd timing harnesses"
    )
    exclude = ("src/repro/sim/rng.py",)

    #: Call targets that read the wall clock (non-virtual time).
    WALL_CLOCK = frozenset({
        "time.time", "time.time_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    #: Paths where seeded ``default_rng(...)`` construction is fine: a
    #: test's generator is its own stream; there is no shared-stream
    #: discipline to protect.
    NP_RANDOM_EXEMPT = ("tests/*", "benchmarks/*")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        np_random_banned = not any(
            fnmatch(ctx.path, pat) for pat in self.NP_RANDOM_EXEMPT
        )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield ctx.finding(
                            self.id, node,
                            "stdlib 'random' is banned: take an explicit "
                            "np.random.Generator (see repro.sim.rng)",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and not node.level:
                    yield ctx.finding(
                        self.id, node,
                        "stdlib 'random' is banned: take an explicit "
                        "np.random.Generator (see repro.sim.rng)",
                    )
            elif isinstance(node, ast.Call):
                dotted = ctx.dotted(node.func)
                if dotted is None:
                    continue
                if dotted in self.WALL_CLOCK:
                    yield ctx.finding(
                        self.id, node,
                        f"wall-clock read '{dotted}()': simulation code must "
                        "use virtual time (sim.now); perf harnesses pragma "
                        "this line",
                    )
                elif dotted.startswith("random."):
                    yield ctx.finding(
                        self.id, node,
                        f"stdlib '{dotted}()' is banned: take an explicit "
                        "np.random.Generator (see repro.sim.rng)",
                    )
                elif np_random_banned and dotted.startswith("numpy.random."):
                    func = dotted[len("numpy.random."):]
                    if func == "default_rng":
                        yield ctx.finding(
                            self.id, node,
                            "bare default_rng(): build streams with "
                            "repro.sim.rng.make_rng/split_rng so components "
                            "stay independently re-seedable",
                        )
                    elif func[:1].islower():  # calls, not Generator/SeedSequence types
                        yield ctx.finding(
                            self.id, node,
                            f"module-level 'np.random.{func}()' uses hidden "
                            "global state: take an explicit np.random.Generator",
                        )


# --------------------------------------------------------------------- #
# obs-hook


@register
class ObsHookRule(Rule):
    """``obs.active()`` results must be None-checked, never captured wide.

    The observability hub is optional by design: with no hub installed,
    ``obs.active()`` returns ``None`` and every hook must cost one load
    plus one comparison.  Using the result without a None check crashes
    un-instrumented runs; caching it at module/attribute scope pins a
    stale hub across install/uninstall cycles (the golden-trace tests
    install and uninstall hubs repeatedly).
    """

    id = "obs-hook"
    summary = "None-check every obs.active() result; no wide hub captures"

    ACTIVE = frozenset({"repro.obs.active", "obs.active"})

    def _is_active_call(self, node: ast.AST, ctx: FileContext) -> bool:
        if not isinstance(node, ast.Call):
            return False
        dotted = ctx.dotted(node.func)
        return dotted in self.ACTIVE

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # Module-level and attribute-target captures.
        for node in _walk_scope(ctx.tree.body):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and self._is_active_call(
                getattr(node, "value", None), ctx
            ):
                yield ctx.finding(
                    self.id, node,
                    "module-level hub capture: call obs.active() inside the "
                    "hook, immediately before use",
                )
        for func in _functions(ctx.tree):
            yield from self._check_function(func, ctx)
        # Chained use anywhere: obs.active().emit(...) has no None check.
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and self._is_active_call(node.value, ctx):
                yield ctx.finding(
                    self.id, node,
                    "obs.active() used without a None check: bind it to a "
                    "local and guard with 'if hub is not None'",
                )

    def _check_function(
        self, func: ast.FunctionDef, ctx: FileContext
    ) -> Iterator[Finding]:
        hub_names: Set[str] = set()
        for node in _walk_scope(func.body):
            if isinstance(node, ast.Assign) and self._is_active_call(node.value, ctx):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        hub_names.add(target.id)
                    elif isinstance(target, ast.Attribute):
                        yield ctx.finding(
                            self.id, target,
                            "hub captured onto an attribute: obs.active() "
                            "must stay in a local so install/uninstall "
                            "cycles are honoured",
                        )
            elif isinstance(node, ast.AnnAssign) and self._is_active_call(
                node.value, ctx
            ):
                if isinstance(node.target, ast.Name):
                    hub_names.add(node.target.id)
                elif isinstance(node.target, ast.Attribute):
                    yield ctx.finding(
                        self.id, node.target,
                        "hub captured onto an attribute: obs.active() "
                        "must stay in a local so install/uninstall "
                        "cycles are honoured",
                    )
        if not hub_names:
            return
        guarded = self._guarded_names(func, hub_names)
        for node in _walk_scope(func.body):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in hub_names
                and node.value.id not in guarded
            ):
                yield ctx.finding(
                    self.id, node,
                    f"'{node.value.id}' (from obs.active()) used without a "
                    "None check: guard with "
                    f"'if {node.value.id} is not None'",
                )

    @staticmethod
    def _guarded_names(func: ast.FunctionDef, names: Set[str]) -> Set[str]:
        """Names with at least one None-comparison or truthiness guard.

        This is scope-level, not path-sensitive: one honest guard
        anywhere in the function clears the name.  Cheap, and in practice
        the hook pattern is short enough that it is also accurate.
        """
        guarded: Set[str] = set()
        tests: List[ast.expr] = []
        for node in _walk_scope(func.body):
            if isinstance(node, (ast.If, ast.While, ast.Assert)):
                tests.append(node.test)
            elif isinstance(node, ast.IfExp):
                tests.append(node.test)
        for test in tests:
            for sub in ast.walk(test):
                if isinstance(sub, ast.Compare):
                    operands = [sub.left, *sub.comparators]
                    has_none = any(
                        isinstance(op, ast.Constant) and op.value is None
                        for op in operands
                    )
                    if has_none and any(
                        isinstance(ops, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
                        for ops in sub.ops
                    ):
                        for op in operands:
                            if isinstance(op, ast.Name) and op.id in names:
                                guarded.add(op.id)
                elif isinstance(sub, ast.Name) and sub.id in names:
                    # `if hub:` / `if hub and ...:` -- a truthiness guard.
                    guarded.add(sub.id)
        return guarded


# --------------------------------------------------------------------- #
# sim-yield


@register
class SimYieldRule(Rule):
    """Engine process generators only yield sanctioned values.

    :class:`repro.sim.engine.Simulator` resumes a process on exactly
    three yield shapes -- a numeric delay, an :class:`Event`, or another
    :class:`Process` (plus tuple-shaped resume payloads used by helper
    protocols).  Yielding anything else dies at runtime deep inside a
    run; blocking I/O inside a process stalls the whole single-threaded
    event loop.  Both are cheap to catch at parse time.
    """

    id = "sim-yield"
    summary = "process generators yield only engine-sanctioned values, no blocking I/O"

    BLOCKING_EXACT = frozenset({
        "open", "builtins.open", "input",
        "time.sleep", "os.system", "os.popen", "os.wait",
        "socket.create_connection", "select.select",
    })
    BLOCKING_PREFIXES = ("subprocess.", "requests.", "urllib.request.", "http.client.")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        process_names = self._process_generator_names(ctx)
        if not process_names:
            return
        for func in _functions(ctx.tree):
            if func.name not in process_names:
                continue
            scope = list(_walk_scope(func.body))
            if not any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in scope):
                continue  # same-named non-generator helper
            for node in scope:
                if isinstance(node, ast.Yield):
                    problem = self._yield_problem(node)
                    if problem:
                        yield ctx.finding(
                            self.id, node,
                            f"process generator '{func.name}' yields {problem}; "
                            "the engine only accepts float delays, resume "
                            "tuples, Events, and Processes",
                        )
                elif isinstance(node, ast.Call):
                    dotted = ctx.dotted(node.func)
                    if dotted is None:
                        continue
                    if dotted in self.BLOCKING_EXACT or dotted.startswith(
                        self.BLOCKING_PREFIXES
                    ):
                        yield ctx.finding(
                            self.id, node,
                            f"blocking call '{dotted}()' inside process "
                            f"generator '{func.name}' stalls the event loop; "
                            "model latency as a yielded virtual delay",
                        )

    @staticmethod
    def _process_generator_names(ctx: FileContext) -> Set[str]:
        """Names of generator callables handed to ``<sim>.process(...)``."""
        names: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "process"
                and node.args
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Call):
                if isinstance(arg.func, ast.Name):
                    names.add(arg.func.id)
                elif isinstance(arg.func, ast.Attribute):
                    names.add(arg.func.attr)
            elif isinstance(arg, ast.Name):
                names.add(arg.id)  # generator object built earlier from f(...)
        return names

    @staticmethod
    def _yield_problem(node: ast.Yield) -> Optional[str]:
        value = node.value
        if value is None:
            return "nothing (bare yield)"
        if isinstance(value, ast.Constant):
            if value.value is None:
                return "None"
            if isinstance(value.value, bool):
                return f"a bool ({value.value!r})"
            if isinstance(value.value, (str, bytes)):
                return f"a {type(value.value).__name__} literal"
        elif isinstance(value, (ast.Dict, ast.DictComp)):
            return "a dict"
        elif isinstance(value, (ast.List, ast.ListComp)):
            return "a list"
        elif isinstance(value, (ast.Set, ast.SetComp)):
            return "a set"
        elif isinstance(value, ast.GeneratorExp):
            return "a generator expression"
        return None


# --------------------------------------------------------------------- #
# ordered-iteration


@register
class OrderedIterationRule(Rule):
    """No iteration over hash-ordered collections.

    Golden-trace byte-identity and placement replay both require every
    fleet walk to visit workers/tasks in one canonical order.  Iterating
    a ``set`` (or set algebra over ``dict`` views) visits elements in
    hash order, which changes across interpreter runs for strings --
    exactly the ids (``vcu_id``, ``host_id``) these collections hold.
    Wrap the iterable in ``sorted(...)`` or keep a list/dict.
    """

    id = "ordered-iteration"
    summary = "never iterate sets / dict-view algebra; sort first"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # Module top level plus each function scope, with simple local
        # set-type tracking; functions inside a class additionally see
        # that class's `self.x = set()` attributes.
        yield from self._check_scope(ctx, ctx.tree.body, set(), None)
        enclosing = self._enclosing_classes(ctx.tree)
        for func in _functions(ctx.tree):
            cls = enclosing.get(func)
            set_attrs = self._set_attributes(cls) if cls is not None else None
            yield from self._check_scope(
                ctx, func.body, self._local_sets(func.body), set_attrs
            )

    @staticmethod
    def _enclosing_classes(
        tree: ast.Module,
    ) -> Dict[ast.FunctionDef, ast.ClassDef]:
        mapping: Dict[ast.FunctionDef, ast.ClassDef] = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in ast.walk(cls):
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        mapping.setdefault(node, cls)
        return mapping

    # -- type tracking -------------------------------------------------- #

    @staticmethod
    def _is_set_expr(node: Optional[ast.AST]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        ):
            return True
        return False

    @staticmethod
    def _is_set_annotation(annotation: Optional[ast.expr]) -> bool:
        node = annotation
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id in ("Set", "FrozenSet", "set", "frozenset", "MutableSet")
        if isinstance(node, ast.Attribute):
            return node.attr in ("Set", "FrozenSet", "MutableSet", "AbstractSet")
        return False

    def _local_sets(self, body: Sequence[ast.stmt]) -> Set[str]:
        names: Set[str] = set()
        for node in _walk_scope(body):
            if isinstance(node, ast.Assign) and self._is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if self._is_set_annotation(node.annotation) or self._is_set_expr(
                    node.value
                ):
                    names.add(node.target.id)
        return names

    def _set_attributes(self, cls: ast.ClassDef) -> Set[str]:
        attrs: Set[str] = set()
        for node in ast.walk(cls):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                value = node.value
                for tgt in node.targets:
                    if self._is_self_attr(tgt):
                        target = tgt
            elif isinstance(node, ast.AnnAssign):
                value, annotation = node.value, node.annotation
                if self._is_self_attr(node.target):
                    target = node.target
            if target is None:
                continue
            if self._is_set_expr(value) or self._is_set_annotation(annotation):
                attrs.add(target.attr)  # type: ignore[union-attr]
        return attrs

    @staticmethod
    def _is_self_attr(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    # -- iteration checks ------------------------------------------------ #

    def _check_scope(
        self,
        ctx: FileContext,
        body: Sequence[ast.stmt],
        local_sets: Set[str],
        set_attrs: Optional[Set[str]],
    ) -> Iterator[Finding]:
        for node in _walk_scope(body):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for candidate in iters:
                reason = self._hazard(candidate, local_sets, set_attrs)
                if reason:
                    yield ctx.finding(
                        self.id, candidate,
                        f"iteration over {reason} visits elements in hash "
                        "order, which breaks golden-trace/placement replay; "
                        "wrap in sorted(...) or keep an ordered collection",
                    )

    def _hazard(
        self,
        node: ast.expr,
        local_sets: Set[str],
        set_attrs: Optional[Set[str]],
    ) -> Optional[str]:
        if self._is_set_expr(node):
            return "a set expression"
        if isinstance(node, ast.Name) and node.id in local_sets:
            return f"set '{node.id}'"
        if (
            set_attrs is not None
            and self._is_self_attr(node)
            and node.attr in set_attrs  # type: ignore[union-attr]
        ):
            return f"set attribute 'self.{node.attr}'"  # type: ignore[union-attr]
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            if self._viewish(node.left) or self._viewish(node.right):
                return "set algebra over dict views"
        return None

    def _viewish(self, node: ast.expr) -> bool:
        if self._is_set_expr(node):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("keys", "items", "values")
        )


# --------------------------------------------------------------------- #
# float-parity


@register
class FloatParityRule(Rule):
    """Bit-exactness files must compare with ``np.array_equal``.

    The PR-3 contract is that fast and reference codec/scheduler paths
    are *bit-identical*, not approximately equal.  A tolerance
    comparison in a parity file silently weakens that contract and lets
    real drift through; this rule pins the files that carry it.
    """

    id = "float-parity"
    summary = "parity files compare exactly (np.array_equal), never approximately"
    include = (
        "src/repro/codec/kernels.py",
        "tests/test_codec_kernels.py",
        "tests/test_codec_partition_bound.py",
        "tests/test_cluster_scheduler.py",
    )

    APPROX = frozenset({
        "numpy.allclose", "numpy.isclose",
        "numpy.testing.assert_allclose", "numpy.testing.assert_almost_equal",
        "numpy.testing.assert_array_almost_equal",
        "math.isclose", "pytest.approx",
    })

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = ctx.dotted(node.func)
                if dotted in self.APPROX:
                    yield ctx.finding(
                        self.id, node,
                        f"'{dotted}' in a bit-exactness file: the parity "
                        "contract requires np.array_equal",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "all"
                    and isinstance(node.func.value, ast.Compare)
                    and any(isinstance(op, ast.Eq) for op in node.func.value.ops)
                ):
                    yield ctx.finding(
                        self.id, node,
                        "'(a == b).all()' in a bit-exactness file: use "
                        "np.array_equal, which also rejects shape mismatches",
                    )


# --------------------------------------------------------------------- #
# hygiene


@register
class HygieneRule(Rule):
    """Mutable default arguments and bare ``except:``.

    A mutable default is shared across every call -- in a fleet model
    that means cross-run state leaking between supposedly independent
    simulations.  A bare ``except:`` swallows the engine's ``Interrupt``
    (what ``Process.interrupt`` throws into a process) and
    ``KeyboardInterrupt`` alike.
    """

    id = "hygiene"
    summary = "no mutable default arguments; no bare except"

    MUTABLE_CALLS = frozenset({
        "list", "dict", "set", "bytearray",
        "collections.defaultdict", "collections.deque", "collections.OrderedDict",
    })

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in _functions(ctx.tree):
            defaults = list(func.args.defaults) + [
                d for d in func.args.kw_defaults if d is not None
            ]
            for default in defaults:
                problem = self._mutable(default, ctx)
                if problem:
                    yield ctx.finding(
                        self.id, default,
                        f"mutable default argument ({problem}) in "
                        f"'{func.name}' is shared across calls; default to "
                        "None and build inside",
                    )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield ctx.finding(
                    self.id, node,
                    "bare 'except:' swallows Interrupt/KeyboardInterrupt; "
                    "name the exceptions you mean",
                )

    def _mutable(self, node: ast.expr, ctx: FileContext) -> Optional[str]:
        if isinstance(node, ast.List):
            return "list literal"
        if isinstance(node, ast.Dict):
            return "dict literal"
        if isinstance(node, ast.Set):
            return "set literal"
        if isinstance(node, ast.Call):
            dotted = ctx.dotted(node.func)
            if dotted in self.MUTABLE_CALLS:
                return f"{dotted}()"
        return None


# --------------------------------------------------------------------- #
# capacity-through-scheduler


@register
class CapacityThroughSchedulerRule(Rule):
    """Capacity moves only through a scheduler.

    ``BinPackingScheduler`` keeps its availability rows exact by
    re-reading a worker's row after every admit and release it makes;
    it never rescans the fleet before rejecting.  An admit or release
    on a worker, VCU or ``MultiResource`` that goes around the scheduler
    leaves a row stale -- a release makes it *pessimistic*, and the
    scheduler then rejects work that fits -- and the cluster's
    utilization table is stale the same way.  So in the packages that
    hold workers, VCUs and resources, every ``try_admit``/``acquire``/
    ``release`` call must be made on a scheduler (a receiver whose last
    name ends in ``scheduler``).  The scheduler itself and the wrapper
    modules it calls through are exempt; ``MultiResource``'s own module
    (``sim/resources.py``) and tests lie outside the scope.
    """

    id = "capacity-through-scheduler"
    summary = (
        "try_admit/acquire/release on workers, VCUs and resources only "
        "through a scheduler"
    )
    include = (
        "src/repro/cluster/*",
        "src/repro/control/*",
        "src/repro/failures/*",
        "src/repro/vcu/*",
    )
    exclude = (
        "src/repro/cluster/scheduler.py",
        "src/repro/cluster/worker.py",
        "src/repro/vcu/chip.py",
    )

    CAPACITY_CALLS = frozenset({"try_admit", "acquire", "release"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.CAPACITY_CALLS
            ):
                continue
            receiver = node.func.value
            if isinstance(receiver, ast.Attribute):
                name = receiver.attr
            elif isinstance(receiver, ast.Name):
                name = receiver.id
            else:
                name = ""
            if name.endswith("scheduler"):
                continue
            yield ctx.finding(
                self.id, node,
                f"'{name or '<expr>'}.{node.func.attr}()' moves capacity "
                "around the scheduler, whose rows stay exact only if every "
                "admit and release is its own; use place() and "
                "scheduler.release()",
            )
