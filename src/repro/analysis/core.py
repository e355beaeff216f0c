"""Lint engine core: findings, rule registry, pragmas, file driver.

The engine is deliberately small and dependency-free.  A :class:`Rule`
inspects one parsed file (a :class:`FileContext`) and yields
:class:`Finding` objects; the driver handles everything around that --
path scoping, pragma suppression, baseline subtraction, and walking the
tree.

Pragma syntax (comments, parsed with :mod:`tokenize` so string literals
never trigger them)::

    x = time.time()  # lint: allow=determinism -- perf harness wall-clock
    # lint: allow-file=hygiene -- generated shim, not hand-maintained

``allow`` suppresses the named rule(s) on that physical line only;
``allow-file`` suppresses them for the whole file.  Several rule ids may
be given comma-separated; everything after ``--`` is a human reason and
is ignored by the parser (but reviewers should insist on one).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

if TYPE_CHECKING:  # import cycle: baseline imports Finding from here
    from repro.analysis.baseline import Baseline

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "Rule",
    "analyze_source",
    "default_rules",
    "dotted_name",
    "iter_python_files",
    "register",
    "run_lint",
]

#: Directories the file walker never descends into.
_SKIP_DIRS = {".git", "__pycache__", ".mypy_cache", ".pytest_cache", "build", "dist"}

#: Default lint targets, relative to the repo root.
DEFAULT_TARGETS: Tuple[str, ...] = ("src", "tests", "examples", "benchmarks", "setup.py")

_PRAGMA_RE = re.compile(r"lint:\s*(allow|allow-file)=([A-Za-z0-9_,*-]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str  # repo-relative, posix separators
    line: int
    col: int
    message: str

    def key(self) -> str:
        """Line-independent fingerprint used by the baseline.

        Line numbers churn on every edit, so grandfathered findings are
        matched by (path, rule, message) with multiplicity instead.
        """
        return f"{self.path}::{self.rule}::{self.message}"

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


class FileContext:
    """Everything a rule may look at for one file."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.module_name = _module_name(path)
        self.imports = _import_table(
            ast.walk(tree), self.module_name, Path(path).name == "__init__.py"
        )

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    def dotted(self, node: ast.AST) -> Optional[str]:
        return dotted_name(node, self.imports)


class Rule:
    """Base class: subclass, set ``id``/``summary``, implement ``check``.

    ``include``/``exclude`` are fnmatch glob tuples over repo-relative
    posix paths; an empty ``include`` means "everywhere".  Scoping lives
    on the rule (not the caller) so the repo's contract -- e.g. the
    parity rule only binds bit-exactness files -- is versioned with the
    rule itself.
    """

    id: str = ""
    summary: str = ""
    include: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if self.include and not any(fnmatch(path, pat) for pat in self.include):
            return False
        return not any(fnmatch(path, pat) for pat in self.exclude)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the default registry."""
    if not rule_cls.id:
        raise ValueError(f"{rule_cls.__name__} has no rule id")
    if rule_cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id!r}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def _ensure_registered() -> None:
    """Import the rule modules so their ``@register`` runs.

    Local import, because each rule module imports this one at top
    level; by the time anything reads the registry, this module is
    fully initialised and the cycle is harmless.
    """
    from repro.analysis import rules, taint  # noqa: F401


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in registration order."""
    _ensure_registered()
    return [cls() for cls in _REGISTRY.values()]


# --------------------------------------------------------------------- #
# Name resolution helpers


def _module_name(path: str) -> str:
    """Dotted module name for a repo-relative path (best effort)."""
    parts = Path(path).with_suffix("").parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _package_parts(module_name: str, is_package: bool) -> List[str]:
    """The package a module's relative imports resolve against: a
    package's ``__init__`` is in the package itself, any other module in
    its parent."""
    parts = module_name.split(".") if module_name else []
    return parts if is_package else parts[:-1]


def _import_base(node: ast.ImportFrom, package_parts: List[str]) -> str:
    """The absolute module ``from <module> import ...`` names."""
    if not node.level:
        return node.module or ""
    prefix = package_parts[: len(package_parts) - (node.level - 1)]
    return ".".join(prefix + ([node.module] if node.module else []))


def _import_table(
    nodes: Iterable[ast.AST], module_name: str, is_package: bool
) -> Dict[str, str]:
    """Map local names to the dotted module path they were imported from.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import perf_counter`` -> ``{"perf_counter": "time.perf_counter"}``.
    ``nodes`` are a module's nodes in ``ast.walk`` order (other nodes
    than imports are skipped); a later import of a name wins.  Relative
    imports are resolved against the package of ``module_name``, which
    is the module itself when ``is_package`` (its ``__init__``).
    """
    table: Dict[str, str] = {}
    package_parts = _package_parts(module_name, is_package)
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    table[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = _import_base(node, package_parts)
            for alias in node.names:
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    return table


def dotted_name(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve an attribute chain to a dotted path through the imports.

    ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
    when ``np`` aliases numpy; unresolvable roots (``self.sim.process``)
    keep their literal spelling so rules can still pattern-match them.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(imports.get(node.id, node.id))
        return ".".join(reversed(parts))
    return None


# --------------------------------------------------------------------- #
# Pragmas


@dataclass
class _Pragmas:
    file_rules: Set[str] = field(default_factory=set)
    line_rules: Dict[int, Set[str]] = field(default_factory=dict)

    def suppresses(self, finding: Finding) -> bool:
        if finding.rule in self.file_rules or "*" in self.file_rules:
            return True
        rules = self.line_rules.get(finding.line)
        return rules is not None and (finding.rule in rules or "*" in rules)


def _collect_pragmas(source: str) -> _Pragmas:
    pragmas = _Pragmas()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (tok.start[0], tok.string) for tok in tokens if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenizeError, SyntaxError, IndentationError):
        # Fall back to a line scan; good enough for almost-parseable files.
        comments = [
            (i, line) for i, line in enumerate(source.splitlines(), 1) if "#" in line
        ]
    for lineno, text in comments:
        match = _PRAGMA_RE.search(text)
        if not match:
            continue
        kind, spec = match.groups()
        rules = {rule.strip() for rule in spec.split(",") if rule.strip()}
        if kind == "allow-file":
            pragmas.file_rules |= rules
        else:
            pragmas.line_rules.setdefault(lineno, set()).update(rules)
    return pragmas


# --------------------------------------------------------------------- #
# Drivers


@dataclass
class LintResult:
    """The outcome of one lint run."""

    findings: List[Finding]  # post-pragma, pre-baseline
    new_findings: List[Finding]  # after baseline subtraction
    grandfathered: int  # findings absorbed by the baseline
    suppressed: int  # findings silenced by pragmas
    files_scanned: int
    parse_errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.new_findings and not self.parse_errors


def analyze_source(
    source: str,
    path: str = "<memory>",
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[List[Finding], int]:
    """Lint one source blob; returns (findings, pragma-suppressed count).

    ``path`` participates in rule scoping, so fixtures should pass a
    realistic repo-relative path (e.g. ``src/repro/foo.py``).
    """
    tree = ast.parse(source)
    ctx = FileContext(path, source, tree)
    pragmas = _collect_pragmas(source)
    active = [rule for rule in (rules if rules is not None else default_rules())
              if rule.applies_to(path)]
    kept: List[Finding] = []
    suppressed = 0
    for rule in active:
        for finding in rule.check(ctx):
            if pragmas.suppresses(finding):
                suppressed += 1
            else:
                kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept, suppressed


def iter_python_files(root: Path, targets: Sequence[str]) -> List[Path]:
    """All ``.py`` files under ``targets`` (files or directories), sorted.

    Sorted traversal keeps reports (and baseline ordering) stable across
    filesystems -- the analyzer holds itself to its own ordering rule.
    """
    files: List[Path] = []
    for target in targets:
        base = root / target
        if base.is_file() and base.suffix == ".py":
            files.append(base)
        elif base.is_dir():
            for candidate in base.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.append(candidate)
    return sorted(set(files))


#: Targets the whole-program passes are built from.  Project rules
#: always see the full source tree (never a narrowed --changed-only
#: selection): an architecture cycle or a cross-module race is a
#: property of the program, not of the files that happened to change.
PROJECT_TARGETS: Tuple[str, ...] = ("src",)


def run_lint(
    root: Path,
    targets: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional["Baseline"] = None,
    project_rules: Optional[Sequence["object"]] = None,
) -> LintResult:
    """Lint ``targets`` under ``root`` and fold in a baseline if given.

    Per-file rules run over ``targets``; whole-program rules (see
    :mod:`repro.analysis.project`) run over :data:`PROJECT_TARGETS`
    regardless, falling back to ``targets`` for fixture roots with no
    ``src/``.  Pass ``project_rules=[]`` to disable them.
    """
    from repro.analysis.baseline import Baseline  # local: avoid import cycle
    from repro.analysis import project as project_mod

    root = Path(root)
    files = iter_python_files(root, list(targets) if targets else list(DEFAULT_TARGETS))
    all_findings: List[Finding] = []
    suppressed = 0
    errors: List[str] = []
    for file_path in files:
        rel = file_path.relative_to(root).as_posix()
        try:
            source = file_path.read_text(encoding="utf-8")
            findings, file_suppressed = analyze_source(source, rel, rules)
        except (SyntaxError, UnicodeDecodeError) as exc:
            errors.append(f"{rel}: {exc.__class__.__name__}: {exc}")
            continue
        all_findings.extend(findings)
        suppressed += file_suppressed
    active_project = (
        list(project_rules)
        if project_rules is not None
        else project_mod.default_project_rules()
    )
    if active_project:
        project, project_errors = project_mod.load_project(root, PROJECT_TARGETS)
        if not project.modules and targets:
            project, project_errors = project_mod.load_project(root, list(targets))
        for error in project_errors:
            if error not in errors:
                errors.append(error)
        pragma_cache: Dict[str, _Pragmas] = {}
        for rule in active_project:
            for finding in rule.check(project):  # type: ignore[attr-defined]
                pragmas = pragma_cache.get(finding.path)
                if pragmas is None:
                    info = project.module_for_path(finding.path)
                    pragmas = (
                        _collect_pragmas(info.source) if info is not None else _Pragmas()
                    )
                    pragma_cache[finding.path] = pragmas
                if pragmas.suppresses(finding):
                    suppressed += 1
                else:
                    all_findings.append(finding)
    all_findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    effective = baseline if baseline is not None else Baseline.empty()
    new_findings, grandfathered = effective.filter(all_findings)
    return LintResult(
        findings=all_findings,
        new_findings=new_findings,
        grandfathered=grandfathered,
        suppressed=suppressed,
        files_scanned=len(files),
        parse_errors=errors,
    )
