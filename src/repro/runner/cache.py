"""Content-addressed on-disk result cache for experiment units.

A unit's cache key is a SHA-256 fingerprint over:

* the runner schema version;
* the experiment's identity (name, seed, result-schema version+fields);
* the unit's parameters (canonical JSON);
* the SHA-256 of every project source file in the import closure of the
  modules defining the experiment's unit callable and summary, walked
  over the project import graph (:func:`repro.analysis.load_project`).

The walk follows every edge kind, so the closure also holds what is
imported lazily, under ``TYPE_CHECKING``, or through a
``"module:attribute"`` string resolved at call time.  It over-approximates:
an edit to any file in an experiment's closure invalidates every entry
whose closure holds the file, including entries that never execute the
edited code.  Unchanged experiments are instant cache hits.  Entries are
content-addressed: ``<cache_dir>/<experiment>/<fingerprint>.json``.  A
corrupted or truncated entry is treated as a miss (and counted), never an
error; the unit is simply recomputed and the entry rewritten.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.analysis.project import ModuleInfo, ProjectContext
from repro.runner.registry import RUNNER_SCHEMA_VERSION, Experiment, UnitContext

#: Entry payload version, independent of the fingerprint inputs.
CACHE_ENTRY_VERSION = 1


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, newline."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


# --------------------------------------------------------------------- #
# Import-graph closure


def repo_root() -> Path:
    """The checkout root, derived from this file's location (src layout)."""
    return Path(__file__).resolve().parents[3]


def closure_roots(experiment: Experiment) -> Tuple[str, ...]:
    """The modules an experiment's fingerprint is walked from.

    Those are the modules defining its unit callable and its summary.
    A ``functools.partial`` is unwrapped: its own ``__module__`` is
    ``functools``, not the module of the code it binds.
    """
    roots: List[str] = []
    for fn in (experiment.fn, experiment.summarize):
        while isinstance(fn, functools.partial):
            fn = fn.func
        if fn is not None:
            roots.append(fn.__module__)
    return tuple(dict.fromkeys(roots))


def import_closure(
    project: ProjectContext, modules: Iterable[str]
) -> List[ModuleInfo]:
    """Every project module reachable from ``modules``, in dotted-name order.

    Every edge kind is followed, and a module's package ``__init__``s
    count because importing the module runs them.  Modules outside the
    project's ``src/`` tree (numpy, the stdlib, test modules) contribute
    nothing.
    """
    imports: Dict[str, List[str]] = {}
    for edge in project.edges:
        imports.setdefault(edge.src, []).append(edge.dst)
    seen: Set[str] = set()
    queue = list(modules)
    while queue:
        module = queue.pop()
        if module in seen or module not in project.modules:
            continue
        seen.add(module)
        parts = module.split(".")
        queue.extend(".".join(parts[:depth]) for depth in range(1, len(parts)))
        queue.extend(imports.get(module, ()))
    return [project.modules[name] for name in sorted(seen)]


def source_hashes(
    project: ProjectContext, modules: Iterable[str]
) -> Dict[str, str]:
    """``{repo-relative posix path: sha256}`` over the import closure."""
    return {
        info.path: hashlib.sha256(info.source.encode("utf-8")).hexdigest()
        for info in import_closure(project, modules)
    }


# --------------------------------------------------------------------- #
# Fingerprints


def unit_fingerprint(
    experiment: Experiment,
    unit: UnitContext,
    sources: Mapping[str, str],
) -> str:
    """The unit's content address; ``sources`` from :func:`source_hashes`."""
    spec = {
        "runner_version": RUNNER_SCHEMA_VERSION,
        "experiment": experiment.name,
        "seed": experiment.seed,
        "schema": {
            "version": experiment.schema.version,
            "fields": list(experiment.schema.fields),
        },
        "unit": {"index": unit.index, "params": dict(unit.params)},
        "sources": dict(sources),
    }
    return hashlib.sha256(canonical_json(spec).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# The on-disk cache


class ResultCache:
    """Directory of content-addressed unit results.

    Writes are atomic (tmp file + ``os.replace``) so a crashed run never
    leaves a half-written entry that later parses.  Reads validate the
    payload shape and embedded fingerprint; anything off is a miss.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.errors = 0  # corrupt/unreadable entries survived as misses

    def _path(self, experiment: str, fingerprint: str) -> Path:
        return self.directory / experiment / f"{fingerprint}.json"

    def get(self, experiment: str, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The cached result dict, or ``None`` (miss -- never raises)."""
        path = self._path(experiment, fingerprint)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.errors += 1
            self.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("entry_version") != CACHE_ENTRY_VERSION
            or payload.get("fingerprint") != fingerprint
            or not isinstance(payload.get("result"), dict)
        ):
            self.errors += 1
            self.misses += 1
            return None
        self.hits += 1
        return payload["result"]

    def put(
        self,
        experiment: str,
        fingerprint: str,
        unit: UnitContext,
        result: Mapping[str, Any],
    ) -> None:
        path = self._path(experiment, fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "entry_version": CACHE_ENTRY_VERSION,
            "fingerprint": fingerprint,
            "experiment": experiment,
            "unit_index": unit.index,
            "params": dict(unit.params),
            "result": dict(result),
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(canonical_json(payload), encoding="utf-8")
        os.replace(tmp, path)
