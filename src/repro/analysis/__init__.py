"""``repro.analysis``: the simulation-safety static analyzer.

The paper's fleet is operable because its software stack is *auditable
at scale* -- golden-task screening and black-holing mitigation run
continuously against every VCU (Section 5).  This package is the
reproduction's equivalent for the codebase itself: an AST-based lint
engine whose rules encode the repo's runtime contracts so a PR cannot
silently break them.

Per-file rules (each guards an invariant another subsystem depends on):

* ``determinism``       -- all randomness flows through explicit
  ``np.random.Generator`` streams built by :mod:`repro.sim.rng`; no
  wall-clock reads outside the perf harness.
* ``determinism-taint`` -- flow-sensitive companion to the above:
  values *derived from* ambient time/RNG must not be returned, yielded,
  or stored into object/module state (catches laundering through
  locals and helper functions).
* ``obs-hook``          -- every ``obs.active()`` result is None-checked
  before use and never captured beyond a local.
* ``sim-yield``         -- engine process generators only yield
  sanctioned values and never call blocking I/O.
* ``ordered-iteration`` -- no iteration over sets (or set-algebra on
  dict views) whose order could differ across runs.
* ``float-parity``      -- bit-exactness files use ``np.array_equal``,
  never tolerance comparisons.
* ``hygiene``           -- no mutable default arguments, no bare
  ``except:``.
* ``capacity-through-scheduler`` -- in the packages that hold workers,
  VCUs and resources, ``try_admit``/``acquire``/``release`` are called
  only on a scheduler, which keeps the scheduler's rows exact.

Whole-program passes (see :mod:`repro.analysis.project`) run over the
full source tree and land findings in ordinary files:

* ``layering``      -- package imports follow the declared architecture
  DAG (:data:`repro.analysis.layering.ALLOWED_DEPS`); hard import-time
  cycles are flagged separately.  ``repro-bench lint --graph`` emits the
  computed graph as DOT or versioned JSON.
* ``sim-race``      -- call graph rooted at ``Simulator.process`` spawn
  sites: extends sim-yield checks across ``yield from`` chains and
  flags shared mutable state written from two or more process roots.
* ``state-machine`` -- the declared job-lifecycle and worker-health
  transition tables are well-formed, every runtime transition site is
  legal, and every declared transition has a site.

The engine supports per-line and per-file pragma suppressions
(``# lint: allow=<rule>``), a committed baseline of grandfathered
findings (``lint-baseline.json``), and text/JSON reporters, all surfaced
through ``repro-bench lint``.  Everything here is numpy-free so the CLI
subcommand loads in milliseconds, like ``repro-bench report``.

Re-exports resolve lazily (PEP 562): the experiment runner imports
:mod:`repro.analysis.project` for its import graph, and that must not
load every lint rule.  The rule modules register themselves when a rule
list is first read (:func:`~repro.analysis.core.default_rules`,
:func:`~repro.analysis.project.default_project_rules`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - static-analysis aid only
    from repro.analysis.baseline import DEFAULT_BASELINE_NAME, Baseline
    from repro.analysis.core import (
        FileContext,
        Finding,
        LintResult,
        Rule,
        analyze_source,
        default_rules,
        iter_python_files,
        register,
        run_lint,
    )
    from repro.analysis.project import (
        ImportEdge,
        ModuleInfo,
        ProjectContext,
        ProjectRule,
        default_project_rules,
        graph_document,
        load_project,
        register_project,
        render_dot,
    )
    from repro.analysis.reporters import render_json, render_text

# name -> defining submodule
_EXPORTS = {
    "Baseline": "baseline",
    "DEFAULT_BASELINE_NAME": "baseline",
    "FileContext": "core",
    "Finding": "core",
    "ImportEdge": "project",
    "LintResult": "core",
    "ModuleInfo": "project",
    "ProjectContext": "project",
    "ProjectRule": "project",
    "Rule": "core",
    "analyze_source": "core",
    "default_project_rules": "project",
    "default_rules": "core",
    "graph_document": "project",
    "iter_python_files": "core",
    "load_project": "project",
    "register": "core",
    "register_project": "project",
    "render_dot": "project",
    "render_json": "reporters",
    "render_text": "reporters",
    "run_lint": "core",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.analysis' has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(f"repro.analysis.{module_name}")
    value = getattr(module, name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
