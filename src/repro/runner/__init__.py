"""``repro.runner``: the sharded deterministic experiment runner.

The paper's evaluation is a fleet of experiments (Tables 1-2, Figures
7-10, the ablations); this package turns that fleet into an orchestrated
sweep:

* :mod:`repro.runner.registry` -- every table/figure as a declarative
  :class:`Experiment` (callable + parameter grid + seed +
  schema-versioned result contract);
* :mod:`repro.runner.executor` -- process-level fan-out over shards with
  the seed-derivation rule ``split_rng(seed, f"{name}/unit{index}")``,
  guaranteeing byte-identical results for ``--jobs 1`` vs ``--jobs N``;
* :mod:`repro.runner.cache` -- a content-addressed on-disk result cache
  keyed by the experiment spec plus the SHA-256 of every source file in
  the import closure of the experiment's unit and summary code (walked
  over the project import graph, :func:`repro.analysis.load_project`);
* :mod:`repro.runner.manifest` -- the canonical ``BENCH_PR10.json``
  manifest (:data:`DEFAULT_MANIFEST_NAME`) and EXPERIMENTS.md-style
  markdown report;
* :mod:`repro.runner.experiments` -- the default registry wrapping the
  ``benchmarks/`` logic (Table 1, Table 2, Figure 7) and registering
  every :mod:`repro.control.catalog` scenario from its table entry.

Surfaced through ``repro-bench run [--jobs N] [--cache-dir DIR]``.
"""

from __future__ import annotations

from repro.runner.cache import (
    ResultCache,
    canonical_json,
    import_closure,
    source_hashes,
    unit_fingerprint,
)
from repro.runner.executor import (
    ExperimentRun,
    RunResult,
    RunStats,
    run_experiments,
)
from repro.runner.manifest import (
    DEFAULT_MANIFEST_NAME,
    build_manifest,
    manifest_text,
    render_markdown,
    render_stats,
    write_manifest,
)
from repro.runner.registry import (
    RUNNER_SCHEMA_VERSION,
    Experiment,
    ExperimentRegistry,
    ResultSchema,
    UnitContext,
)

__all__ = [
    "DEFAULT_MANIFEST_NAME",
    "Experiment",
    "ExperimentRegistry",
    "ExperimentRun",
    "ResultCache",
    "ResultSchema",
    "RunResult",
    "RunStats",
    "RUNNER_SCHEMA_VERSION",
    "UnitContext",
    "build_manifest",
    "canonical_json",
    "default_registry",
    "import_closure",
    "manifest_text",
    "render_markdown",
    "render_stats",
    "run_experiments",
    "source_hashes",
    "unit_fingerprint",
    "write_manifest",
]


def default_registry():
    """The registry of paper experiments (imported lazily: registering
    pulls in :mod:`repro.sim.rng`, i.e. numpy)."""
    from repro.runner.experiments import default_registry as _default

    return _default()
