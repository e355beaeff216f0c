"""The fleet control plane: durable job lifecycle above the clusters.

The paper's deployment story (Sections 2.2 and 4) implies a service
layer above any single cluster: admission control that protects live
traffic, multi-region routing with failover, bounded retries, and
accounting good enough that no job is ever lost silently.  This package
is that layer for the simulated fleet:

* :mod:`repro.control.jobs` -- SLO classes, the per-job state machine,
  and the deterministic retry policy.
* :mod:`repro.control.queue` -- the durable job ledger (conservation
  invariant), strict-priority class queues, and the dead-letter ledger.
* :mod:`repro.control.admission` -- per-class load-factor ceilings and
  the class-ordered shedding sweep.
* :mod:`repro.control.failover` -- site runtimes and deterministic
  routing with failover/spill accounting and outage drains.
* :mod:`repro.control.plane` -- the :class:`ControlPlane` service tying
  it together over pluggable executors.
* :mod:`repro.control.scenario` -- the flagship "global platform day"
  scenario, its SLO scorecard, and the day runner ``surge`` shares.
* :mod:`repro.control.streaming` -- the segment-streaming executor that
  turns LIVE/UPLOAD jobs into ladder stream sessions.
* :mod:`repro.control.live_ladder` -- the "live ladder" scenario and its
  time-to-first-segment latency scorecard.
* :mod:`repro.control.catalog` -- the scenario catalog: one table that
  declares every deployment-narrative experiment (grids, seeds, run
  function and config class, summary columns).
* :mod:`repro.control.canary` -- the firmware canary-rollout scenario
  (stage, detect regression from scorecards, roll back or promote).
* :mod:`repro.control.chaos` -- the correlated-outage chaos campaign
  (blast radius x repair capacity under a capped repair queue).
* :mod:`repro.control.surge` -- popularity-surge / live-mix-shift
  demand disturbances on the platform day's runner.

Each scenario's ``build_scorecard`` is the one place its scorecard keys
are named; the reviewed key sets are the tests' golden files.

Re-exports resolve lazily (PEP 562): ``repro.control.catalog`` is
import-light by contract (a cache-hot ``repro-bench run`` expands grids
without touching the cluster simulator), so importing the package must
not eagerly pull the heavy scenario modules either.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - static-analysis aid only
    from repro.control.admission import AdmissionConfig, AdmissionController
    from repro.control.failover import FailoverRouter, SiteRuntime
    from repro.control.jobs import (
        CLASS_ORDER,
        SHED_ORDER,
        TERMINAL_STATES,
        IllegalTransition,
        Job,
        JobRequest,
        JobState,
        RetryPolicy,
        SloClass,
    )
    from repro.control.live_ladder import (
        LiveLadderConfig,
        LiveLadderResult,
        run_live_ladder,
    )
    from repro.control.plane import (
        ClusterExecutor,
        ControlPlane,
        ModeledExecutor,
        make_sites,
    )
    from repro.control.queue import (
        ClassQueue,
        DeadLetter,
        DeadLetterLedger,
        JobLedger,
        TransitionRecord,
    )
    from repro.control.scenario import (
        ScenarioConfig,
        ScenarioResult,
        build_scorecard,
        run_global_platform_day,
    )
    from repro.control.streaming import StreamingExecutor

# name -> defining submodule; repro.control.live_ladder's own
# ``build_scorecard`` is intentionally NOT re-exported here (the name
# belongs to the flagship scenario), and the
# canary/chaos/surge/catalog scenario APIs are module-scoped by design:
# import them from their modules directly.
_EXPORTS = {
    "AdmissionConfig": "admission",
    "AdmissionController": "admission",
    "CLASS_ORDER": "jobs",
    "ClassQueue": "queue",
    "ClusterExecutor": "plane",
    "ControlPlane": "plane",
    "DeadLetter": "queue",
    "DeadLetterLedger": "queue",
    "FailoverRouter": "failover",
    "IllegalTransition": "jobs",
    "Job": "jobs",
    "JobLedger": "queue",
    "JobRequest": "jobs",
    "JobState": "jobs",
    "LiveLadderConfig": "live_ladder",
    "LiveLadderResult": "live_ladder",
    "ModeledExecutor": "plane",
    "RetryPolicy": "jobs",
    "SHED_ORDER": "jobs",
    "ScenarioConfig": "scenario",
    "ScenarioResult": "scenario",
    "SiteRuntime": "failover",
    "SloClass": "jobs",
    "StreamingExecutor": "streaming",
    "TERMINAL_STATES": "jobs",
    "TransitionRecord": "queue",
    "build_scorecard": "scenario",
    "make_sites": "plane",
    "run_global_platform_day": "scenario",
    "run_live_ladder": "live_ladder",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.control' has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(f"repro.control.{module_name}")
    value = getattr(module, name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
