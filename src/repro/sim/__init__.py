"""Discrete-event simulation substrate.

The warehouse-scale portions of the reproduction (clusters, schedulers,
workers, failure management) run on this small deterministic discrete-event
engine.  It provides:

* :class:`~repro.sim.engine.Simulator` -- an event loop with a virtual clock,
  process scheduling, and deterministic tie-breaking.
* :class:`~repro.sim.resources.MultiResource` -- multi-dimensional
  resources reserved atomically (they underpin the paper's bin-packing
  scheduler).
* :func:`~repro.sim.rng.make_rng` -- seeded, stream-split random number
  generators so every experiment is reproducible.
"""

from repro.sim.engine import Event, Process, Simulator, Timer
from repro.sim.resources import MultiResource
from repro.sim.rng import make_rng, split_rng

__all__ = [
    "Event",
    "Process",
    "Simulator",
    "Timer",
    "MultiResource",
    "make_rng",
    "split_rng",
]
