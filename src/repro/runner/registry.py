"""Experiment registry: every paper table/figure/ablation as data.

An :class:`Experiment` is a declarative description of one evaluation
artifact: a callable, a parameter grid (one dict per *unit* of work), a
base seed, and a schema-versioned result contract.  The registry is the
single source of truth the sharded executor, the result cache, the
manifest writer, and the benchmark assertions all consume -- benches
become thin assertions over runner results instead of re-implementing
the sweep.

Seed-derivation rule (the determinism contract):

    unit rng = split_rng(experiment.seed, f"{experiment.name}/unit{index}")

The key is the experiment name plus the unit's index in the declared
grid -- never the worker, shard, or process that happens to execute the
unit -- so ``--jobs 1`` and ``--jobs N`` produce byte-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim.rng import split_rng

#: Bumped whenever the runner's on-disk contracts change shape; feeds
#: both the cache fingerprint and the manifest.
RUNNER_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ResultSchema:
    """The versioned contract a unit's result dict must satisfy.

    ``fields`` is the exact set of keys every unit result carries; the
    version participates in the cache fingerprint so a schema change
    invalidates stale entries even if the code hash were unchanged.
    """

    version: int
    fields: Tuple[str, ...]

    def validate(self, experiment: str, result: Mapping[str, Any]) -> None:
        got, want = set(result), set(self.fields)
        if got != want:
            missing = ", ".join(sorted(want - got)) or "-"
            extra = ", ".join(sorted(got - want)) or "-"
            raise ValueError(
                f"{experiment}: result does not match schema v{self.version} "
                f"(missing: {missing}; unexpected: {extra})"
            )


@dataclass(frozen=True)
class UnitContext:
    """Everything a unit callable receives: its identity and parameters."""

    experiment: str
    index: int
    params: Mapping[str, Any]
    seed: int

    @property
    def rng(self):  # -> np.random.Generator (annotation kept lazy: numpy)
        """The unit's private stream, derived from identity only."""
        return split_rng(self.seed, f"{self.experiment}/unit{self.index}")


#: A unit callable: UnitContext -> result dict matching the schema.
UnitFn = Callable[[UnitContext], Dict[str, Any]]
#: Optional cross-unit summary: ordered results -> markdown-ready rows.
SummarizeFn = Callable[[Sequence[Dict[str, Any]]], List[Dict[str, Any]]]


@dataclass(frozen=True)
class Experiment:
    """One registered paper artifact (table, figure, or ablation)."""

    name: str
    title: str
    fn: UnitFn
    grid: Tuple[Mapping[str, Any], ...]
    seed: int
    schema: ResultSchema
    #: Reduced grid for CI smoke runs; defaults to the full grid.
    smoke_grid: Optional[Tuple[Mapping[str, Any], ...]] = None
    #: Cross-unit reduction rendered as the manifest's markdown table
    #: (paper-vs-measured rows); defaults to the raw unit results.
    summarize: Optional[SummarizeFn] = None
    #: Dotted modules whose transitive import closure fingerprints this
    #: experiment's code; defaults to the unit callable's module.
    sources: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("experiment needs a name")
        if not self.grid:
            raise ValueError(f"{self.name}: parameter grid is empty")
        if not self.sources:
            object.__setattr__(self, "sources", (self.fn.__module__,))

    def units(self, smoke: bool = False) -> List[UnitContext]:
        """Expand the grid into ordered unit contexts."""
        grid = self.smoke_grid if smoke and self.smoke_grid is not None else self.grid
        return [
            UnitContext(experiment=self.name, index=i, params=params, seed=self.seed)
            for i, params in enumerate(grid)
        ]

    def run_unit(self, unit: UnitContext) -> Dict[str, Any]:
        """Execute one unit and validate its result against the schema."""
        result = self.fn(unit)
        self.schema.validate(self.name, result)
        return result

    def summary_rows(
        self, results: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        if self.summarize is not None:
            return self.summarize(results)
        return [dict(r) for r in results]


class ExperimentRegistry:
    """A named collection of experiments with deterministic ordering."""

    def __init__(self) -> None:
        self._experiments: Dict[str, Experiment] = {}

    def add(self, experiment: Experiment) -> Experiment:
        if experiment.name in self._experiments:
            raise ValueError(f"duplicate experiment {experiment.name!r}")
        self._experiments[experiment.name] = experiment
        return experiment

    def experiment(
        self,
        name: str,
        title: str,
        grid: Sequence[Mapping[str, Any]],
        seed: int,
        schema: ResultSchema,
        smoke_grid: Optional[Sequence[Mapping[str, Any]]] = None,
        summarize: Optional[SummarizeFn] = None,
        sources: Sequence[str] = (),
    ) -> Callable[[UnitFn], UnitFn]:
        """Decorator form: register ``fn`` as ``name``'s unit callable."""

        def wrap(fn: UnitFn) -> UnitFn:
            self.add(Experiment(
                name=name,
                title=title,
                fn=fn,
                grid=tuple(dict(p) for p in grid),
                seed=seed,
                schema=schema,
                smoke_grid=(None if smoke_grid is None
                            else tuple(dict(p) for p in smoke_grid)),
                summarize=summarize,
                sources=tuple(sources),
            ))
            return fn

        return wrap

    def get(self, name: str) -> Experiment:
        try:
            return self._experiments[name]
        except KeyError:
            known = ", ".join(self.names()) or "(none)"
            raise KeyError(
                f"unknown experiment {name!r}; registered: {known}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._experiments)

    def select(self, names: Sequence[str] = ()) -> List[Experiment]:
        """Experiments by name, each once in first-seen order (all of
        them, name-sorted, when ``names`` is empty)."""
        if not names:
            return [self._experiments[name] for name in self.names()]
        return [self.get(name) for name in dict.fromkeys(names)]

    def __contains__(self, name: str) -> bool:
        return name in self._experiments

    def __len__(self) -> int:
        return len(self._experiments)
