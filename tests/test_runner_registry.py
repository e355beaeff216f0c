"""Registry-layer tests: schema contract, seed derivation, selection.

The seed-derivation rule is the runner's determinism keystone: a unit's
RNG depends only on (experiment seed, experiment name, grid index), so
the same unit produces the same stream no matter which worker, shard, or
job count executes it.
"""

from __future__ import annotations

import pytest

from repro.runner.registry import (
    Experiment,
    ExperimentRegistry,
    ResultSchema,
    UnitContext,
)
from repro.sim.rng import split_rng

SCHEMA = ResultSchema(version=1, fields=("x", "y"))


def unit_fn(ctx):
    return {"x": ctx.params["x"], "y": float(ctx.rng.random())}


def make_experiment(**overrides):
    kwargs = dict(
        name="toy",
        title="Toy experiment",
        fn=unit_fn,
        grid=({"x": 0}, {"x": 1}, {"x": 2}),
        seed=11,
        schema=SCHEMA,
    )
    kwargs.update(overrides)
    return Experiment(**kwargs)


class TestResultSchema:
    def test_accepts_exact_field_set(self):
        SCHEMA.validate("toy", {"x": 1, "y": 2.0})

    def test_rejects_missing_and_extra_fields(self):
        with pytest.raises(ValueError, match="missing: y"):
            SCHEMA.validate("toy", {"x": 1})
        with pytest.raises(ValueError, match="unexpected: z"):
            SCHEMA.validate("toy", {"x": 1, "y": 2.0, "z": 3})

    def test_error_names_the_experiment_and_version(self):
        with pytest.raises(ValueError, match=r"toy: .*schema v1"):
            SCHEMA.validate("toy", {})


class TestSeedDerivation:
    def test_rng_keyed_on_name_and_index_only(self):
        unit = UnitContext(experiment="toy", index=2, params={}, seed=11)
        expected = split_rng(11, "toy/unit2")
        assert unit.rng.random() == expected.random()

    def test_same_identity_same_stream(self):
        a = UnitContext(experiment="toy", index=0, params={"x": 0}, seed=11)
        b = UnitContext(experiment="toy", index=0, params={"anything": 9}, seed=11)
        # Params are inputs to the unit fn, not to the stream.
        assert a.rng.random() == b.rng.random()

    def test_distinct_units_get_distinct_streams(self):
        draws = [
            UnitContext(experiment="toy", index=i, params={}, seed=11).rng.random()
            for i in range(4)
        ]
        assert len(set(draws)) == len(draws)

    def test_experiment_name_separates_streams(self):
        a = UnitContext(experiment="toy", index=0, params={}, seed=11)
        b = UnitContext(experiment="other", index=0, params={}, seed=11)
        assert a.rng.random() != b.rng.random()


class TestExperiment:
    def test_requires_name_and_nonempty_grid(self):
        with pytest.raises(ValueError, match="needs a name"):
            make_experiment(name="")
        with pytest.raises(ValueError, match="grid is empty"):
            make_experiment(grid=())

    def test_units_are_ordered_and_indexed(self):
        units = make_experiment().units()
        assert [u.index for u in units] == [0, 1, 2]
        assert [u.params["x"] for u in units] == [0, 1, 2]
        assert all(u.experiment == "toy" and u.seed == 11 for u in units)

    def test_smoke_grid_applies_only_when_asked(self):
        exp = make_experiment(smoke_grid=({"x": 0},))
        assert len(exp.units()) == 3
        assert len(exp.units(smoke=True)) == 1
        # Without a smoke grid, smoke runs fall back to the full grid.
        assert len(make_experiment().units(smoke=True)) == 3

    def test_run_unit_validates_result(self):
        exp = make_experiment(fn=lambda ctx: {"x": 1})
        with pytest.raises(ValueError, match="missing: y"):
            exp.run_unit(exp.units()[0])

    def test_summary_defaults_to_result_copies(self):
        exp = make_experiment()
        results = [{"x": 0, "y": 1.0}]
        rows = exp.summary_rows(results)
        assert rows == results
        assert rows[0] is not results[0]

    def test_summarize_hook_wins(self):
        exp = make_experiment(summarize=lambda rs: [{"n": len(rs)}])
        assert exp.summary_rows([{}, {}]) == [{"n": 2}]


class TestRegistry:
    def test_add_get_select_roundtrip(self):
        registry = ExperimentRegistry()
        exp = registry.add(make_experiment())
        assert "toy" in registry
        assert len(registry) == 1
        assert registry.get("toy") is exp
        assert registry.select() == [exp]
        assert registry.select(["toy"]) == [exp]

    def test_duplicate_names_rejected(self):
        registry = ExperimentRegistry()
        registry.add(make_experiment())
        with pytest.raises(ValueError, match="duplicate"):
            registry.add(make_experiment())

    def test_unknown_name_error_lists_known(self):
        registry = ExperimentRegistry()
        registry.add(make_experiment())
        with pytest.raises(KeyError, match="registered: toy"):
            registry.get("nope")

    def test_names_and_default_selection_are_sorted(self):
        registry = ExperimentRegistry()
        registry.add(make_experiment(name="zeta"))
        registry.add(make_experiment(name="alpha"))
        assert registry.names() == ["alpha", "zeta"]
        assert [e.name for e in registry.select()] == ["alpha", "zeta"]

    def test_select_takes_each_name_once_in_first_seen_order(self):
        registry = ExperimentRegistry()
        a = registry.add(make_experiment(name="a"))
        b = registry.add(make_experiment(name="b"))
        assert registry.select(["a", "a"]) == [a]
        assert registry.select(["b", "a", "b"]) == [b, a]

    def test_decorator_registers_and_returns_fn(self):
        registry = ExperimentRegistry()

        @registry.experiment(
            name="dec", title="Decorated", grid=[{"x": 1}], seed=3, schema=SCHEMA
        )
        def decorated(ctx):
            return {"x": ctx.params["x"], "y": 0.0}

        assert registry.get("dec").fn is decorated
        assert decorated(registry.get("dec").units()[0]) == {"x": 1, "y": 0.0}
        assert registry.get("dec").grid == ({"x": 1},)
