"""A finished simulation is freed by reference counting.

No reference cycle may join a simulator, its cluster, their owners and
the devices (DESIGN.md "Object lifetime"): once the function that ran a
simulation returns, nothing of it is left for the cyclic collector.
Several simulations run back to back in one process (Figure 9's months,
the scenario catalog), and a cycle would keep each finished one in
memory until the collector's next full pass.

Each check runs a simulation with the cyclic collector disabled, after a
warm-up run of the same call (first runs fill import-time caches), and
asserts that ``gc.collect()`` then finds nothing.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

from repro import obs
from repro.cluster.timeline import default_timeline, run_month
from repro.cluster.worker import VcuWorker
from repro.control import catalog
from repro.runner import default_registry
from repro.sim.engine import Simulator
from repro.sim.hooks import WeakHook
from repro.vcu.host import VcuHost

#: Short horizons for each catalog experiment's first smoke unit.
SHORT_UNITS = {
    "canary-rollout": {"horizon_seconds": 12.0},
    "chaos-campaign": {"horizon_seconds": 60.0},
    "live-ladder": {"horizon_seconds": 60.0},
    "platform-day": {"day_seconds": 120.0},
    "surge-mix": {"day_seconds": 120.0},
    "tuning-timeline": {"horizon_seconds": 10.0},
}


def cyclic_garbage(run) -> int:
    """Objects the cyclic collector frees after ``run()``, with the
    collector off while it runs."""
    run()  # warm-up
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_every_catalog_experiment_is_covered():
    assert set(SHORT_UNITS) == set(catalog.catalog_names())


def test_a_horizon_cut_month_leaves_no_cycle():
    month = default_timeline(16)[7]
    assert cyclic_garbage(
        lambda: run_month(month, horizon_seconds=10.0, seed=5)
    ) == 0


@pytest.mark.parametrize("name", sorted(SHORT_UNITS))
def test_a_catalog_unit_leaves_no_cycle(name):
    experiment = default_registry().get(name)
    unit = experiment.units(smoke=True)[0]
    unit = replace(unit, params=dict(unit.params, **SHORT_UNITS[name]))
    assert cyclic_garbage(lambda: experiment.run_unit(unit)) == 0


@pytest.mark.parametrize("name", ["chaos-campaign", "live-ladder"])
def test_an_observed_unit_leaves_no_cycle(name):
    experiment = default_registry().get(name)
    unit = experiment.units(smoke=True)[0]
    unit = replace(unit, params=dict(unit.params, **SHORT_UNITS[name]))

    def run():
        with obs.installed():
            experiment.run_unit(unit)

    assert cyclic_garbage(run) == 0


def test_closing_a_cut_run_frees_its_processes():
    def run():
        sim = Simulator()
        state = {"sim": sim}

        def ticker():
            while True:
                yield 1.0
                state["ticks"] = sim.now

        sim.process(ticker())
        sim.call_at(50.0, lambda: state.clear())
        sim.run(until=2.5)
        sim.close()

    assert cyclic_garbage(run) == 0


class TestDevices:
    def test_a_device_reads_its_host_without_owning_it(self):
        host = VcuHost(host_id="h0")
        vcu = host.vcus[0]
        assert vcu.host is host and vcu.telemetry.host is host
        vcu.disable()
        assert host.disabled_vcus == 1
        del host
        assert vcu.host is None and vcu.telemetry.host is None
        vcu.enable()  # no host left to tell: not an error
        assert not vcu.disabled

    def test_a_host_and_its_workers_leave_no_cycle(self):
        def run():
            host = VcuHost(host_id="h0")
            [VcuWorker(vcu, host=host) for vcu in host.vcus]

        assert cyclic_garbage(run) == 0


class Owner:
    hook = WeakHook()

    def __init__(self):
        self.seen = []

    def note(self, value):
        self.seen.append(value)


class TestWeakHook:
    def test_a_bound_method_behaves_as_itself_while_its_object_lives(self):
        owner, target = Owner(), Owner()
        owner.hook = target.note
        assert owner.hook == target.note
        owner.hook(3)
        assert target.seen == [3]

    def test_a_bound_method_does_not_keep_its_object_alive(self):
        owner = Owner()
        owner.hook = Owner().note
        assert owner.hook is None

    def test_an_owner_hooked_to_itself_leaves_no_cycle(self):
        def run():
            owner = Owner()
            owner.hook = owner.note
            owner.hook(1)

        assert cyclic_garbage(run) == 0

    def test_plain_callables_and_none_are_held_as_given(self):
        owner, seen = Owner(), []
        assert owner.hook is None
        owner.hook = seen.append
        owner.hook(1)
        owner.hook = lambda value: seen.append(value * 10)
        owner.hook(2)
        assert seen == [1, 20]
        owner.hook = None
        assert owner.hook is None
