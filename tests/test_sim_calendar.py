"""Property suite for the bucketed calendar engine (hypothesis).

:mod:`repro.sim.engine` keeps one calendar: a dict of exact-timestamp
buckets over one min-heap of the distinct timestamps.  It is held to
:mod:`tests.oracles.engine` (the frozen single-heap engine): randomly
generated process/timer/timeout workloads must produce byte-identical
dispatch traces -- the ``(when, seq)`` total order, ties, pushes to the
instant being dispatched, ``run(until=...)`` boundaries, cancelled
timers at the queue head, and zero-delay self-reschedules.  Delays and
timer times run from zero to 1e6 s, so one heap is held to the
oracle across near and far-future timestamps alike.

The satellite behaviours ride along: ``bool`` yields are rejected with a
useful TypeError, exotic int/float subclasses still work, and
``Simulator.timeout`` delivers its value, eagerly rejects a negative
delay and fires ties in schedule order.
"""

from __future__ import annotations

import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import engine
from tests.oracles import engine as reference

# Delay grid for engine scenarios: ties dominate; includes zero and
# far-future delays.
delay_grid = st.sampled_from([0.0, 0.001, 0.5, 1.0, 1.0, 2.5, 70.0, 1e3, 1e6])

# Timer times: free floats near the start plus far-future ties.
timer_times = st.one_of(
    st.floats(min_value=0.0, max_value=90.0, allow_nan=False),
    st.sampled_from([1e3, 1e6]),
)


# --------------------------------------------------------------------- #
# Engine vs the frozen reference


def _run_scenario(module, spec, until=None):
    """Execute one generated scenario on ``module``'s Simulator.

    ``spec`` is (process_delays, timers, timeouts): each process yields
    its delay list; timers are (when, cancelled) pairs; timeouts are
    (delay, value) pairs consumed by a dedicated waiter process.  The
    returned trace is every observable dispatch in order.
    """
    process_delays, timers, timeouts = spec
    sim = module.Simulator()
    trace = []

    def ticker(pid, delays):
        for i, delay in enumerate(delays):
            yield delay
            trace.append(("tick", pid, i, round(sim.now, 12)))

    for pid, delays in enumerate(process_delays):
        sim.process(ticker(pid, delays), name=f"p{pid}")

    for tid, (when, cancelled) in enumerate(timers):
        timer = sim.call_at(
            when, lambda tid=tid: trace.append(("timer", tid, round(sim.now, 12)))
        )
        if cancelled:
            timer.cancel()

    def waiter(wid, delay, value):
        got = yield sim.timeout(delay, value)
        trace.append(("timeout", wid, got, round(sim.now, 12)))

    for wid, (delay, value) in enumerate(timeouts):
        sim.process(waiter(wid, delay, value), name=f"w{wid}")

    end = sim.run(until=until)
    trace.append(("end", round(end, 12)))
    if until is not None:
        end = sim.run()  # drain the rest; the boundary must not lose events
        trace.append(("end", round(end, 12)))
    return trace


scenarios = st.tuples(
    st.lists(st.lists(delay_grid, max_size=6), max_size=6),
    st.lists(st.tuples(timer_times, st.booleans()), max_size=4),
    st.lists(st.tuples(delay_grid, st.integers(0, 5)), max_size=4),
)


class TestEngineMatchesReference:
    @settings(deadline=None)
    @given(spec=scenarios)
    def test_traces_identical(self, spec):
        assert _run_scenario(engine, spec) == _run_scenario(reference, spec)

    @settings(deadline=None)
    @given(spec=scenarios,
           until=st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    def test_traces_identical_with_until_boundary(self, spec, until):
        assert (_run_scenario(engine, spec, until=until)
                == _run_scenario(reference, spec, until=until))

    @pytest.mark.parametrize("module", [engine, reference])
    def test_cancelled_timer_at_head_does_not_advance_clock(self, module):
        sim = module.Simulator()
        fired = []
        head = sim.call_at(5.0, lambda: fired.append("head"))
        sim.call_at(10.0, lambda: fired.append("tail"))
        head.cancel()
        assert sim.run(until=7.0) == 7.0
        assert sim.now == 7.0  # the cancelled t=5 timer left no footprint
        assert fired == []
        sim.run()
        assert fired == ["tail"]
        assert sim.now == 10.0

    @pytest.mark.parametrize("module", [engine, reference])
    def test_an_entry_is_not_dispatched_again_after_an_error(self, module):
        # The run loop takes an instant's entries off the calendar before
        # it dispatches them, so a run resumed after an error does not
        # replay the timer that fired before it.
        sim = module.Simulator()
        fired = []
        sim.call_at(1.0, lambda: fired.append(sim.now))

        def bad():
            yield 1.0
            yield -1.0

        sim.process(bad(), name="bad")
        with pytest.raises(ValueError, match="negative"):
            sim.run()
        sim.run()
        assert fired == [1.0]

    @pytest.mark.parametrize("module", [engine, reference])
    def test_event_exactly_at_until_fires(self, module):
        sim = module.Simulator()
        fired = []
        sim.call_at(5.0, lambda: fired.append("at"))
        sim.run(until=5.0)
        assert fired == ["at"]


# --------------------------------------------------------------------- #
# Satellite: the yield-type ladder


class _Level(enum.IntEnum):
    LOW = 2


class TestYieldTypes:
    def test_bool_yield_raises_type_error(self):
        sim = engine.Simulator()

        def bad():
            yield True  # lint: allow=sim-yield -- the rejection under test

        sim.process(bad(), name="boolish")
        with pytest.raises(TypeError, match="never a delay"):
            sim.run()

    def test_bool_false_also_rejected(self):
        # False == 0, the historical hole: it used to schedule a
        # zero-delay resume instead of flagging the bug.
        sim = engine.Simulator()

        def bad():
            yield False  # lint: allow=sim-yield -- the rejection under test

        sim.process(bad(), name="falsy")
        with pytest.raises(TypeError, match="bool"):
            sim.run()

    def test_int_subclass_is_a_delay(self):
        sim = engine.Simulator()
        seen = []

        def proc():
            yield _Level.LOW
            seen.append(sim.now)

        sim.process(proc(), name="enumish")
        sim.run()
        assert seen == [2.0]

    def test_unrelated_object_raises_with_type_name(self):
        sim = engine.Simulator()

        def bad():
            yield "soon"  # lint: allow=sim-yield -- the rejection under test

        sim.process(bad(), name="stringly")
        with pytest.raises(TypeError, match="str"):
            sim.run()

    def test_negative_delay_raises(self):
        sim = engine.Simulator()

        def bad():
            yield -1.0

        sim.process(bad(), name="backwards")
        with pytest.raises(ValueError, match="negative"):
            sim.run()


class TestTimeoutFastPath:
    def test_timeout_delivers_value_without_timer(self):
        sim = engine.Simulator()
        got = []

        def waiter():
            got.append((yield sim.timeout(3.0, "payload")))

        sim.process(waiter(), name="w")
        sim.run()
        assert got == ["payload"]
        assert sim.now == 3.0

    def test_timeout_negative_delay_raises_eagerly(self):
        sim = engine.Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-0.5)

    def test_timeout_ties_fire_in_schedule_order(self):
        sim = engine.Simulator()
        order = []

        def waiter(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.process(waiter(tag), name=tag)
        sim.run()
        assert order == ["a", "b", "c"]
