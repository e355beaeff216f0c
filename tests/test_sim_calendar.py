"""Property suite for the calendar-queue engine (hypothesis).

Two oracles pin the PR8 engine swap down:

* :class:`~repro.sim.calendar.CalendarQueue` against a ``(when, seq)``
  heapq -- the exact total order the old engine implemented -- across
  arbitrary interleavings of pushes (tie-heavy, far-future, same-instant
  re-pushes) and batch pops.
* :mod:`repro.sim.engine` against :mod:`tests.oracles.engine` (the frozen
  single-heap engine): randomly generated process/timer/timeout
  workloads must produce byte-identical dispatch traces, including
  ``run(until=...)`` boundaries, cancelled timers at the queue head, and
  zero-delay self-reschedules.

The satellite behaviours ride along: ``bool`` yields are rejected with a
useful TypeError, exotic int/float subclasses still work, and
``Simulator.timeout`` delivers its value, eagerly rejects a negative
delay and fires ties in schedule order.
"""

from __future__ import annotations

import enum
import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import engine
from repro.sim.calendar import CalendarQueue
from tests.oracles import engine as reference

# A grid of timestamps guaranteeing heavy ties plus values beyond the
# small test span (to force overflow migration), mixed with free floats.
tie_grid = st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.75, 8.0, 9.0, 40.0, 200.0])
whens = st.one_of(
    tie_grid,
    st.floats(min_value=0.0, max_value=300.0,
              allow_nan=False, allow_infinity=False),
)

# Delay grid for engine scenarios: ties dominate; includes zero.
delay_grid = st.sampled_from([0.0, 0.001, 0.5, 1.0, 1.0, 2.5, 70.0])


def _drain(cal: CalendarQueue):
    out = []
    while cal:
        when, batch = cal.pop_batch()
        for entry in batch:
            out.append((when, entry))
    return out


class TestCalendarQueueOrder:
    @given(pushes=st.lists(whens, max_size=120))
    def test_drain_matches_heapq_total_order(self, pushes):
        cal = CalendarQueue(span=8.0)
        oracle = []
        for seq, when in enumerate(pushes):
            cal.push(when, seq)
            heapq.heappush(oracle, (when, seq))
        expected = [heapq.heappop(oracle) for _ in range(len(oracle))]
        assert _drain(cal) == expected

    @given(ops=st.lists(
        st.one_of(
            st.tuples(st.just("push"), whens),
            st.tuples(st.just("pop"), st.just(None)),
        ),
        max_size=120,
    ))
    def test_interleaved_pops_match_heapq(self, ops):
        """Pushes interleaved with batch pops, engine-style: a push after
        a pop lands at or after the popped timestamp (the simulator never
        schedules into the past)."""
        cal = CalendarQueue(span=8.0)
        oracle = []
        got = []
        expected = []
        now = 0.0
        seq = 0
        for op, offset in ops:
            if op == "push":
                when = now + offset
                cal.push(when, seq)
                heapq.heappush(oracle, (when, seq))
                seq += 1
            elif oracle:
                when, entries = cal.pop_batch()
                now = when
                got.extend((when, e) for e in entries)
                while oracle and oracle[0][0] == when:
                    expected.append(heapq.heappop(oracle))
        got.extend(_drain(cal))
        expected.extend(heapq.heappop(oracle) for _ in range(len(oracle)))
        assert got == expected

    @given(pushes=st.lists(whens, min_size=1, max_size=60))
    def test_peek_agrees_with_pop(self, pushes):
        cal = CalendarQueue(span=8.0)
        for seq, when in enumerate(pushes):
            cal.push(when, seq)
        while cal:
            peeked = cal.peek_when()
            when, _ = cal.pop_batch()
            assert peeked == when
        assert cal.peek_when() is None

    def test_same_instant_push_lands_in_fresh_bucket(self):
        """An entry pushed at the timestamp being dispatched fires after
        the already-queued ties -- the heapq would have done the same."""
        cal = CalendarQueue(span=8.0)
        cal.push(1.0, "a")
        cal.push(1.0, "b")
        when, batch = cal.pop_batch()
        assert (when, batch) == (1.0, ["a", "b"])
        cal.push(1.0, "c")  # scheduled *during* dispatch of t=1.0
        assert cal.pop_batch() == (1.0, ["c"])

    def test_horizon_never_moves_backwards(self):
        cal = CalendarQueue(span=8.0)
        cal.push(100.0, "far")
        cal.push(101.0, "farther")
        assert cal.pop_batch() == (100.0, ["far"])
        horizon_after_first = cal.horizon
        assert cal.pop_batch() == (101.0, ["farther"])
        assert cal.horizon >= horizon_after_first

    def test_empty_pop_raises_index_error(self):
        with pytest.raises(IndexError):
            CalendarQueue().pop_batch()

    def test_rejects_non_positive_span(self):
        with pytest.raises(ValueError):
            CalendarQueue(span=0.0)

    @given(pushes=st.lists(whens, max_size=60))
    def test_pending_count_tracks_entries(self, pushes):
        cal = CalendarQueue(span=8.0)
        for seq, when in enumerate(pushes):
            cal.push(when, seq)
        assert cal.pending_count() == len(pushes)
        assert bool(cal) == bool(pushes)


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
    st.lists(st.tuples(st.floats(min_value=0.0, max_value=90.0,
                                 allow_nan=False),
                       st.booleans()), max_size=4),
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
