"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.sim import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []
    sim.call_in(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]
    assert sim.now == 5.0


def test_events_fire_in_time_order_with_fifo_ties():
    sim = Simulator()
    order = []
    sim.call_in(2.0, lambda: order.append("b"))
    sim.call_in(1.0, lambda: order.append("a"))
    sim.call_in(2.0, lambda: order.append("c"))  # same time as b, added later
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_early():
    sim = Simulator()
    fired = []
    sim.call_in(10.0, lambda: fired.append(1))
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    sim.run()
    assert fired == [1]


def test_run_until_advances_idle_clock():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_run_until_in_the_past_rejected_and_clock_kept():
    sim = Simulator()
    order = []
    sim.call_at(10.0, lambda: order.append(10.0))
    sim.call_at(20.0, lambda: order.append(20.0))
    sim.run(until=15.0)
    with pytest.raises(ValueError, match="until"):
        sim.run(until=5.0)
    assert sim.now == 15.0  # the clock did not move backwards
    assert sim.run(until=15.0) == 15.0  # until == now is not the past
    with pytest.raises(ValueError, match="before now"):
        sim.call_at(7.0, lambda: order.append(7.0))
    sim.run()
    assert order == [10.0, 20.0]


@pytest.mark.parametrize("until", [math.nan, math.inf, -math.inf])
def test_non_finite_until_rejected_before_anything_runs(until):
    sim = Simulator()
    fired = []
    sim.call_at(3.0, lambda: fired.append(sim.now))
    with pytest.raises(ValueError, match="until"):
        sim.run(until=until)
    assert sim.now == 0.0
    assert fired == []
    assert sim.run() == 3.0
    assert fired == [3.0]


def test_close_drops_pending_work_and_keeps_the_clock():
    sim = Simulator()
    trace = []

    def ticker():
        try:
            while True:
                yield 1.0
                trace.append(sim.now)
        finally:
            trace.append("closed")

    sim.process(ticker())
    sim.call_at(50.0, lambda: trace.append("late timer"))
    sim.run(until=2.5)
    sim.close()
    assert trace == [1.0, 2.0, "closed"]
    assert sim.now == 2.5
    assert sim.active_process is None
    assert sim.run() == 2.5  # nothing left to run
    sim.call_in(1.0, lambda: trace.append(sim.now))
    sim.run()
    assert trace[-1] == 3.5


def test_process_yields_delays():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(sim.now)
        yield 3.0
        trace.append(sim.now)
        yield 4.0
        trace.append(sim.now)

    sim.process(proc())
    sim.run()
    assert trace == [0.0, 3.0, 7.0]


def test_process_waits_on_event_and_receives_value():
    sim = Simulator()
    gate = sim.event()
    got = []

    def waiter():
        value = yield gate
        got.append((sim.now, value))

    sim.process(waiter())
    sim.call_in(6.0, lambda: gate.succeed("payload"))
    sim.run()
    assert got == [(6.0, "payload")]


def test_event_fires_once_only():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(RuntimeError):
        event.succeed()


def test_event_value_before_fire_raises():
    sim = Simulator()
    with pytest.raises(RuntimeError):
        _ = sim.event().value


def test_waiting_on_fired_event_resumes_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed(5)
    got = []

    def waiter():
        got.append((yield event))

    sim.process(waiter())
    sim.run()
    assert got == [5]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    a, b = sim.timeout(1.0, "a"), sim.timeout(5.0, "b")
    combined = sim.all_of([a, b])
    done_at = []

    def waiter():
        values = yield combined
        done_at.append((sim.now, values))

    sim.process(waiter())
    sim.run()
    assert done_at == [(5.0, ["a", "b"])]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    combined = sim.all_of([])
    sim.run()
    assert combined.fired


def test_negative_delay_rejected():
    sim = Simulator()

    def proc():
        yield -1.0

    sim.process(proc())
    with pytest.raises(ValueError):
        sim.run()


def _sleep(delay):
    def schedule(sim):
        def sleeper():
            yield delay

        sim.process(sleeper(), name="sleeper")
        sim.run(until=10.0)

    return schedule


@pytest.mark.parametrize(
    "schedule, message",
    [
        (_sleep(math.inf), "'sleeper' yielded non-finite delay"),
        (_sleep(math.nan), "'sleeper' yielded non-finite delay"),
        (lambda sim: sim.call_at(math.nan, lambda: None), "non-finite time"),
        (lambda sim: sim.timeout(math.inf), "non-finite time"),
    ],
    ids=["yield-inf", "yield-nan", "call_at-nan", "timeout-inf"],
)
def test_non_finite_time_rejected_where_scheduled(schedule, message):
    sim = Simulator()
    fired = []
    sim.call_at(3.0, lambda: fired.append(sim.now))
    with pytest.raises(ValueError, match=message):
        schedule(sim)
    assert fired == [] and sim.now == 0.0
    sim.run()  # the finite schedule is intact
    assert fired == [3.0]


def test_scheduling_in_the_past_rejected():
    sim = Simulator()
    sim.call_in(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(1.0, lambda: None)


def test_bad_yield_type_rejected():
    def idle():
        yield 1.0

    def proc(sim):
        yield "nonsense"  # lint: allow=sim-yield -- the bad yield under test

    def waits_on_process(sim):
        yield sim.process(idle())  # a Process is not an Event

    for bad, type_name in ((proc, "str"), (waits_on_process, "Process")):
        sim = Simulator()
        sim.process(bad(sim))
        with pytest.raises(TypeError, match=type_name):
            sim.run()


# --------------------------------------------------------------------- #
# Resilience primitives: timer cancellation, interruption, any_of


def test_cancelled_timer_never_fires_and_does_not_stretch_the_run():
    sim = Simulator()
    fired = []
    timer = sim.call_in(100.0, lambda: fired.append("late"))
    sim.call_in(2.0, lambda: fired.append("early"))
    timer.cancel()
    end = sim.run()
    assert fired == ["early"]
    assert end == 2.0  # the cancelled entry must not advance the clock


def test_any_of_fires_with_winning_index_and_value():
    sim = Simulator()
    slow, fast = sim.timeout(9.0, "slow"), sim.timeout(2.0, "fast")
    got = []

    def waiter():
        got.append((yield sim.any_of([slow, fast])))

    sim.process(waiter())
    sim.run(until=3.0)
    assert got == [(1, "fast")]


def test_any_of_tie_prefers_lowest_index():
    sim = Simulator()
    a, b = sim.timeout(4.0, "a"), sim.timeout(4.0, "b")
    combined = sim.any_of([a, b])
    sim.run()
    assert combined.value == (0, "a")


def test_any_of_with_already_fired_event():
    sim = Simulator()
    done = sim.event()
    done.succeed("ready")
    combined = sim.any_of([sim.timeout(5.0, "later"), done])
    sim.run(until=1.0)
    assert combined.fired
    assert combined.value == (1, "ready")


def test_any_of_rejects_empty_input():
    with pytest.raises(ValueError):
        Simulator().any_of([])


def test_any_of_can_race_a_process_against_a_deadline():
    sim = Simulator()
    outcomes = []

    def work(seconds, finished):
        yield seconds
        finished.succeed("finished")

    def supervise(seconds, deadline):
        finished = sim.event()
        sim.process(work(seconds, finished))
        index, value = yield sim.any_of([finished, sim.timeout(deadline, "deadline")])
        if index == 0:
            outcomes.append(("ok", value))
        else:
            outcomes.append(("timed_out", value))

    sim.process(supervise(2.0, 10.0))
    sim.process(supervise(50.0, 10.0))
    sim.run(until=60.0)
    assert ("ok", "finished") in outcomes
    assert ("timed_out", "deadline") in outcomes
