"""The frozen single-heapq engine, kept as the parity and perf baseline.

This is the event loop exactly as it shipped before the calendar-wheel
core replaced it: one ``heapq`` ordered by ``(when, seq)`` with per-event
tuple dispatch.  Two things depend on it staying bit-for-bit faithful:

* the equivalence suite (``tests/test_sim_calendar.py``) replays random
  schedules through both engines and asserts identical dispatch order,
  clocks, and results; and
* the perf floors (``benchmarks/perf``) measure the calendar engine's
  speedup *relative to this implementation* on the same interpreter and
  machine, which is robust where absolute events/s is not.

Do not optimize this module; its value is that it does not change.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries why the process was interrupted (e.g. the watchdog
    deadline that fired).  A process may catch it and keep running; if it
    propagates, the process terminates and its ``done`` event fires with
    the :class:`Interrupt` instance as its value so waiters can tell a
    cancellation from a normal return.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Timer:
    """A handle for one scheduled callback; ``cancel()`` defuses it."""

    __slots__ = ("when", "cancelled")

    def __init__(self, when: float):
        self.when = when
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Event:
    """A one-shot event that processes can wait on.

    An event starts *pending*; :meth:`succeed` fires it with an optional
    value and wakes every waiter.  Firing twice is an error -- that almost
    always indicates a logic bug in a model.
    """

    __slots__ = ("sim", "_value", "_fired", "_waiters")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._value: Any = None
        self._fired = False
        # (process, wait_epoch): the epoch lets an interrupted process
        # ignore a wake-up from an event it was no longer waiting on.
        self._waiters: List[Tuple["Process", int]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise RuntimeError("event value read before the event fired")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event, waking all waiting processes at the current time."""
        if self._fired:
            raise RuntimeError("event fired twice")
        self._fired = True
        self._value = value
        for process, epoch in self._waiters:
            self.sim._schedule_resume(process, self._value, epoch=epoch)
        self._waiters.clear()
        return self

    def _add_waiter(self, process: "Process") -> None:
        if self._fired:
            self.sim._schedule_resume(process, self._value)
        else:
            self._waiters.append((process, process._epoch))


class Process:
    """A running generator-based simulation process.

    The underlying generator yields delays or events.  When the generator
    returns, the process's completion event fires with the return value.
    """

    __slots__ = ("sim", "name", "_generator", "done", "_epoch", "interrupted")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self.done = Event(sim)
        # Bumped on interrupt so stale scheduled resumes are dropped.
        self._epoch = 0
        self.interrupted = False

    @property
    def is_alive(self) -> bool:
        return not self.done.fired

    def interrupt(self, cause: Any = None) -> bool:
        """Throw :class:`Interrupt` into the process at the current time.

        Returns False (a no-op) when the process already finished -- the
        natural race between a watchdog and a completing step.  If the
        generator does not catch the exception the process terminates and
        ``done`` fires with the :class:`Interrupt` as its value.
        """
        if self.done.fired:
            return False
        self._epoch += 1
        self.interrupted = True
        self._advance(lambda: self._generator.throw(Interrupt(cause)))
        return True

    def _resume(self, value: Any) -> None:
        self._advance(lambda: self._generator.send(value))

    def _advance(self, step: Callable[[], Any]) -> None:
        # Span context for the observability layer: while the generator
        # runs, this process is the simulator's active process, so trace
        # spans emitted from inside it can name their causal process.
        previous = self.sim.active_process
        self.sim.active_process = self
        try:
            self._advance_inner(step)
        finally:
            self.sim.active_process = previous

    def _advance_inner(self, step: Callable[[], Any]) -> None:
        try:
            yielded = step()
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        except Interrupt as interrupt:
            # The generator let the interrupt propagate: terminated.
            self.done.succeed(interrupt)
            return
        # Fast path first: ``yield <float>`` dominates the simulation's
        # event volume (every step duration), so it skips both isinstance
        # checks and the _schedule_resume indirection.
        cls = type(yielded)
        if cls is float or cls is int:
            if yielded < 0:
                raise ValueError(f"process {self.name!r} yielded negative delay {yielded}")
            sim = self.sim
            heapq.heappush(
                sim._queue,
                (sim._now + yielded, next(sim._sequence), self._epoch, self, None),
            )
        elif isinstance(yielded, Event):
            yielded._add_waiter(self)
        elif isinstance(yielded, Process):
            yielded.done._add_waiter(self)
        elif isinstance(yielded, (int, float)):  # int/float subclasses
            if yielded < 0:
                raise ValueError(f"process {self.name!r} yielded negative delay {yielded}")
            self.sim._schedule_resume(self, None, delay=float(yielded))
        else:
            raise TypeError(
                f"process {self.name!r} yielded {type(yielded).__name__}; "
                "expected a delay, Event, or Process"
            )


class Simulator:
    """The event loop: a virtual clock plus a deterministic event queue."""

    def __init__(self):
        self._now = 0.0
        # Two entry shapes share the heap, dispatched by length in run():
        #   (when, seq, timer, callback)        -- Timer entries
        #   (when, seq, epoch, process, value)  -- pre-bound process resumes
        # The (when, seq) prefix is unique (seq is monotonic), so heap
        # comparisons never reach the mixed third element.
        self._queue: List[tuple] = []
        self._sequence = itertools.count()
        #: The process whose generator is currently advancing, if any --
        #: the span context the observability layer stamps onto trace
        #: events emitted from inside simulation processes.
        self.active_process: Optional[Process] = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def active_process_name(self) -> Optional[str]:
        process = self.active_process
        return process.name if process is not None else None

    def event(self) -> Event:
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process; it first runs at the current virtual time."""
        process = Process(self, generator, name=name)
        self._schedule_resume(process, None)
        return process

    def call_at(self, when: float, callback: Callable[[], None]) -> Timer:
        """Schedule a plain callback at an absolute virtual time."""
        if when < self._now:
            raise ValueError(f"cannot schedule at {when} before now={self._now}")
        timer = Timer(when)
        heapq.heappush(self._queue, (when, next(self._sequence), timer, callback))
        return timer

    def call_in(self, delay: float, callback: Callable[[], None]) -> Timer:
        return self.call_at(self._now + delay, callback)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires after ``delay`` seconds of virtual time."""
        event = self.event()
        self.call_in(delay, lambda: event.succeed(value))
        return event

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that fires once every input event has fired."""
        events = list(events)
        combined = self.event()
        remaining = len(events)
        if remaining == 0:
            combined.succeed([])
            return combined
        results: List[Any] = [None] * remaining
        outstanding = [remaining]

        def _collector(index: int, source: Event) -> Generator:
            results[index] = yield source
            outstanding[0] -= 1
            if outstanding[0] == 0:
                combined.succeed(list(results))

        for index, source in enumerate(events):
            self.process(_collector(index, source), name=f"all_of[{index}]")
        return combined

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event firing with ``(index, value)`` of the first to fire.

        Ties are deterministic: the lowest input index wins.  This is the
        combinator that lets a step race a watchdog deadline.
        """
        events = list(events)
        if not events:
            raise ValueError("any_of needs at least one event")
        combined = self.event()

        def _racer(index: int, source: Event) -> Generator:
            value = yield source
            if not combined.fired:
                combined.succeed((index, value))

        for index, source in enumerate(events):
            self.process(_racer(index, source), name=f"any_of[{index}]")
        return combined

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or the clock passes ``until``.

        Returns the final virtual time.  Cancelled timers are discarded
        without advancing the clock; a resume whose process moved on
        (interrupted or finished) still advances the clock to its
        timestamp, exactly as the closure-based entries did.
        """
        queue = self._queue
        pop = heapq.heappop
        while queue:
            entry = queue[0]
            if len(entry) == 4 and entry[2].cancelled:
                pop(queue)
                continue
            when = entry[0]
            if until is not None and when > until:
                self._now = until
                return self._now
            pop(queue)
            self._now = when
            if len(entry) == 4:
                entry[3]()
            else:
                _, _, epoch, process, value = entry
                if process._epoch == epoch and not process.done.fired:
                    process._resume(value)
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def _schedule_resume(
        self,
        process: Process,
        value: Any,
        delay: float = 0.0,
        epoch: Optional[int] = None,
    ) -> None:
        """Queue a process resume as a pre-bound heap tuple.

        No Timer, no closure: the staleness check (epoch mismatch or an
        already-finished process) happens at dispatch time in :meth:`run`.
        """
        wait_epoch = process._epoch if epoch is None else epoch
        heapq.heappush(
            self._queue,
            (self._now + delay, next(self._sequence), wait_epoch, process, value),
        )
