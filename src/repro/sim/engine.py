"""A deterministic discrete-event simulation engine.

The engine is intentionally small: generator-based processes scheduled on
a bucketed event calendar (:mod:`repro.sim.calendar`).  Processes are
plain Python generators that ``yield`` either a delay (``float``/``int``
seconds of virtual time) or an :class:`Event` to wait on.  Determinism
matters for the reproduction -- two runs with the same seed must produce
identical schedules -- so events dispatch in ``(when, seq)`` order: time
order with ties broken by schedule order, exactly the contract of the
original single-heapq loop (kept verbatim, for the equivalence suite and
the perf floors, in ``tests/oracles/engine.py``).

The calendar core exists for fleet scale: same-timestamp buckets are
drained in one batched pass instead of one heap pop per event, and the
dominant ``yield <float>`` resume is dispatched inline in :meth:`run`
with a reused entry tuple, so a step completion costs a dict lookup and
a list append rather than two ``O(log n)`` heap operations.

Three primitives support cancellation and races:

* :meth:`Simulator.call_at` / :meth:`Simulator.call_in` return a
  :class:`Timer` handle whose :meth:`Timer.cancel` defuses the callback
  (cancelled entries are dropped without advancing the clock, so stale
  watchdog deadlines do not stretch a run's end time).  The cluster's
  watchdog is one such timer per VCU step: it fires an event that only a
  wedged step waits on, and a step that ends healthy cancels it;
* :meth:`Process.interrupt` throws :class:`Interrupt` into a running
  process, terminating it unless the generator catches the exception; and
* :meth:`Simulator.any_of` builds a first-of-N event for a process that
  waits on whichever of several events fires first.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.sim.calendar import CalendarQueue


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries why the process was interrupted (e.g. a deadline
    that fired).  A process may catch it and keep running; if it
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

    __slots__ = ("sim", "name", "_generator", "_send", "done", "_epoch", "interrupted")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        # Pre-bound ``generator.send`` so the run loop skips two attribute
        # lookups per dispatch on the dominant resume path.
        self._send = generator.send
        self.done = Event(sim)
        # Bumped on interrupt *and* on termination, so a queued resume is
        # stale iff its captured epoch mismatches -- one int compare in
        # the run loop, no ``done.fired`` re-check needed.
        self._epoch = 0
        self.interrupted = False

    @property
    def is_alive(self) -> bool:
        return not self.done.fired

    def interrupt(self, cause: Any = None) -> bool:
        """Throw :class:`Interrupt` into the process at the current time.

        Returns False (a no-op) when the process already finished -- the
        natural race between a deadline and a completing process.  If the
        generator does not catch the exception the process terminates and
        ``done`` fires with the :class:`Interrupt` as its value.
        """
        if self.done.fired:
            return False
        self._epoch += 1
        self.interrupted = True
        self._advance(lambda: self._generator.throw(Interrupt(cause)))
        return True

    def _advance(self, step: Callable[[], Any]) -> None:
        # Span context for the observability layer: while the generator
        # runs, this process is the simulator's active process, so trace
        # spans emitted from inside it can name their causal process.
        previous = self.sim.active_process
        self.sim.active_process = self
        try:
            try:
                yielded = step()
            except StopIteration as stop:
                self._epoch += 1  # retire: any queued resume is now stale
                self.done.succeed(stop.value)
                return
            except Interrupt as interrupt:
                # The generator let the interrupt propagate: terminated.
                self._epoch += 1
                self.done.succeed(interrupt)
                return
            self._handle_yield(yielded)
        finally:
            self.sim.active_process = previous

    def _handle_yield(self, yielded: Any) -> None:
        """Schedule the process's next resume according to what it yielded.

        One ladder for every yield type: exact ``float``/``int`` take the
        first branch, and well-behaved numeric *subclasses* fold into the
        same delay path -- except ``bool``, which is an ``int`` subclass
        by accident of history, not a duration: ``yield True`` is always
        a bug (usually a mistyped ``yield event``), so it is rejected
        loudly instead of silently sleeping 1.0s.
        """
        cls = type(yielded)
        if cls is float or cls is int:
            delay = yielded
        elif isinstance(yielded, Event):
            yielded._add_waiter(self)
            return
        elif isinstance(yielded, Process):
            yielded.done._add_waiter(self)
            return
        elif cls is not bool and isinstance(yielded, (int, float)):
            delay = float(yielded)
        else:
            detail = (
                f"a bool ({yielded!r}), which is never a delay"
                if cls is bool
                else cls.__name__
            )
            raise TypeError(
                f"process {self.name!r} yielded {detail}; "
                "expected a delay, Event, or Process"
            )
        if delay < 0:
            raise ValueError(f"process {self.name!r} yielded negative delay {delay}")
        sim = self.sim
        sim._calendar.push(sim._now + delay, (self._epoch, self, None))


class Simulator:
    """The event loop: a virtual clock plus a deterministic event calendar."""

    def __init__(self):
        self._now = 0.0
        # Three entry shapes share the calendar, dispatched by length and
        # then by the first element's type in run():
        #   (epoch, process, value)  -- pre-bound process resumes
        #   (timer, callback)        -- Timer entries
        #   (event, value)           -- pre-bound timeout completions
        # Ordering lives entirely in the calendar (when + push order), so
        # entries carry no timestamps or sequence numbers of their own.
        self._calendar = CalendarQueue()
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
        self._calendar.push(self._now, (process._epoch, process, None))
        return process

    def call_at(self, when: float, callback: Callable[[], object]) -> Timer:
        """Schedule a plain callback at an absolute virtual time.

        The callback's return value is discarded, so any callable works
        (``object`` rather than ``None`` keeps value-returning lambdas
        like ``lambda: plane.submit(r)`` well-typed at call sites).
        """
        if when < self._now:
            raise ValueError(f"cannot schedule at {when} before now={self._now}")
        timer = Timer(when)
        self._calendar.push(when, (timer, callback))
        return timer

    def call_in(self, delay: float, callback: Callable[[], object]) -> Timer:
        return self.call_at(self._now + delay, callback)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires after ``delay`` seconds of virtual time.

        The dominant deadline pattern, so it gets a pre-bound calendar
        entry like process resumes do: no :class:`Timer`, no closure --
        the run loop calls ``event.succeed(value)`` directly.  (It cannot
        be cancelled, which is fine: nothing ever cancelled the closure
        variant either, and waiters race it with :meth:`any_of`.)
        """
        when = self._now + delay
        if when < self._now:
            raise ValueError(f"cannot schedule at {when} before now={self._now}")
        event = Event(self)
        self._calendar.push(when, (event, value))
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

        Ties are deterministic: of events fired at the same instant, the
        one fired first in dispatch order wins, and of events already
        fired when ``any_of`` is called, the lowest input index wins.
        Each input costs one racer process.
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
        """Run events until the calendar drains or the clock passes ``until``.

        Returns the final virtual time.  Dispatch is batched: the whole
        same-timestamp bucket is drained in one pass, in push order --
        exactly the ``(when, seq)`` order of the reference heapq loop.
        Entries scheduled *at the currently dispatching timestamp* land
        in a fresh bucket popped on the next loop iteration, i.e. after
        the already-queued ties, which again matches the heapq.

        Cancelled timers are discarded without advancing the clock; a
        resume whose process moved on (interrupted or finished) still
        advances the clock to its timestamp, exactly as before.

        The dominant ``yield <float>`` resume is inlined here: staleness
        is one epoch compare, the generator's pre-bound ``send`` is
        called directly, and when the process yields a plain delay its
        entry tuple is pushed back verbatim (the ``(epoch, process,
        None)`` triple is immutable across such hops), so the steady
        state allocates nothing per event.
        """
        cal = self._calendar
        buckets = cal.buckets
        times = cal.times
        horizon = cal.horizon
        while True:
            if not times:
                if not cal.overflow:
                    break
                cal.advance()
                horizon = cal.horizon
            when = times[0]
            if until is not None and when > until:
                self._now = until
                return until
            heappop(times)
            batch = buckets.pop(when)
            for entry in batch:
                if len(entry) == 3:
                    epoch = entry[0]
                    process = entry[1]
                    if process._epoch != epoch:
                        self._now = when
                        continue
                    self._now = when
                    self.active_process = process
                    try:
                        yielded = process._send(entry[2])
                    except StopIteration as stop:
                        self.active_process = None
                        process._epoch = epoch + 1
                        process.done.succeed(stop.value)
                        continue
                    except Interrupt as interrupt:
                        self.active_process = None
                        process._epoch = epoch + 1
                        process.done.succeed(interrupt)
                        continue
                    except BaseException:
                        # A model bug escaping the generator: clear the
                        # span context before propagating, as the old
                        # ``_advance`` finally-block did.
                        self.active_process = None
                        raise
                    self.active_process = None
                    cls = type(yielded)
                    if cls is float or cls is int:
                        if yielded < 0:
                            raise ValueError(
                                f"process {process.name!r} yielded "
                                f"negative delay {yielded}"
                            )
                        nxt = when + yielded
                        if entry[2] is not None:
                            entry = (epoch, process, None)
                        if nxt < horizon:
                            bucket = buckets.get(nxt)
                            if bucket is None:
                                buckets[nxt] = [entry]
                                heappush(times, nxt)
                            else:
                                bucket.append(entry)
                        else:
                            cal.push_far(nxt, entry)
                    else:
                        process._handle_yield(yielded)
                else:
                    first = entry[0]
                    if first.__class__ is Timer:
                        if first.cancelled:
                            continue
                        self._now = when
                        entry[1]()
                    else:
                        self._now = when
                        first.succeed(entry[1])
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
        """Queue a process resume as a pre-bound calendar entry.

        No Timer, no closure: the staleness check (epoch mismatch) happens
        at dispatch time in :meth:`run`.
        """
        wait_epoch = process._epoch if epoch is None else epoch
        self._calendar.push(self._now + delay, (wait_epoch, process, value))
