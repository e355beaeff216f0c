"""A deterministic discrete-event simulation engine.

The engine is intentionally small: generator-based processes scheduled on
one event calendar.  Processes are plain Python generators that
``yield`` either a delay (``float``/``int`` seconds of virtual time) or
an :class:`Event` to wait on.  Determinism matters for the reproduction
-- two runs with the same seed must produce identical schedules -- so
events dispatch in ``(when, seq)`` order: time order with ties broken by
schedule order, exactly the contract of the original single-heapq loop
(kept verbatim, for the equivalence suite and the perf floors, in
``tests/oracles/engine.py``).

The calendar exists for fleet scale, where thousands of events share a
timestamp: it is a dict of buckets keyed by the *exact* timestamp plus
one min-heap of the distinct timestamps present.  A push is a dict
lookup and a list append (one heap push when it opens a bucket), and
:meth:`Simulator.run` pops a whole same-timestamp bucket and dispatches
it in one pass.  Buckets need no sort and entries carry no sequence
number: push order within a bucket *is* the ``seq`` order, and the heap
yields buckets in strictly increasing time.  The dominant
``yield <float>`` resume is dispatched inline in :meth:`Simulator.run`
with a reused entry tuple, so a step completion costs a dict lookup and
a list append rather than two ``O(log n)`` heap operations.

Every scheduled time must be finite: a NaN or infinite time (or delay)
raises :class:`ValueError` where it is scheduled, since the calendar
cannot order it.

Two primitives support cancellation and races:

* :meth:`Simulator.call_at` / :meth:`Simulator.call_in` return a
  :class:`Timer` handle whose :meth:`Timer.cancel` defuses the callback
  (cancelled entries are dropped without advancing the clock, so stale
  watchdog deadlines do not stretch a run's end time).  The cluster's
  watchdog is one such timer per VCU step: it fires an event that only a
  wedged step waits on, and a step that ends healthy cancels it; and
* :meth:`Simulator.any_of` builds a first-of-N event for a process that
  waits on whichever of several events fires first.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional


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
        self._waiters: List["Process"] = []

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
        sim = self.sim
        for process in self._waiters:
            sim._push(sim._now, (process, value))
        self._waiters.clear()
        return self

    def _add_waiter(self, process: "Process") -> None:
        if self._fired:
            self.sim._push(self.sim._now, (process, self._value))
        else:
            self._waiters.append(process)


class Process:
    """A running generator-based simulation process.

    The underlying generator yields delays or events; the process ends
    when the generator returns.
    """

    __slots__ = ("sim", "name", "_send")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        # Pre-bound ``generator.send`` so the run loop skips two attribute
        # lookups per dispatch on the dominant resume path.
        self._send = generator.send

    def _handle_yield(self, yielded: Any) -> None:
        """Schedule the resume for a yield the run loop does not inline.

        :meth:`Simulator.run` resumes exact ``float``/``int`` delays
        itself, so what arrives here is an :class:`Event` to wait on or
        a numeric *subclass*, which folds into the same delay path --
        except ``bool``, which is an ``int`` subclass by accident of
        history, not a duration: ``yield True`` is always a bug (usually
        a mistyped ``yield event``), so it is rejected loudly instead of
        silently sleeping 1.0s.
        """
        if isinstance(yielded, Event):
            yielded._add_waiter(self)
            return
        cls = type(yielded)
        if cls is bool or not isinstance(yielded, (int, float)):
            detail = (
                f"a bool ({yielded!r}), which is never a delay"
                if cls is bool
                else cls.__name__
            )
            raise TypeError(
                f"process {self.name!r} yielded {detail}; "
                "expected a delay or Event"
            )
        delay = float(yielded)
        if delay < 0:
            raise ValueError(f"process {self.name!r} yielded negative delay {delay}")
        sim = self.sim
        when = sim._now + delay
        if not math.isfinite(when):
            raise ValueError(f"process {self.name!r} yielded non-finite delay {delay}")
        sim._push(when, (self, None))


class Simulator:
    """The event loop: a virtual clock plus a deterministic event calendar."""

    def __init__(self):
        self._now = 0.0
        # Two entry shapes share the calendar, told apart in run() by the
        # first element's class:
        #   (process, value)  -- pre-bound process resumes
        #   (timer, callback) -- Timer entries
        # Ordering lives entirely in the calendar (when + push order), so
        # entries carry no timestamps or sequence numbers of their own.
        # No bucket is ever keyed by a non-finite time: call_at and
        # _handle_yield reject one before pushing, an Event pushes at
        # now, and the run loop's inline resume checks when it opens a
        # bucket (a NaN never finds an existing one).
        self._buckets: Dict[float, List[tuple]] = {}
        self._times: List[float] = []
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

    def _push(self, when: float, entry: tuple) -> None:
        """Queue ``entry`` at ``when``, after every entry already there."""
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [entry]
            heappush(self._times, when)
        else:
            bucket.append(entry)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process; it first runs at the current virtual time."""
        process = Process(self, generator, name=name)
        self._push(self._now, (process, None))
        return process

    def call_at(self, when: float, callback: Callable[[], object]) -> Timer:
        """Schedule a plain callback at an absolute virtual time.

        The callback's return value is discarded, so any callable works
        (``object`` rather than ``None`` keeps value-returning lambdas
        like ``lambda: plane.submit(r)`` well-typed at call sites).
        """
        if when < self._now:
            raise ValueError(f"cannot schedule at {when} before now={self._now}")
        if not math.isfinite(when):
            raise ValueError(f"cannot schedule at non-finite time {when}")
        timer = Timer(when)
        self._push(when, (timer, callback))
        return timer

    def call_in(self, delay: float, callback: Callable[[], object]) -> Timer:
        return self.call_at(self._now + delay, callback)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires with ``value`` after ``delay`` seconds."""
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

    def close(self) -> None:
        """Drop every pending entry and the active process.

        A run cut by ``run(until=...)`` leaves work queued: processes
        whose generator frames hold the models they drive, and timers
        whose callbacks do, while those models hold this simulator.
        Closing breaks that cycle, so the finished run is freed by
        reference counting as soon as its owner lets go of it.  The
        dropped generators are closed as they are freed, which runs
        their ``finally`` blocks.  The clock keeps its value, and the
        simulator stays usable: anything scheduled afterwards runs on an
        empty calendar.
        """
        self._buckets = {}
        self._times = []
        self.active_process = None

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the calendar drains or the clock passes ``until``.

        ``until`` must be finite and not before :attr:`now`: the clock
        never moves backwards, so a past, NaN or infinite ``until``
        raises :class:`ValueError` before anything runs.

        Returns the final virtual time.  Dispatch is batched: the whole
        same-timestamp bucket is drained in one pass, in push order --
        exactly the ``(when, seq)`` order of the reference heapq loop.
        Entries scheduled *at the currently dispatching timestamp* land
        in a fresh bucket popped on the next loop iteration, i.e. after
        the already-queued ties, which again matches the heapq.
        Cancelled timers are discarded without advancing the clock.

        The dominant ``yield <float>`` resume is inlined here: the
        generator's pre-bound ``send`` is called directly, and when the
        process yields a plain delay its entry tuple is pushed back
        verbatim (the ``(process, None)`` pair is immutable across such
        hops), so the steady state allocates nothing per event.  A
        non-finite resume time never finds an existing bucket, so it is
        rejected only where a new bucket opens.
        """
        if until is not None and not self._now <= until < math.inf:
            raise ValueError(
                f"run(until={until}) must be finite and not before now={self._now}"
            )
        buckets = self._buckets
        times = self._times
        isfinite = math.isfinite
        while times:
            when = times[0]
            if until is not None and when > until:
                self._now = until
                return until
            heappop(times)
            batch = buckets.pop(when)
            for entry in batch:
                head = entry[0]
                if head.__class__ is Timer:
                    if head.cancelled:
                        continue
                    self._now = when
                    entry[1]()
                    continue
                process = head
                self._now = when
                self.active_process = process
                try:
                    yielded = process._send(entry[1])
                except StopIteration:
                    self.active_process = None
                    continue
                except BaseException:
                    # A model bug escaping the generator: clear the
                    # span context before propagating.
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
                    if entry[1] is not None:
                        entry = (process, None)
                    bucket = buckets.get(nxt)
                    if bucket is None:
                        if not isfinite(nxt):
                            raise ValueError(
                                f"process {process.name!r} yielded "
                                f"non-finite delay {yielded}"
                            )
                        buckets[nxt] = [entry]
                        heappush(times, nxt)
                    else:
                        bucket.append(entry)
                else:
                    process._handle_yield(yielded)
        if until is not None and until > self._now:
            self._now = until
        return self._now
