"""The unified metrics registry: counters, gauges, histograms.

Every instrument is pure Python (no numpy) so the registry can be
imported by the CLI's ``report`` path without dragging in the numeric
stack.  Three instrument families cover the fleet's needs:

* :class:`Counter` -- monotone event counts (retries, hangs, fallbacks).
* :class:`Gauge` -- last-value-wins samples (healthy workers right now).
* :class:`Histogram` -- fixed-bucket distributions (step seconds, backoff
  delays).  Buckets are upper bounds with an implicit +inf overflow
  bucket.
* :class:`TimeWeightedGauge` -- a named :class:`UtilizationTracker`, a
  gauge integrated over *virtual* time (the cluster's utilization series
  are two of them).

A :class:`MetricsRegistry` is a flat namespace of instruments keyed by
dotted name.  :meth:`MetricsRegistry.attach` includes a record the
registry does not own -- another registry, or anything with
``snapshot(now)`` -- so a component counts each event once, in its own
record, and the hub reads it there.  ``snapshot()`` renders everything
into one flat sorted dict: the exchange format CI archives from the
failure drill (``BENCH_PR10-drill.json``) and the golden
``tests/golden/obs_drill_metrics.json`` pins.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type, TypeVar

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TimeWeightedGauge",
    "UtilizationTracker",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
]

#: Default duration buckets (seconds): sub-second dispatch latencies up to
#: multi-minute repair windows, with an implicit +inf overflow bucket.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0,
)

#: Instrument type variable for the registry's get-or-create accessors.
_I = TypeVar("_I", bound=object)


class UtilizationTracker:
    """Integrates a usage fraction over virtual time.

    Call :meth:`record` whenever usage changes; :meth:`average` returns
    the time-weighted mean over the observed span.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._last_time = start_time
        self._last_value = 0.0
        self._area = 0.0
        self._start = start_time

    def record(self, now: float, value: float) -> None:
        if now < self._last_time:
            raise ValueError("time moved backwards")
        self._area += self._last_value * (now - self._last_time)
        self._last_time = now
        self._last_value = value

    def average(self, now: Optional[float] = None) -> float:
        end = self._last_time if now is None else now
        if end < self._last_time:
            raise ValueError("time moved backwards")
        area = self._area + self._last_value * (end - self._last_time)
        span = end - self._start
        return area / span if span > 0 else 0.0

    @property
    def current(self) -> float:
        return self._last_value

    @property
    def last_time(self) -> float:
        """Virtual time of the latest record (the start before any)."""
        return self._last_time


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self, now: Optional[float] = None) -> Dict[str, float]:
        """``{name: value}``; empty while the count is zero."""
        return {self.name: round(float(self.value), 9)} if self.value else {}


class Gauge:
    """A last-value-wins sample."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self, now: Optional[float] = None) -> Dict[str, float]:
        return {self.name: round(self.value, 9)}


class Histogram:
    """A fixed-bucket histogram: upper bounds plus an implicit +inf bucket.

    ``counts[i]`` is the number of observations with
    ``value <= bounds[i]`` (and greater than the previous bound);
    ``counts[-1]`` is the overflow.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_SECONDS_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile (0 < q <= 1).

        Returns the smallest bucket bound whose cumulative count covers
        ``q`` of the observations.  Observations in the overflow bucket
        report the largest finite bound (the histogram cannot resolve
        beyond it); an empty histogram reports 0.0.  Bucket-resolution
        quantiles are coarse but deterministic -- exactly what the SLO
        scorecards need.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile requires 0 < q <= 1")
        if self.total == 0:
            return 0.0
        target = q * self.total
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            if running >= target:
                return bound
        return self.bounds[-1]

    def cumulative(self) -> List[int]:
        """Cumulative counts per bucket (a monotone CDF in counts)."""
        out: List[int] = []
        running = 0
        for count in self.counts:
            running += count
            out.append(running)
        return out

    def snapshot(self, now: Optional[float] = None) -> Dict[str, float]:
        """``name.count``, ``name.sum`` and one cumulative ``name.le.<bound>``
        entry per bucket; empty before the first observation."""
        if not self.total:
            return {}
        flat = {f"{self.name}.count": float(self.total),
                f"{self.name}.sum": round(self.sum, 9)}
        cumulative = self.cumulative()
        for bound, running in zip(self.bounds, cumulative):
            flat[f"{self.name}.le.{bound:g}"] = float(running)
        flat[f"{self.name}.le.inf"] = float(cumulative[-1])
        return flat


class TimeWeightedGauge(UtilizationTracker):
    """A named tracker: a gauge whose average is weighted by virtual
    time between sets."""

    def __init__(self, name: str, start_time: float = 0.0) -> None:
        super().__init__(start_time)
        self.name = name

    def set(self, now: float, value: float) -> None:
        self.record(now, float(value))

    def snapshot(self, now: Optional[float] = None) -> Dict[str, float]:
        """``name.avg`` (up to ``now`` when given) and ``name.current``."""
        return {f"{self.name}.avg": round(self.average(now), 9),
                f"{self.name}.current": round(self.current, 9)}


class MetricsRegistry:
    """A flat, typed namespace of instruments, keyed by dotted name.

    ``counter``/``gauge``/``histogram``/``time_gauge`` get-or-create; a
    name registered as one instrument type cannot be re-registered as
    another (that is always a wiring bug, so it raises).  The accessors
    also find the instruments of an attached registry, so a name has one
    instrument wherever it is looked up.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        self._sources: List[Any] = []

    def attach(self, source: Any) -> None:
        """Include ``source``'s entries in every :meth:`snapshot`.

        ``source`` is a :class:`MetricsRegistry` or anything with a
        ``snapshot(now)`` returning a flat dict of floats, in which an
        entry that has recorded nothing is absent.  The source stays its
        owner's record; the registry reads it at snapshot time.
        """
        self._sources.append(source)

    def _attached(self, name: str) -> Optional[object]:
        """The instrument ``name`` of an attached registry, if any."""
        for source in self._sources:
            if isinstance(source, MetricsRegistry):
                instrument = source._instruments.get(name)
                if instrument is None:
                    instrument = source._attached(name)
                if instrument is not None:
                    return instrument
        return None

    def _get_or_create(self, name: str, kind: Type[_I], *args: Any) -> _I:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._attached(name)
            if instrument is None:
                created = kind(name, *args)
                self._instruments[name] = created
                return created
        if not isinstance(instrument, kind):
            raise ValueError(
                f"{name!r} is already a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_SECONDS_BUCKETS
    ) -> Histogram:
        return self._get_or_create(name, Histogram, bounds)

    def time_gauge(self, name: str, start_time: float = 0.0) -> TimeWeightedGauge:
        return self._get_or_create(name, TimeWeightedGauge, start_time)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments or self._attached(name) is not None

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def snapshot(self, now: Optional[float] = None) -> Dict[str, float]:
        """Every instrument and attached entry in one deterministic dict.

        Each instrument flattens itself (its ``snapshot``): counters and
        gauges under their own name, histograms as ``name.count``,
        ``name.sum`` and cumulative ``name.le.<bound>`` entries,
        time-weighted gauges as ``name.avg`` (up to ``now`` when given)
        and ``name.current``.  A counter at zero and a histogram without
        observations have recorded nothing and are absent.  Attached
        sources add their own entries; a key written twice -- by two
        sources, or by a source and this registry -- raises
        :class:`ValueError`.  Keys come out sorted so two same-seed runs
        serialize byte-identically.
        """
        flat: Dict[str, float] = {}
        for source in [*self._instruments.values(), *self._sources]:
            for key, value in source.snapshot(now).items():
                if key in flat:
                    raise ValueError(f"metric {key!r} is recorded twice")
                flat[key] = value
        return dict(sorted(flat.items()))
