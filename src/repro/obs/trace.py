"""Step-level trace events with virtual timestamps.

A :class:`TraceSpan` records one thing the fleet did -- a step execution,
a placement decision, a watchdog strike, a health transition -- stamped
with *virtual* (simulator) time, never wall-clock time, so two same-seed
runs produce byte-identical traces.  Spans live in a bounded in-memory
:class:`TraceLog`; when the cap is hit new spans are counted as dropped
rather than growing the log (the fleet must never OOM because someone
left tracing on).

Determinism rules every emitter must follow (the golden-trace regression
test enforces the sum of them):

* attribute values are JSON scalars or sorted lists -- never sets, never
  ``id()``-derived values, never wall-clock times;
* floats are rounded to 9 decimals at serialization, so accumulated
  float noise below that threshold cannot flip a byte;
* span ordering is the emission order of a deterministic simulator run,
  tie-broken by the monotone ``seq`` assigned at append time.

A span is written by one serializer, :func:`_line`, behind both
:meth:`TraceSpan.to_json` and :meth:`TraceLog.to_jsonl`.  It writes the
six keys in sorted order (``attrs``, ``kind``, ``name``, ``seq``, ``t0``,
``t1``) through one compact, key-sorted encoder built at import, and so
produces exactly the bytes of ``json.dumps(span.to_dict(),
sort_keys=True, separators=(",", ":"))`` without building that dict or a
new encoder per span.  A ``dict`` of attributes whose values are all
``str``, ``int``, ``bool`` or ``None`` is what :func:`_clean` would
return, so it goes to the encoder as it is; any other value sends the
whole mapping through :func:`_clean`.  :meth:`TraceLog.read_jsonl`
decodes each line with one prebuilt scanner and re-parses any line the
scanner cannot take whole with ``json.loads``, so a bad line fails with
``json.loads``'s own message.
"""

from __future__ import annotations

import json
from _json import make_encoder
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite, isinf
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["TraceSpan", "TraceLog"]

#: Canonical span kinds, for reference (emitters may add new ones, the
#: log does not restrict them):
#:
#: ========== ==========================================================
#: ``step``    one execution attempt of a task-graph step (t0..t1)
#: ``graph``   a completed step graph (submit..complete)
#: ``sched``   a scheduler placement decision
#: ``hang``    a watchdog deadline expiring over a wedged device
#: ``retry``   a step re-entering the queue with backoff
#: ``fallback`` a step diverted to software transcoding
#: ``health``  a worker health-state transition (from -> to)
#: ``domain``  fault-domain correlation events (fault / evict)
#: ``host``    host-level lifecycle (evict / repaired)
#: ``sweep``   one failure-sweeper telemetry pass
#: ``repair``  a technician repair (start..finish)
#: ``device``  raw device events (mark_hung, mark_corrupt, ...)
#: ``fw``      a firmware command-queue dispatch
#: ========== ==========================================================


def _round(value: Any) -> Any:
    """``round(value, 9)``: the one rounding of every written float.

    numpy rounds a ``float64`` as ``rint(value * 1e9) / 1e9``; above
    ~1.8e299 the scaling overflows, and the finite value would be written
    as ``Infinity`` (with a ``RuntimeWarning``).  Only there is the value
    rounded as a Python float, whose ``round`` does not overflow.  Every
    other value keeps ``round``'s own result, so no byte written before
    changes.
    """
    if (
        type(value) is not float
        and isinstance(value, float)
        and isinf(float(value) * 1e9)
        and isfinite(value)
    ):
        return round(float(value), 9)
    return round(value, 9)


def _clean(value: Any) -> Any:
    """Coerce an attribute value into a deterministic JSON scalar."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return _round(value)
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_clean(v) for v in value)
    # numpy scalars and other numerics: fall back through float().
    try:
        return round(float(value), 9)
    except (TypeError, ValueError):
        return str(value)


def _clean_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    return {k: _clean(v) for k, v in sorted(attrs.items())}


#: Attribute value types :func:`_clean` returns unchanged.
_PLAIN = frozenset((str, int, bool, type(None)))

#: The compact, key-sorted encoder ``json.dumps(value, sort_keys=True,
#: separators=(",", ":"))`` builds on every call, built once.  It skips
#: the circular-reference check: attributes reach it flat, or as the
#: fresh lists :func:`_clean` builds, so they hold no cycle.  (A span
#: field that is itself a cyclic container raises ``RecursionError``
#: here where ``json.dumps`` raises ``ValueError``.)
_encoder = make_encoder(
    None, json.JSONEncoder().default, _quote, None, ":", ",", True, False, True
)
#: The scanner ``json.loads`` runs, built once for every line read.
_scan = json.JSONDecoder().scan_once  # type: ignore[attr-defined]


def _encode(value: Any) -> str:
    return "".join(_encoder(value, 0))


def _time(value: Any) -> str:
    value = _round(value)
    if type(value) is float and isfinite(value):
        return float.__repr__(value)
    return _encode(value)


def _line(span: "TraceSpan") -> str:
    """``span`` as one JSON object, byte for byte what ``json.dumps``
    writes for :meth:`TraceSpan.to_dict` with sorted keys and compact
    separators."""
    attrs = span.attrs
    if type(attrs) is not dict or not _PLAIN.issuperset(map(type, attrs.values())):
        attrs = _clean_attrs(attrs)
    kind, name, seq, t0, t1 = span.kind, span.name, span.seq, span.t0, span.t1
    start = _time(t0)
    return "".join((
        '{"attrs":', _encode(attrs),
        ',"kind":', _quote(kind) if type(kind) is str else _encode(kind),
        ',"name":', _quote(name) if type(name) is str else _encode(name),
        ',"seq":', int.__repr__(seq) if type(seq) is int else _encode(seq),
        ',"t0":', start,
        # A point span from TraceLog.append holds one time object twice.
        ',"t1":', start if t1 is t0 else _time(t1),
        "}",
    ))


@dataclass(slots=True)
class TraceSpan:
    """One traced event: a point (``t0 == t1``) or an interval."""

    seq: int
    kind: str
    name: str
    t0: float
    t1: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "name": self.name,
            "t0": _round(self.t0),
            "t1": _round(self.t1),
            "attrs": _clean_attrs(self.attrs),
        }

    def to_json(self) -> str:
        return _line(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceSpan":
        return cls(
            int(data["seq"]),
            str(data["kind"]),
            str(data["name"]),
            float(data["t0"]),
            float(data["t1"]),
            dict(data.get("attrs", {})),
        )


class TraceLog:
    """A bounded, append-only event log."""

    def __init__(self, max_events: int = 200_000) -> None:
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.max_events = max_events
        self._spans: List[TraceSpan] = []
        self.dropped = 0
        self._seq = 0

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[TraceSpan]:
        return iter(self._spans)

    @property
    def spans(self) -> List[TraceSpan]:
        return list(self._spans)

    def append(
        self,
        kind: str,
        name: str,
        t0: float,
        t1: Optional[float] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Optional[TraceSpan]:
        """Append one span; returns ``None`` when the cap dropped it."""
        seq = self._seq
        self._seq += 1
        if len(self._spans) >= self.max_events:
            self.dropped += 1
            return None
        span = TraceSpan(
            seq=seq, kind=kind, name=name,
            t0=t0, t1=t0 if t1 is None else t1,
            attrs=attrs or {},
        )
        self._spans.append(span)
        return span

    def to_jsonl(self) -> str:
        """The whole log as JSON Lines (one span per line, sorted keys)."""
        return "".join([_line(span) + "\n" for span in self._spans])

    def write_jsonl(self, path: str) -> int:
        """Dump the log to ``path``; returns the number of spans written."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
        return len(self._spans)

    @staticmethod
    def read_jsonl(path: str) -> List[TraceSpan]:
        """Load spans written by :meth:`write_jsonl`.

        A line that is not a span (not JSON, not an object, missing a
        field, or a field that does not convert, such as an infinite
        ``seq``) raises :class:`ValueError` naming the path and line
        number.
        """
        spans: List[TraceSpan] = []
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    try:
                        data, end = _scan(line, 0)
                    except (StopIteration, ValueError):
                        end = -1
                    if end != len(line):
                        # Not one whole JSON value: json.loads raises
                        # its own message for the line.
                        data = json.loads(line)
                    spans.append(TraceSpan.from_dict(data))
                except KeyError as exc:
                    raise ValueError(
                        f"{path}:{number}: span has no {exc.args[0]!r} field"
                    ) from None
                except (OverflowError, TypeError, ValueError) as exc:
                    raise ValueError(
                        f"{path}:{number}: not a trace span ({exc})"
                    ) from None
        return spans
