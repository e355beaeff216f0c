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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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


def _clean(value: Any) -> Any:
    """Coerce an attribute value into a deterministic JSON scalar."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_clean(v) for v in value)
    # numpy scalars and other numerics: fall back through float().
    try:
        return round(float(value), 9)
    except (TypeError, ValueError):
        return str(value)


@dataclass
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
            "t0": round(self.t0, 9),
            "t1": round(self.t1, 9),
            "attrs": {k: _clean(v) for k, v in sorted(self.attrs.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceSpan":
        return cls(
            seq=int(data["seq"]),
            kind=str(data["kind"]),
            name=str(data["name"]),
            t0=float(data["t0"]),
            t1=float(data["t1"]),
            attrs=dict(data.get("attrs", {})),
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
        return "".join(span.to_json() + "\n" for span in self._spans)

    def write_jsonl(self, path: str) -> int:
        """Dump the log to ``path``; returns the number of spans written."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
        return len(self._spans)

    @staticmethod
    def read_jsonl(path: str) -> List[TraceSpan]:
        """Load spans written by :meth:`write_jsonl`.

        A line that is not a span (not JSON, not an object, or missing a
        field) raises :class:`ValueError` naming the path and line number.
        """
        spans: List[TraceSpan] = []
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    spans.append(TraceSpan.from_dict(json.loads(line)))
                except KeyError as exc:
                    raise ValueError(
                        f"{path}:{number}: span has no {exc.args[0]!r} field"
                    ) from None
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"{path}:{number}: not a trace span ({exc})"
                    ) from None
        return spans
