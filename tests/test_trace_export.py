"""The trace writer and reader against ``json.dumps``/``json.loads``.

``TraceSpan.to_json`` and ``TraceLog.to_jsonl`` write a span without
building :meth:`TraceSpan.to_dict` or a new encoder; the bytes must still
be exactly those of the serializer they replaced, kept here as the
oracle: ``json.dumps(span.to_dict(), sort_keys=True, separators=(",",
":"))``.  The spans drawn here cover every branch of the writer: values
it hands to the encoder as they are, values it cleans first, times it
writes with ``float.__repr__`` and times it leaves to the encoder, and
values the oracle refuses (the writer must refuse them the same way).
"""

from __future__ import annotations

import enum
import json
import math
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.obs.trace import TraceLog, TraceSpan


def oracle(span: TraceSpan) -> str:
    return json.dumps(span.to_dict(), sort_keys=True, separators=(",", ":"))


def outcome(write, span):
    """What ``write(span)`` returns, or the error it raises."""
    try:
        return write(span)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    """A ``str`` subclass, as an emitter's own string type would be."""


SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
    1e300, -1e300, 0.1 + 0.2, 1.0000000001, 123456.0000000005,
]

text = st.text(st.characters(exclude_categories=()), max_size=10) | st.sampled_from(
    ["", "\x00", "\x1f\x7f", "\\\"", " ", "\ud800", "\U0001f600", "été"]
)
floats = st.floats() | st.floats(-1e6, 1e6) | st.sampled_from(SPECIAL_FLOATS)
numpy_scalars = st.one_of(
    floats.map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
    text.map(np.str_),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-2**200, 2**200),
    floats,
    text,
    text.map(Label),
    st.sampled_from(list(Level)),
    numpy_scalars,
)
values = st.recursive(
    scalars | st.sets(st.integers()) | st.frozensets(text),
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner),
    max_leaves=8,
)
plain_attrs = st.dictionaries(
    text, st.one_of(st.none(), st.booleans(), st.integers(), text), max_size=6
)
attrs = st.one_of(
    st.dictionaries(text, values, max_size=6),
    # The shape emitters make: plain values and, now and then, one other.
    st.builds(lambda plain, key, value: {**plain, key: value}, plain_attrs, text, values),
    plain_attrs,
    plain_attrs.map(MappingProxyType),  # a mapping that is not a dict
)
times = st.one_of(
    floats,
    st.integers(-2**70, 2**70),
    floats.map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
)


@st.composite
def spans(draw, times=times, names=text | text.map(Label)):
    t0 = draw(times)
    # The same object twice is a point span, as TraceLog.append makes one.
    t1 = draw(st.just(t0) | times)
    return TraceSpan(
        seq=draw(st.integers(0, 2**64) | st.booleans() | st.sampled_from(list(Level))),
        kind=draw(names),
        name=draw(names),
        t0=t0,
        t1=t1,
        attrs=draw(attrs),
    )


@given(span=spans())
@example(span=TraceSpan(7, "step", "s", 1.0, 2.5, {"worker": "w0", "delay": 0.1 + 0.2}))
@example(span=TraceSpan(True, "step", "s", 0.0, -0.0, {"ok": True}))
@example(span=TraceSpan(Level.HIGH, Label("ké"), "\U0001f600\x00", math.nan, math.inf,
                        MappingProxyType({"a": 1})))
@example(span=TraceSpan(1, "step", "s", 3, np.float64(0.1) + 0.2, {"n": np.int64(4)}))
@example(span=TraceSpan(1, "step", "s", np.int64(3), 4.0, {}))
# numpy's own round of a float64 this large overflows to inf.
@example(span=TraceSpan(0, "k", "n", np.float64(1e300), 1e300,
                        {"a": np.float64(1e300), "b": 1e300}))
def test_to_json_is_the_oracle(span):
    line = outcome(TraceSpan.to_json, span)
    assert line == outcome(oracle, span)
    if isinstance(line, str):
        # A finite time or float attribute is written finite.
        written = json.loads(line)
        for key in ("t0", "t1"):
            assert math.isfinite(written[key]) == math.isfinite(getattr(span, key))
        for key, value in span.attrs.items():
            if isinstance(value, float):
                assert math.isfinite(written["attrs"][key]) == math.isfinite(value)


@given(drawn=st.lists(spans(), max_size=8))
def test_every_jsonl_line_is_the_oracle(drawn):
    log = TraceLog()
    for span in drawn:
        log.append(span.kind, span.name, span.t0, span.t1, span.attrs)

    def oracle_jsonl(log):
        return "".join(oracle(span) + "\n" for span in log)

    assert outcome(TraceLog.to_jsonl, log) == outcome(oracle_jsonl, log)


@pytest.fixture(scope="module")
def round_trip_path(tmp_path_factory):
    """One file every round-trip example overwrites: a directory per
    example made the test slow enough to miss Hypothesis's deadline."""
    return str(tmp_path_factory.mktemp("round_trip") / "trace.jsonl")


@given(drawn=st.lists(spans(times=floats | floats.map(np.float64)), max_size=8))
def test_write_read_round_trip(round_trip_path, drawn):
    """Spans read back write the same line again: the reader keeps every
    value the writer put in the line."""
    log = TraceLog()
    for span in drawn:
        log.append(span.kind, span.name, span.t0, span.t1, span.attrs)
    assert log.write_jsonl(round_trip_path) == len(drawn)
    read = TraceLog.read_jsonl(round_trip_path)
    assert [span.to_json() for span in read] == [span.to_json() for span in log]


def test_good_path_makes_no_json_call(monkeypatch, tmp_path):
    """Writing and reading well-formed spans calls neither ``json.dumps``
    nor ``json.loads``: both are built once, not per span."""
    log = TraceLog()
    log.append("step", "s", 1.0, 2.5, {"worker": "w0", "attempt": 1, "ok": True})
    log.append("sched", "bin_packing", 3.0, None, {"worker": None})
    log.append("retry", "r", 4.0, 4.25, {"delay": 0.25, "ids": {3, 1}})

    def forbidden(*args, **kwargs):
        raise AssertionError("a per-span JSON call")

    monkeypatch.setattr(json, "dumps", forbidden)
    monkeypatch.setattr(json, "loads", forbidden)
    path = str(tmp_path / "trace.jsonl")
    log.write_jsonl(path)
    assert [s.to_json() for s in TraceLog.read_jsonl(path)] == [
        s.to_json() for s in log
    ]


def test_span_has_slots_and_no_instance_dict():
    span = TraceSpan(0, "step", "s", 0.0, 0.0)
    assert not hasattr(span, "__dict__")
    with pytest.raises(AttributeError):
        span.extra = 1  # type: ignore[attr-defined]
