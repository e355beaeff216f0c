"""Unit tests for trace spans, the bounded log, and the hub itself."""

import json

import pytest

from repro import obs
from repro.obs.trace import TraceLog, TraceSpan, _clean


class TestClean:
    def test_scalars_pass_through(self):
        assert _clean(True) is True
        assert _clean(None) is None
        assert _clean(7) == 7
        assert _clean("name") == "name"

    def test_floats_round_to_nine_decimals(self):
        assert _clean(0.1 + 0.2) == 0.3
        assert _clean(1.0000000001) == 1.0

    def test_sets_become_sorted_lists(self):
        assert _clean({"b", "a", "c"}) == ["a", "b", "c"]
        assert _clean(frozenset((3, 1, 2))) == [1, 2, 3]

    def test_sequences_recurse(self):
        assert _clean((1, {"b", "a"}, 0.1 + 0.2)) == [1, ["a", "b"], 0.3]

    def test_unknown_objects_fall_back_to_str(self):
        class Opaque:
            def __str__(self):
                return "opaque"

        assert _clean(Opaque()) == "opaque"


class TestTraceSpan:
    def test_json_is_compact_and_key_sorted(self):
        span = TraceSpan(seq=1, kind="step", name="s", t0=1.0, t1=2.5,
                         attrs={"z": 1, "a": {"x", "y"}})
        text = span.to_json()
        assert text == ('{"attrs":{"a":["x","y"],"z":1},"kind":"step",'
                        '"name":"s","seq":1,"t0":1.0,"t1":2.5}')

    def test_round_trip_through_dict(self):
        span = TraceSpan(seq=3, kind="retry", name="r", t0=1.0, t1=1.0,
                         attrs={"attempt": 2})
        again = TraceSpan.from_dict(json.loads(span.to_json()))
        assert again == span
        assert again.duration == 0.0


class TestTraceLog:
    def test_append_assigns_monotone_seq(self):
        log = TraceLog()
        spans = [log.append("step", f"s{i}", float(i)) for i in range(3)]
        assert [s.seq for s in spans] == [0, 1, 2]
        assert len(log) == 3
        assert log.spans == list(log)

    def test_point_spans_default_t1_to_t0(self):
        span = TraceLog().append("hang", "h", 5.0)
        assert span.t1 == 5.0

    def test_cap_drops_new_spans_but_keeps_counting(self):
        log = TraceLog(max_events=2)
        assert log.append("a", "1", 0.0) is not None
        assert log.append("a", "2", 1.0) is not None
        assert log.append("a", "3", 2.0) is None
        assert log.append("a", "4", 3.0) is None
        assert len(log) == 2
        assert log.dropped == 2
        # seq keeps advancing under the cap so post-hoc analysis can see
        # exactly where the gap is.
        assert log.append("a", "5", 4.0) is None
        assert log._seq == 5

    def test_rejects_zero_cap(self):
        with pytest.raises(ValueError):
            TraceLog(max_events=0)

    def test_jsonl_round_trip(self, tmp_path):
        log = TraceLog()
        log.append("step", "s", 1.0, 2.0, {"worker": "w0"})
        log.append("hang", "h", 3.0)
        path = str(tmp_path / "trace.jsonl")
        assert log.write_jsonl(path) == 2
        spans = TraceLog.read_jsonl(path)
        assert [s.to_json() for s in spans] == [s.to_json() for s in log]

    @pytest.mark.parametrize("fields, read_back", [
        ('"seq": 1, "t0": 0.0, "t1": 1.0, "attrs": [["a", 1]]',
         "t0=0.0, t1=1.0, attrs={'a': 1}"),
        ('"seq": 1.7, "t0": 0.0, "t1": 1.0', "t0=0.0, t1=1.0, attrs={}"),
        ('"seq": 1, "t0": "3", "t1": 1.0', "t0=3.0, t1=1.0, attrs={}"),
        ('"seq": 1, "t0": NaN, "t1": Infinity', "t0=nan, t1=inf, attrs={}"),
        ('"seq": 1, "t0": -Infinity, "t1": 1.0', "t0=-inf, t1=1.0, attrs={}"),
    ], ids=["attrs-pairs", "float-seq", "string-time", "nan-inf", "minus-inf"])
    def test_reader_keeps_from_dict_conversions(self, fields, read_back, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"kind": "step", "name": "s", ' + fields + "}\n", encoding="utf-8"
        )
        [span] = TraceLog.read_jsonl(str(path))
        assert repr(span) == (
            f"TraceSpan(seq=1, kind='step', name='s', {read_back})"
        )


class TestHub:
    def test_install_uninstall_lifecycle(self):
        assert obs.active() is None
        hub = obs.install()
        try:
            assert obs.active() is hub
            with pytest.raises(RuntimeError):
                obs.install()
        finally:
            assert obs.uninstall() is hub
        assert obs.active() is None
        assert obs.uninstall() is None

    def test_installed_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with obs.installed():
                assert obs.active() is not None
                raise RuntimeError("boom")
        assert obs.active() is None

    def test_emit_defaults_to_bound_clock_and_context(self):
        hub = obs.Observability()
        assert hub.now() == 0.0  # unbound clock
        hub.bind_clock(lambda: 42.0, lambda: "proc:demo")
        span = hub.emit("step", "s")
        assert span.t0 == 42.0 and span.t1 == 42.0
        assert span.attrs["proc"] == "proc:demo"

    def test_emit_does_not_override_explicit_values(self):
        hub = obs.Observability()
        hub.bind_clock(lambda: 42.0, lambda: "proc:demo")
        span = hub.emit("step", "s", t0=1.0, t1=2.0, attrs={"proc": "mine"})
        assert (span.t0, span.t1, span.attrs["proc"]) == (1.0, 2.0, "mine")

    def test_emit_without_context_provider_adds_no_proc(self):
        hub = obs.Observability()
        hub.bind_clock(lambda: 1.0, lambda: None)
        assert "proc" not in hub.emit("step", "s").attrs

    def test_count_and_observe_shortcuts(self):
        hub = obs.Observability()
        hub.count("events")
        hub.count("events", 2.0)
        hub.observe("lat", 0.7, bounds=(1.0,))
        snap = hub.metrics.snapshot()
        assert snap["events"] == 3.0
        assert snap["lat.count"] == 1.0

    def test_trace_cap_flows_through_the_hub(self):
        hub = obs.Observability(max_trace_events=1)
        hub.emit("a", "1", t0=0.0)
        hub.emit("a", "2", t0=1.0)
        assert len(hub.trace) == 1
        assert hub.trace.dropped == 1
