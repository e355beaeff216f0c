"""Property-based tests (hypothesis) for the observability primitives.

The histogram and the time-weighted tracker back every exported metric,
so their algebra gets the property treatment: count conservation, a
monotone CDF, and averages bounded by the recorded extremes.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.registry import Histogram, MetricsRegistry, UtilizationTracker
from repro.obs.trace import TraceSpan, _clean

finite_values = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)

bounds_lists = st.lists(
    st.floats(min_value=0.001, max_value=1e6, allow_nan=False), min_size=1,
    max_size=8, unique=True,
).map(sorted)


# --------------------------------------------------------------------- #
# Histogram algebra


@given(bounds=bounds_lists, values=st.lists(finite_values, max_size=200))
def test_histogram_conserves_counts(bounds, values):
    hist = Histogram("h", bounds=bounds)
    for value in values:
        hist.observe(value)
    assert sum(hist.counts) == hist.total == len(values)
    assert len(hist.counts) == len(bounds) + 1


@given(bounds=bounds_lists, values=st.lists(finite_values, max_size=200))
def test_histogram_cdf_is_monotone_and_complete(bounds, values):
    hist = Histogram("h", bounds=bounds)
    for value in values:
        hist.observe(value)
    cumulative = hist.cumulative()
    assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))
    assert cumulative[-1] == len(values)
    # The CDF agrees with direct counting at every bound.
    for bound, running in zip(hist.bounds, cumulative):
        assert running == sum(1 for v in values if v <= bound)


# --------------------------------------------------------------------- #
# UtilizationTracker bounds


@given(
    samples=st.lists(
        st.tuples(
            st.floats(min_value=0.001, max_value=100.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_tracker_average_is_bounded_by_recorded_values(samples):
    """With the first sample at t=0 the average lies in [min, max]."""
    tracker = UtilizationTracker()
    now = 0.0
    values = []
    for delta, value in samples:
        tracker.record(now, value)
        values.append(value)
        now += delta
    low, high = min(values), max(values)
    average = tracker.average(now)
    assert low - 1e-9 <= average <= high + 1e-9


@given(
    value=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    span=st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
)
def test_tracker_constant_signal_averages_to_itself(value, span):
    tracker = UtilizationTracker()
    tracker.record(0.0, value)
    assert abs(tracker.average(span) - value) <= 1e-9 * max(1.0, value)


# --------------------------------------------------------------------- #
# Snapshot / serialization determinism


@given(
    names=st.lists(
        st.text(alphabet="abcdef.", min_size=1, max_size=12), min_size=1,
        max_size=10, unique=True,
    ),
    increments=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                        max_size=10),
)
def test_snapshot_is_order_independent(names, increments):
    ops = list(zip(names, increments))
    forward, backward = MetricsRegistry(), MetricsRegistry()
    for name, amount in ops:
        forward.counter(name).inc(amount)
    for name, amount in reversed(ops):
        backward.counter(name).inc(amount)
    assert forward.snapshot() == backward.snapshot()
    assert list(forward.snapshot()) == sorted(forward.snapshot())


@given(
    attrs=st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(
            st.booleans(), st.integers(-1000, 1000), finite_values,
            st.text(max_size=12),
            st.sets(st.integers(0, 50), max_size=5),
        ),
        max_size=6,
    ),
    t0=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
)
def test_span_serialization_is_stable_and_round_trips(attrs, t0):
    span = TraceSpan(seq=0, kind="step", name="s", t0=t0, t1=t0, attrs=attrs)
    once, twice = span.to_json(), span.to_json()
    assert once == twice
    import json

    again = TraceSpan.from_dict(json.loads(once))
    assert again.to_json() == once  # cleaning is idempotent


@given(values=st.lists(st.one_of(finite_values, st.sets(st.integers(0, 9)))))
def test_clean_output_is_json_safe(values):
    import json

    json.dumps(_clean(values))  # must not raise
