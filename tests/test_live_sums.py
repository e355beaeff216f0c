"""The pairwise sums behind every recorded fleet utilization.

:class:`~repro.cluster.telemetry.LiveSums` claims that its two sums
equal ``float(np.add.reduce(column[mask]))`` bit for bit after any mix
of row writes and mask flips.  These tests hold it to numpy itself, not
to a model of numpy, so a numpy release whose ``np.add.reduce`` no
longer associates a float64 sum the way the tree does fails here loudly.

Column values span eight decades, so a tree that associates the sum any
other way (another split point, a sequential fold, a leaf seeded with
its first element) rounds differently and fails.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.telemetry import LEAF_ROWS, LiveSums


def _values(rng, n):
    return rng.random(n) * 10.0 ** rng.integers(-4, 5, n)


def _assert_exact(live):
    first, second = live.columns
    mask = live.mask
    assert live.sums() == (
        float(np.add.reduce(first[mask])),
        float(np.add.reduce(second[mask])),
    )
    assert live.count == int(mask.sum())
    # Every leaf holds numpy's own 1-D reduction of its live rows.
    for lo, hi, node in live._leaves:
        assert hi - lo <= LEAF_ROWS
        for column, sums in zip(live._live, live._sums):
            assert sums[node] == float(np.add.reduce(column[lo:hi]))


#: One action: write a row (kind 0) or flip a row's mask bit (kind 1).
ACTION = st.tuples(
    st.integers(0, 1),
    st.integers(0, 2**31 - 1),
    st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False),
)


@settings(deadline=None, max_examples=80)
@given(
    n=st.integers(1, 10_000),
    seed=st.integers(0, 2**32 - 1),
    live_share=st.sampled_from([1.0, 0.97, 0.5, 0.03]),
    steps=st.lists(st.lists(ACTION, min_size=1, max_size=4), max_size=25),
)
def test_sums_equal_numpy_through_writes_and_flips(n, seed, live_share, steps):
    """Random lengths (up to 16 leaves, five levels of sums), point
    writes and mask flips; the sums are checked after each step, and a
    step may write rows between a flip and the rebuild that follows it."""
    rng = np.random.default_rng(seed)
    mask = rng.random(n) < live_share
    live = LiveSums(_values(rng, n), _values(rng, n), mask)
    _assert_exact(live)
    for step in steps:
        for kind, row, value in step:
            row %= n
            if kind == 0:
                live.set(row, value, value * 1e-3 + 1.0)
            else:
                mask[row] = not mask[row]
                live.mark_stale()
        _assert_exact(live)


@pytest.mark.parametrize("n", [
    0, 1, 7, 8, 9, 127, 128, 129, 1023, 1024, 1025, 1031, 1032, 1033,
    2047, 2048, 2049, 2063, 2064, 2065, 4099, 20_000,
])
def test_leaf_boundaries(n):
    """Lengths at and around numpy's block, the leaf size and their
    multiples, up to a 20k-VCU fleet; every row is written once, first
    all live and then with a seventh of the rows dead."""
    rng = np.random.default_rng(n)
    mask = np.ones(n, dtype=bool)
    live = LiveSums(_values(rng, n), _values(rng, n), mask)
    _assert_exact(live)
    for row, (first, second) in enumerate(zip(_values(rng, n), _values(rng, n))):
        live.set(row, first, second)
    _assert_exact(live)
    mask[::7] = False
    live.mark_stale()
    for row in range(0, n, 3):
        live.set(row, 0.5, 2.0)
    _assert_exact(live)
