"""Figure 9: post-launch accelerator workload scaling.

* 9a -- primary upload chunked workload: 50% on VCU at launch reaching
  100% in month 7; normalized total throughput grows ~10x over a year.
* 9b -- live transcoding on VCU ramps steadily (several-fold growth).
* 9c -- opportunistic software decoding (enabled after month 6) drops
  average hardware decoder utilization from ~98% to ~91%, relieving
  encoder-core stranding.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import run_experiment
from repro.cluster.timeline import default_timeline, live_adoption_curve
from repro.control.catalog import FIG9_MONTHS as MONTHS
from repro.metrics import format_table


@pytest.fixture(scope="module")
def timeline_results():
    """Ordered per-month scorecards for months 1..MONTHS from the
    registered tuning timeline (seed/horizon/fleet parameters live in
    its grid)."""
    results = run_experiment("tuning-timeline").results
    return [r["scorecard"] for r in results if r["month"] <= MONTHS]


def test_fig9a_upload_scaling(timeline_results, once):
    results = once(lambda: timeline_results)
    base = results[0]["throughput_mpix_s"]
    norms = [r["throughput_mpix_s"] / base for r in results]
    configs = default_timeline(MONTHS)
    print()
    rows = [
        [r["month"], round(n, 2), f"{c.fraction_on_vcu:.0%}", r["vcu_workers"]]
        for r, n, c in zip(results, norms, configs)
    ]
    print(format_table(
        ["Month", "Normalized throughput", "Share on VCU", "VCU workers"],
        rows, title="Figure 9a: chunked upload workload scaling (paper: ~10x by month 12)",
    ))
    # Shape: strong monotone-ish growth, several-fold by month 12.
    assert norms[-1] > 4.0
    assert norms[6] > norms[0]  # month 7 (full migration) above launch
    # Mostly monotone: each quarter-end exceeds the previous one.
    assert norms[2] < norms[5] < norms[8] < norms[11]


def test_fig9b_live_scaling(once):
    curve = once(lambda: live_adoption_curve(MONTHS))
    print()
    print(format_table(
        ["Month", "Normalized live throughput"],
        [[m + 1, round(v, 2)] for m, v in enumerate(curve)],
        title="Figure 9b: live transcoding on VCU",
    ))
    assert curve[0] == pytest.approx(1.0)
    assert all(b >= a for a, b in zip(curve, curve[1:]))
    assert curve[-1] > 3.0  # several-fold ramp


def test_fig9c_opportunistic_software_decode(timeline_results, once):
    results = once(lambda: timeline_results)
    before = [r["decoder_util"] for r in results if 3 <= r["month"] <= 6]
    after = [r["decoder_util"] for r in results if r["month"] > 6]
    print()
    print(format_table(
        ["Month", "Decoder util", "Encoder util"],
        [[r["month"], round(r["decoder_util"], 3), round(r["encoder_util"], 3)]
         for r in results],
        title="Figure 9c: hardware decoder utilization (paper: ~98% -> ~91%)",
    ))
    mean_before, mean_after = float(np.mean(before)), float(np.mean(after))
    print(f"mean decoder utilization: months 3-6 {mean_before:.3f} -> "
          f"months 7-12 {mean_after:.3f} (paper ~0.98 -> ~0.91)")
    # Shape: decoder utilization is high while hardware decode binds, then
    # drops by several points once software decode offloads it.
    assert mean_before > 0.8
    assert mean_after < mean_before - 0.02
