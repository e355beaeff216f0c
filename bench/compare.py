"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/run.py --workload W --seed N --record old.jsonl   # per run
    python3 bench/compare.py old.jsonl new.jsonl

Each line of a set is one run recorded by ``run.py --record``.  A run's
value for a metric is the median of its repetitions; a set's median and
quartiles are taken over its runs (over the repetitions when it holds one
run).  For each workload and end-to-end metric the verdict uses the
bounds in ``BENCHMARK.json``:

* ``worse``  -- the new median is worse by more than the bound;
* ``better`` -- it is better by more than the old set's own spread;
* ``unresolved`` -- either set's spread is wider than the bound, unless
  every new run beats (or loses to) every old run;
* ``within`` -- otherwise.

Counts are compared exactly (``same`` or ``differs``), and so are the
result digests of runs at the same seed.  The host calibration of both
sets is printed, so host drift can be told apart from a regression.
Exits 1 when a metric is worse or a digest differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import List

from run import quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def run_values(runs: List[dict], metric: str) -> List[float]:
    """One value per run, or the repetitions of a lone run."""
    samples = [run["samples"][metric] for run in runs if metric in run["samples"]]
    if len(samples) == 1:
        return list(samples[0])
    return [statistics.median(s) for s in samples]


def verdict(old: List[float], new: List[float], better: str, bound: float) -> str:
    q1, old_median, q3 = quartiles(old)
    n1, new_median, n3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new_median - old_median) / old_median
    old_spread = (q3 - q1) / abs(old_median)
    new_spread = (n3 - n1) / abs(new_median)
    if max(old_spread, new_spread) > bound:
        if all(sign * (n - o) < 0 for n in new for o in old):
            return "better"
        if all(sign * (n - o) > 0 for n in new for o in old):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > old_spread:
        return "better"
    return "within"


def compare(old_runs: List[dict], new_runs: List[dict], spec: dict) -> List[str]:
    """The report lines; a line starting with ``!`` is a regression or a
    changed result."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    lines: List[str] = []
    keys = sorted({(r["workload"], r["trace"]) for r in old_runs}
                  & {(r["workload"], r["trace"]) for r in new_runs})
    for workload, trace in keys:
        old = [r for r in old_runs if (r["workload"], r["trace"]) == (workload, trace)]
        new = [r for r in new_runs if (r["workload"], r["trace"]) == (workload, trace)]
        lines.append(f"{workload} (trace {trace}): {len(old)} old runs, {len(new)} new runs")
        calib = [statistics.median(r["host.calib_s"] for r in rs) for rs in (old, new)]
        lines.append(
            f"  host.calib_s {calib[0]:.6f} -> {calib[1]:.6f}"
            f" ({calib[1] / calib[0] - 1:+.1%} host drift)"
        )
        metrics = sorted(set(old[0]["samples"]) & set(new[0]["samples"]))
        for metric in metrics:
            if metric == "host.calib_s":
                continue
            a, b = run_values(old, metric), run_values(new, metric)
            unit = units.get(metric, "")
            if metric in bounds:
                mark = verdict(a, b, bounds[metric]["better"], bounds[metric]["bound"])
            elif unit == "count":
                mark = "same" if a == b else "differs"
            else:
                mark = "-"
            q1, m1, q3 = quartiles(a)
            n1, m2, n3 = quartiles(b)
            flag = "!" if mark == "worse" else " "
            lines.append(
                f"{flag} {metric:<34s} {m1:12.6g} [{q1:.4g}, {q3:.4g}] -> "
                f"{m2:12.6g} [{n1:.4g}, {n3:.4g}] {unit:<8s} {mark}"
            )
        digests = {}
        for side, runs in (("old", old), ("new", new)):
            for run in runs:
                digests.setdefault(run["seed"], {})[side] = run["digest"]
        for seed, pair in sorted(digests.items(), key=lambda kv: str(kv[0])):
            if len(pair) == 2:
                same = pair["old"] == pair["new"]
                lines.append(
                    f"{' ' if same else '!'} digest at seed {seed}:"
                    f" {'same' if same else 'differs'}"
                )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    lines = compare(load(args.old), load(args.new), spec)
    print("\n".join(lines))
    return 1 if any(line.startswith("!") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
