"""The repository benchmark: one workload, its metrics, and a correctness gate.

    python3 bench/run.py --workload fleet-day [--seed N] [--seconds S] [--trace 0|1]

Each repetition runs in a fresh child process (``bench/child.py``), one
at a time, with BLAS/OpenMP pinned to one thread.  Repetitions continue
until ``--seconds`` of wall time is used (at least three), and each
end-to-end metric is the median over them.

``--trace 0`` prints every end-to-end metric.  ``--trace 1`` runs one
untraced and one traced repetition and prints every per-layer metric
(see ``bench/tracing.py``).  Either way the last line of output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every repetition is checked: the workload's invariants, identical
results across repetitions (and between the traced and untraced run),
static scorecard key sets, and, at the default seed, the digests in
``bench/expected.json``.  A failed check fails its operations, and the
exit code is then 1.  Without the program's sources beside ``bench/``
the script exits 2 and prints no result.

    python3 bench/run.py --update-expected   # re-record bench/expected.json
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
EXPECTED = os.path.join(BENCH, "expected.json")
MIN_REPS = 3
MAX_REPS = 50
CHILD_TIMEOUT_S = 150.0
DEFAULT_SECONDS = 20

#: End-to-end metrics: name -> (unit, better).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "sim_s_per_wall_s": ("s/s", "higher"),
}


class ChildFailed(RuntimeError):
    pass


def calibration_kernel() -> int:
    """A fixed pure-Python workload: integer hashing, dict updates and a
    bounded heap -- the operations the simulator's hot loops are made of."""
    state, counts, heap = 12345, {}, []
    for i in range(60_000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = state % 997
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, (state % 10007, i))
        if len(heap) > 256:
            heapq.heappop(heap)
    return sum(counts.values()) + len(heap)


def calibrate(runs: int = 5) -> float:
    """``host.calib_s``: median seconds of :func:`calibration_kernel`.

    Printed with every set of runs so that host drift can be told apart
    from a regression of the code under test.
    """
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(workload: str, seed: Optional[int], trace: bool) -> dict:
    """One repetition in a fresh process; returns its JSON record."""
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"timed out after {CHILD_TIMEOUT_S:.0f} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-5:]
        raise ChildFailed(f"exit {done.returncode}: " + " | ".join(tail))
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise ChildFailed(f"unreadable result: {lines[-1][:200]}") from None


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load_expected() -> dict:
    try:
        with open(EXPECTED, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {"digests": {}, "units": {}, "scorecard_keys": {}}


class Gate:
    """Collects correctness problems and the operations they fail."""

    def __init__(self, expected: dict, at_default_seed: bool):
        self.expected = expected
        self.at_default_seed = at_default_seed
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.digest: Optional[str] = None

    def child_failed(self, label: str, error: ChildFailed) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{label}: {error}")

    def check(self, label: str, workload: str, record: dict) -> None:
        ops = record["ops"]
        self.attempted += ops
        problems = [f"{label}: {p}" for p in record["problems"]]
        if self.digest is None:
            self.digest = record["digest"]
        elif record["digest"] != self.digest:
            problems.append(f"{label}: results differ from the first repetition")
        wanted = self.expected["digests"].get(workload)
        if self.at_default_seed and wanted and record["digest"] != wanted:
            problems.append(f"{label}: digest {record['digest'][:12]} != expected {wanted[:12]}")
        for unit, value in record["units"].items():
            wanted = self.expected["units"].get(unit)
            if self.at_default_seed and wanted and value != wanted:
                problems.append(f"{label}: unit {unit} differs from its expected digest")
        for unit, keys in record["scorecard_keys"].items():
            wanted = self.expected["scorecard_keys"].get(unit.split("/")[0])
            if wanted is not None and keys != wanted:
                problems.append(f"{label}: unit {unit} scorecard keys changed")
        if problems:
            self.failed += ops
            self.problems.extend(problems)

    @property
    def correct(self) -> bool:
        return not self.problems


def end_to_end(record: dict) -> Dict[str, float]:
    return {
        "setup_s": record["setup_s"],
        "run_s": record["run_s"],
        "peak_rss_mib": record["peak_rss_mib"],
        "sim_s_per_wall_s": record["sim_s"] / record["run_s"],
    }


def measure(args, gate: Gate) -> List[dict]:
    """Untraced repetitions until ``args.seconds`` is spent (>= MIN_REPS)."""
    records: List[dict] = []
    walls: List[float] = []
    start = time.perf_counter()
    while len(walls) < MAX_REPS:
        began = time.perf_counter()
        label = f"rep {len(walls) + 1}"
        try:
            record = run_child(args.workload, args.seed, trace=False)
        except ChildFailed as error:
            gate.child_failed(label, error)
        else:
            gate.check(label, args.workload, record)
            records.append(record)
            print(
                f"  {label}: setup {record['setup_s']:.3f} s, run {record['run_s']:.3f} s,"
                f" rss {record['peak_rss_mib']:.1f} MiB, digest {record['digest'][:12]}"
            )
        walls.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_REPS and elapsed + statistics.median(walls) > args.seconds:
            break
    return records


def report_end_to_end(records: List[dict]) -> Tuple[Dict[str, dict], Dict[str, List[float]]]:
    samples = {name: [end_to_end(r)[name] for r in records] for name in END_TO_END}
    metrics = {}
    for name, (unit, _) in END_TO_END.items():
        q1, median, q3 = quartiles(samples[name])
        metrics[name] = {"value": median, "unit": unit}
        print(
            f"  {name:<18s} median {median:12.6g} {unit:<4s}"
            f" q1 {q1:.6g}  q3 {q3:.6g}  n={len(samples[name])}"
        )
    return metrics, samples


def describe(records: List[dict]) -> None:
    """What one repetition simulated, for the human reading the report."""
    first = records[0]
    facts = [f"{first['ops']} ops"] + [f"{k} {v:g}" for k, v in first["extra"].items()]
    if first["mpix_per_vcu_s"]:
        facts.append(f"{first['mpix_per_vcu_s']:.4g} simulated Mpix/s per VCU")
    if "frames" in first["extra"]:
        run_s = statistics.median(r["run_s"] for r in records)
        facts.append(f"{first['extra']['frames'] / run_s:.1f} encoded frames/s")
    print("  per repetition: " + ", ".join(facts))


def traced(args, gate: Gate, calib_s: float) -> Tuple[Dict[str, dict], Dict[str, List[float]]]:
    """One untraced and one traced repetition; every per-layer metric."""
    import tracing

    records = []
    for label, trace in (("untraced", False), ("traced", True)):
        try:
            record = run_child(args.workload, args.seed, trace=trace)
        except ChildFailed as error:
            gate.child_failed(label, error)
            return {}, {}
        gate.check(label, args.workload, record)
        records.append(record)
    plain, record = records
    values = dict(record["layers"])
    values["trace.overhead_frac"] = record["run_s"] / plain["run_s"] - 1.0
    values["cluster.sim_mpix_per_vcu_s"] = record["mpix_per_vcu_s"]
    values["host.calib_s"] = calib_s
    if record["missing_boundaries"]:
        print("  boundaries no longer in the code: " + ", ".join(record["missing_boundaries"]))
    if record["nesting_errors"]:
        gate.problems.append(f"traced: {record['nesting_errors']} spans closed out of order")
        gate.failed += record["ops"]
    print(
        f"  untraced run {plain['run_s']:.3f} s, traced run {record['run_s']:.3f} s"
        f" (overhead {values['trace.overhead_frac']:+.1%}),"
        f" {values['trace.spans']:.0f} spans -> {record['spans_file']}"
    )
    shares = sorted(
        (values[f"{layer}.share"], layer) for layer in tracing.LAYERS
    )
    for share, layer in reversed(shares):
        if share >= 0.005:
            print(
                f"  {layer:<18s} self {values[layer + '.self_s']:8.4f} s"
                f"  {share:6.1%}  calls {values[layer + '.calls']:.0f}"
            )
    print(f"  {'unattributed':<18s} {values['unattributed.share']:6.1%}")
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _) in tracing.METRIC_UNITS.items()
    }
    return metrics, {name: [value] for name, value in values.items()}


def update_expected() -> int:
    """Re-record ``bench/expected.json`` from one run per workload."""
    import suite

    expected: dict = {"digests": {}, "units": {}, "scorecard_keys": {}}
    for name in suite.WORKLOADS:
        record = run_child(name, None, trace=False)
        if record["problems"]:
            print(f"{name}: " + "; ".join(record["problems"]), file=sys.stderr)
            return 1
        expected["digests"][name] = record["digest"]
        for unit, value in record["units"].items():
            if expected["units"].setdefault(unit, value) != value:
                print(f"{name}: unit {unit} differs between workloads", file=sys.stderr)
                return 1
        for unit, keys in record["scorecard_keys"].items():
            expected["scorecard_keys"][unit.split("/")[0]] = keys
        print(f"{name}: {record['digest']}")
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the repo's committed seeds)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="wall time the repetitions may use")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="PATH",
                        help="append this run's samples as one JSON line (for compare.py)")
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program sources under {ROOT}/src: nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH)
    import suite

    if args.update_expected:
        return update_expected()
    if args.workload not in suite.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(suite.WORKLOADS)}")
    workload = suite.WORKLOADS[args.workload]
    at_default = args.seed is None or args.seed == workload.default_seed
    gate = Gate(load_expected(), at_default)
    calib_s = calibrate()
    seed = "default" if args.seed is None else args.seed
    print(f"workload {args.workload}  seed {seed}  trace {args.trace}")
    print(f"  host.calib_s {calib_s:.6f} s")
    if args.trace:
        metrics, samples = traced(args, gate, calib_s)
    else:
        records = measure(args, gate)
        metrics, samples = report_end_to_end(records) if records else ({}, {})
        if records:
            describe(records)
    for problem in gate.problems:
        print(f"  FAILED {problem}")
    checked = at_default and args.workload in gate.expected["digests"]
    print(
        f"  correct: {'yes' if gate.correct else 'no'}, {gate.failed} of"
        f" {gate.attempted} ops failed, digest {(gate.digest or '-')[:12]}"
        + (" (checked against bench/expected.json)" if checked else "")
    )
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed, "trace": args.trace,
                "correct": gate.correct, "digest": gate.digest,
                "host.calib_s": calib_s, "samples": samples,
            }) + "\n")
    print(json.dumps({
        "correct": gate.correct and bool(metrics),
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0 if gate.correct and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
