"""One repetition of one workload, in a fresh process.

``bench/run.py`` starts this script once per repetition so that no
repetition inherits another's imports, caches or process-global id
counters.  It prints one JSON object on its last line of output:
set-up and body wall times, peak RSS, what the batch simulated, and, for
a traced repetition, the per-layer metrics of :mod:`tracing`.

    python3 bench/child.py --workload fleet-day [--seed N] [--trace]
"""

from __future__ import annotations

import time

ENTRY = time.perf_counter()

import argparse  # noqa: E402  (the clock starts before any import)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import suite
    import tracing

    workload = suite.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    tracer = None
    missing = []
    if args.trace:
        # Patch before set-up, so generators the set-up hands to the
        # simulator are wrapped too.
        tracer = tracing.Tracer(ROOT)
        missing = tracer.install()
    state = workload.setup(args.seed, OUT)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    if tracer is None:
        result = workload.body(state)
    else:
        with tracer.root():
            result = workload.body(state)
    end = time.perf_counter()
    outcome = workload.outcome(state, result)
    record = {
        "setup_s": start - ENTRY,
        "run_s": end - start,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_s": outcome.sim_s,
        "ops": outcome.ops,
        "problems": outcome.problems,
        "digest": suite.digest(outcome.canonical),
        "units": {key: suite.digest(value) for key, value in outcome.units.items()},
        "scorecard_keys": {
            key: sorted(value["scorecard"]) for key, value in outcome.units.items()
        },
        "mpix_per_vcu_s": outcome.mpix_per_vcu_s,
        "extra": outcome.extra,
    }
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.metrics()
        record["missing_boundaries"] = missing
        record["nesting_errors"] = tracer.nesting_errors
        record["spans_file"] = os.path.relpath(
            os.path.join(OUT, f"trace-{args.workload}.jsonl"), ROOT
        )
        tracer.write_spans(os.path.join(ROOT, record["spans_file"]))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
