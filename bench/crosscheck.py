"""Check the traced run's layer fold against two profilers.

    python3 bench/crosscheck.py --workload saturated-timeline [--seed N]

Runs the workload's timed body three times, each in a fresh process:
under the boundary tracer (the fold ``run.py --trace 1`` reports), under
cProfile, and under a sampler that reads the innermost repo frame on
every SIGPROF tick (1 ms of CPU time).  cProfile and the sampler charge
self time to the module that defines each function; time in numpy, C
builtins and the standard library goes to the repo function that called
it (for cProfile, split by caller).  The shares are printed side by side.

The methods disagree in known ways.  cProfile adds a fixed cost to every
Python call, so code made of many small calls looks larger than code
that spends its time inside numpy.  The boundary fold charges a call into
another layer's non-boundary function to the caller, and keeps what its
own wrappers cost to the caller that it cannot measure.  The sampler has
neither bias but sees about one tick per millisecond.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import signal
import subprocess
import sys
from collections import Counter
from typing import Dict, Optional

import run
import suite
import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src") + os.sep
METHODS = ("boundary", "cprofile", "sampled")
#: Caller chains longer than this (recursion) go to ``unattributed``.
MAX_DEPTH = 25


def _layer(filename: str) -> Optional[str]:
    """The layer of a repo file, or None for library and builtin code."""
    module = tracing.module_of_file(filename, SRC)
    if module is not None:
        return tracing.layer_of_module(module)
    if filename.startswith(BENCH + os.sep):
        return tracing.DRIVER
    return None


def boundary_shares(workload, seed: Optional[int], out_dir: str,
                    tiny: bool) -> Dict[str, float]:
    # Installed before set-up, as in a traced repetition, so that the
    # processes the set-up starts are wrapped too.
    tracer = tracing.Tracer(ROOT)
    tracer.install()
    try:
        state = workload.setup(seed, out_dir, tiny=tiny)
        with tracer.root():
            workload.body(state)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    return {
        layer: metrics[f"{layer}.share"]
        for layer in tracing.LAYERS + (tracing.UNATTRIBUTED,)
    }


def cprofile_shares(workload, state) -> Dict[str, float]:
    profile = cProfile.Profile()
    profile.enable()
    workload.body(state)
    profile.disable()
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    spreads: Dict[tuple, Dict[str, float]] = {}

    def spread(key: tuple, depth: int) -> Dict[str, float]:
        """How one second of ``key``'s self time splits over layers."""
        layer = _layer(key[0])
        if layer is not None:
            return {layer: 1.0}
        if key in spreads:
            return spreads[key]
        spreads[key] = {"unattributed": 1.0}  # also what a cycle gets
        callers = stats[key][4] if key in stats else {}
        weights = {caller: timing[2] for caller, timing in callers.items()}
        total = sum(weights.values())
        if depth < MAX_DEPTH and total > 0:
            parts: Counter = Counter()
            for caller, weight in weights.items():
                for caller_layer, part in spread(caller, depth + 1).items():
                    parts[caller_layer] += part * weight / total
            spreads[key] = dict(parts)
        return spreads[key]

    folded: Counter = Counter()
    for key, (_, _, self_s, _, _) in stats.items():
        for layer, part in spread(key, 0).items():
            folded[layer] += self_s * part
    total = sum(folded.values()) or 1.0
    return {layer: seconds / total for layer, seconds in folded.items()}


def sampled_shares(workload, state) -> Dict[str, float]:
    ticks: Counter = Counter()

    def on_tick(signum, frame) -> None:
        while frame is not None:
            layer = _layer(frame.f_code.co_filename)
            if layer is not None:
                ticks[layer] += 1
                return
            frame = frame.f_back
        ticks["unattributed"] += 1

    previous = signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, 0.001, 0.001)
    try:
        workload.body(state)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
    total = sum(ticks.values()) or 1
    return {layer: count / total for layer, count in ticks.items()}


def shares(method: str, name: str, seed: Optional[int], out_dir: str,
           tiny: bool = False) -> Dict[str, float]:
    """One set-up and one timed body of ``name`` under ``method``."""
    workload = suite.WORKLOADS[name]
    if method == "boundary":
        return boundary_shares(workload, seed, out_dir, tiny)
    state = workload.setup(seed, out_dir, tiny=tiny)
    fold = cprofile_shares if method == "cprofile" else sampled_shares
    return fold(workload, state)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--method", choices=METHODS,
                        help="run one method in this process and print its shares")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    if args.method:
        print(json.dumps(shares(args.method, args.workload, args.seed, out_dir)))
        return 0

    table = {}
    for method in METHODS:
        cmd = [sys.executable, __file__, "--workload", args.workload, "--method", method]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        done = subprocess.run(cmd, cwd=ROOT, env=run.child_env(), capture_output=True,
                              text=True, check=True)
        table[method] = json.loads(done.stdout.strip().splitlines()[-1])
    layers = sorted(
        {layer for column in table.values() for layer in column},
        key=lambda layer: -table["sampled"].get(layer, 0.0),
    )
    print(f"{args.workload}: self-time share by layer")
    print(f"  {'layer':<20s}" + "".join(f"{method:>10s}" for method in METHODS))
    for layer in layers:
        row = [table[method].get(layer, 0.0) for method in METHODS]
        if max(row) >= 0.005:
            print(f"  {layer:<20s}" + "".join(f"{share:10.1%}" for share in row))
    tops = {method: max(column, key=column.get) for method, column in table.items()}
    print("  top layer: " + ", ".join(f"{method} {tops[method]}" for method in METHODS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
