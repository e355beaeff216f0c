"""Command-line interface: run the paper's experiments from a shell.

``repro-bench <command>`` (or ``python -m repro.cli <command>``) runs
the registered experiments through ``run`` (``run --only NAME`` prints
one experiment's table: Table 1, Table 2, Figure 7, the tuning timeline
and the scenario catalog) and the analytic checks no experiment
produces yet through their own commands; the full benchmark suite stays
in ``pytest benchmarks/``.

Commands:
    balance     Appendix A network & DRAM sizing
    live        Section 4.5 live-latency comparison
    gaming      Section 4.5 Stadia frame-budget check
    report      render a fleet report from a JSONL trace dump
    run         sharded deterministic experiment runner (repro.runner)
    lint        simulation-safety static analyzer (repro.analysis)

Wall-clock measurement lives outside the package: ``pytest
benchmarks/perf`` holds the hot paths to their speedup floors, and
``python3 bench/run.py`` times the benchmark workloads end to end.

Heavy imports happen inside each command handler, so ``report`` and
``lint`` (pure Python) run without pulling in the numeric stack.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Any, Callable, List, Optional


# argparse ``type=`` checks: bad input is a usage error (rc 2) at parse
# time, not a traceback from inside a run.  The resolution table imports
# numpy, so it loads only when its argument is parsed.
def _checked(
    convert: Callable[[str], Any], accept: Callable[[Any], bool], expected: str
) -> Callable[[str], Any]:
    def parse(text: str) -> Any:
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


def _positive(convert: Callable[[str], Any]) -> Callable[[str], Any]:
    return _checked(
        convert, lambda value: 0 < value < math.inf,
        f"a positive {convert.__name__}",
    )


_count = _checked(int, lambda value: 0 <= value < math.inf, "an int >= 0")


def _directory(text: str) -> str:
    if not os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"no such directory: {text!r}")
    return text


def _output_file(text: str) -> str:
    """A file to write at the end of a run: the path must name a file,
    not a directory, and its directory must exist now, not after the run
    has been paid for."""
    if not text or text.endswith(("/", os.sep)) or os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"expected a file path, got {text!r}")
    directory = os.path.dirname(os.path.abspath(text))
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(
            f"no such directory {directory!r} for {text!r}"
        )
    return text


def _cache_directory(text: str) -> str:
    """A directory the result cache may create: the path is not empty,
    and neither it nor any parent of it that exists is a file.  A path
    that does not exist yet is fine; the cache creates it."""
    if not text:
        raise argparse.ArgumentTypeError(
            f"expected a directory path, got {text!r}"
        )
    existing = os.path.abspath(text)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise argparse.ArgumentTypeError(
            f"{existing!r} exists and is not a directory (for {text!r})"
        )
    return text


def _resolution_name(text: str) -> str:
    from repro.video.frame import resolution

    try:
        resolution(text)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return text


def _cmd_balance(args: argparse.Namespace) -> None:
    from repro.balance import (
        NetworkBalance,
        fleet_dram_requirement,
        mot_footprint_mib,
        sot_footprint_mib,
        vcu_ceiling_per_host,
    )
    from repro.vcu.spec import EncodingMode

    nb = NetworkBalance()
    print(f"network limit: raw {nb.raw_limit_gpix_s:.0f} Gpixel/s, "
          f"effective {nb.effective_limit_gpix_s:.0f} Gpixel/s per host")
    print(f"VCU ceilings: realtime "
          f"{vcu_ceiling_per_host(EncodingMode.LOW_LATENCY_ONE_PASS)}, "
          f"offline {vcu_ceiling_per_host(EncodingMode.OFFLINE_TWO_PASS)}")
    print(f"2160p footprints: MOT {mot_footprint_mib():.0f} MiB, "
          f"SOT {sot_footprint_mib():.0f} MiB")
    for mode in (EncodingMode.LOW_LATENCY_ONE_PASS, EncodingMode.OFFLINE_TWO_PASS):
        req = fleet_dram_requirement(mode)
        print(f"  {mode.value}: needs {req.required_gib:.0f} GiB, "
              f"8 GiB/VCU provides {req.provided_gib_8g:.0f} GiB "
              f"(fits: {req.fits_8gib}; 4 GiB would fit: {req.fits_4gib})")


def _cmd_live(args: argparse.Namespace) -> None:
    from repro.workloads.live import (
        LiveStream,
        end_to_end_latency_seconds,
        simulate_live_stream,
    )

    stream = LiveStream("cli")
    for name, use_vcu in (("software", False), ("VCU", True)):
        results = simulate_live_stream(stream, args.duration, use_vcu=use_vcu, seed=1)
        latency = end_to_end_latency_seconds(results, stream.chunk_seconds)
        print(f"{name:8s}: end-to-end latency {latency:5.1f} s")


def _cmd_gaming(args: argparse.Namespace) -> None:
    from repro.workloads.gaming import GamingSession, gaming_latency_ms, meets_frame_budget

    session = GamingSession(resolution_name=args.resolution, fps=args.fps)
    for name, use_vcu in (("VCU", True), ("software", False)):
        ms = gaming_latency_ms(session, use_vcu=use_vcu)
        verdict = "meets" if meets_frame_budget(session, use_vcu) else "MISSES"
        print(f"{name:8s}: {ms:6.1f} ms/frame ({verdict} the "
              f"{session.frame_budget_ms:.1f} ms budget)")


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import load, render, summarize

    try:
        spans = load(args.trace)
    except OSError as exc:
        print(f"report: cannot read trace {args.trace!r}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"report: bad trace: {exc}", file=sys.stderr)
        return 2
    print(render(summarize(spans), timeline_limit=args.timeline))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.runner import (
        DEFAULT_MANIFEST_NAME,
        ResultCache,
        build_manifest,
        manifest_text,
        render_markdown,
        render_stats,
        run_experiments,
        write_manifest,
    )
    from repro.runner.experiments import default_registry

    registry = default_registry()
    cache = None
    if not args.no_cache:
        from pathlib import Path

        cache = ResultCache(Path(args.cache_dir))
    names = list(args.experiments) + list(args.only)
    try:
        result = run_experiments(
            registry,
            names=names,
            jobs=args.jobs,
            cache=cache,
            smoke=args.smoke,
        )
    except KeyError as exc:
        print(f"run: {exc.args[0]}", file=sys.stderr)
        return 2
    manifest = build_manifest(result.runs)
    # Only a full run may stand in for the committed manifest: a subset
    # or smoke run writes a file only where --out says.
    full = not args.smoke and len(result.runs) == len(registry.names())
    out = args.out or (DEFAULT_MANIFEST_NAME if full else None)
    if out is not None:
        write_manifest(out, manifest)
    if args.json:
        print(manifest_text(manifest), end="")
    else:
        print(render_markdown(manifest))
        print(render_stats(result.stats))
    if out is None:
        print(
            f"wrote no manifest: {DEFAULT_MANIFEST_NAME} holds only a full"
            " run (every experiment, full grids); pass --out to keep this one",
            file=sys.stderr,
        )
    else:
        print(f"wrote {out}", file=sys.stderr)
    return 0


def _changed_python_targets(root: object, base: str) -> Optional[List[str]]:
    """Changed ``.py`` paths (vs ``base``) that fall under the lint targets.

    Returns None when git is unavailable or ``root`` is not a checkout --
    the caller falls back to a full run rather than silently linting
    nothing.  Raises ``ValueError`` when a checkout cannot diff against
    ``base`` (a ref git cannot resolve): linting everything instead
    would pass off a typo as a clean run.
    """
    import subprocess

    from repro.analysis.core import DEFAULT_TARGETS

    def git(*argv: str) -> "subprocess.CompletedProcess[str]":
        return subprocess.run(
            ["git", *argv], cwd=root, capture_output=True, text=True, timeout=30,
        )

    try:
        proc = git("diff", "--name-only", base, "--")
        if proc.returncode != 0 and git(
            "rev-parse", "--is-inside-work-tree"
        ).returncode != 0:
            return None
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        reason = (proc.stderr.strip().splitlines() or ["git diff failed"])[0]
        raise ValueError(
            f"cannot diff against --base {base!r}: {reason.removeprefix('fatal: ')}"
        )
    changed: List[str] = []
    for line in proc.stdout.splitlines():
        path = line.strip()
        if not path.endswith(".py"):
            continue
        top = path.split("/", 1)[0]
        if path in DEFAULT_TARGETS or top in DEFAULT_TARGETS:
            changed.append(path)
    return sorted(set(changed))


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as json_mod
    from pathlib import Path

    from repro.analysis import (
        DEFAULT_BASELINE_NAME,
        Baseline,
        graph_document,
        load_project,
        render_dot,
        render_json,
        render_text,
        run_lint,
    )

    root = Path(args.root).resolve()
    # Only the user's paths: --changed-only targets may name deleted files.
    for path in args.paths:
        target = root / path
        if not target.exists():
            print(f"lint: no such path under {str(root)!r}: {path!r}",
                  file=sys.stderr)
            return 2
        if not (target.is_dir() or target.suffix == ".py"):
            print(f"lint: not a directory or .py file: {path!r}", file=sys.stderr)
            return 2

    if args.graph:
        project, parse_errors = load_project(root)
        for error in parse_errors:
            print(f"lint: {error}", file=sys.stderr)
        if args.json:
            print(json_mod.dumps(graph_document(project), indent=2, sort_keys=True))
        else:
            print(render_dot(project), end="")
        return 2 if parse_errors else 0

    targets = args.paths or None
    if args.changed_only:
        try:
            changed = _changed_python_targets(root, args.base)
        except ValueError as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return 2
        if changed is None:
            print("lint: --changed-only needs a git checkout; "
                  "linting everything", file=sys.stderr)
        elif not changed:
            print(f"lint: no python files changed vs {args.base}; nothing to do")
            return 0
        else:
            targets = changed

    baseline = Baseline.empty()
    use_baseline = args.baseline or args.baseline_file is not None
    baseline_path = root / (args.baseline_file or DEFAULT_BASELINE_NAME)
    if use_baseline and not args.update_baseline:
        if not baseline_path.exists():
            print(f"lint: baseline file not found: {baseline_path}",
                  file=sys.stderr)
            return 2
        baseline = Baseline.load(baseline_path)

    result = run_lint(root, targets=targets, baseline=baseline)

    if args.update_baseline:
        Baseline.from_findings(result.findings).save(baseline_path)
        print(f"wrote {len(result.findings)} finding(s) to {baseline_path}")
        return 0

    print(render_json(result) if args.json else render_text(result))
    return 0 if result.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run experiments from the warehouse-scale video "
                    "acceleration reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("balance", help="Appendix A balance analysis").set_defaults(
        func=_cmd_balance
    )

    live = sub.add_parser("live", help="live-latency comparison")
    live.add_argument("--duration", type=_positive(float), default=120.0)
    live.set_defaults(func=_cmd_live)

    gaming = sub.add_parser("gaming", help="Stadia frame-budget check")
    gaming.add_argument("--resolution", type=_resolution_name, default="2160p")
    gaming.add_argument("--fps", type=_positive(float), default=60.0)
    gaming.set_defaults(func=_cmd_gaming)

    report = sub.add_parser("report", help="render a fleet report from a trace")
    report.add_argument("trace", help="JSONL trace dump (TraceLog.write_jsonl)")
    report.add_argument("--timeline", type=_count, default=30,
                        help="max health-timeline rows to show")
    report.set_defaults(func=_cmd_report)

    run = sub.add_parser(
        "run",
        help="sharded deterministic experiment runner (repro.runner)",
    )
    run.add_argument(
        "experiments", nargs="*",
        help="experiment names to run (default: every registered experiment)",
    )
    run.add_argument(
        "--only", action="append", default=[], metavar="NAME",
        help="run only this experiment (repeatable; combines with "
             "positional names)",
    )
    run.add_argument("--jobs", type=_positive(int), default=1,
                     help="worker processes to shard units across")
    run.add_argument("--cache-dir", type=_cache_directory,
                     default=".repro-cache",
                     help="content-addressed result cache directory")
    run.add_argument("--no-cache", action="store_true",
                     help="recompute every unit, bypassing the cache")
    run.add_argument("--smoke", action="store_true",
                     help="reduced grids for a quick CI signal")
    # The default is the runner's DEFAULT_MANIFEST_NAME, read when the
    # command runs: importing the runner here would load numpy for
    # every subcommand.
    run.add_argument("--out", type=_output_file, default=None,
                     help="where to write the manifest (default: "
                          "repro.runner.DEFAULT_MANIFEST_NAME for a full "
                          "run; a subset or --smoke run writes no file)")
    run.add_argument("--json", action="store_true",
                     help="print the manifest JSON instead of markdown")
    run.set_defaults(func=_cmd_run)

    lint = sub.add_parser(
        "lint", help="simulation-safety static analyzer (repro.analysis)"
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files/directories to lint, relative to --root "
             "(default: src tests examples benchmarks setup.py)",
    )
    lint.add_argument("--root", type=_directory, default=".",
                      help="repo root the paths are relative to")
    lint.add_argument(
        "--baseline", action="store_true",
        help="subtract the committed baseline "
             "(lint-baseline.json under --root)",
    )
    lint.add_argument("--baseline-file", default=None, metavar="FILE",
                      help="use FILE as the baseline instead")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline file from current findings")
    lint.add_argument("--json", action="store_true",
                      help="emit the machine-readable JSON report (with "
                           "--graph: the versioned graph document)")
    lint.add_argument(
        "--graph", action="store_true",
        help="emit the project import graph (DOT, or JSON with --json) "
             "instead of linting",
    )
    lint.add_argument(
        "--changed-only", action="store_true",
        help="per-file rules only on files changed vs --base (whole-"
             "program passes still see the full source tree)",
    )
    lint.add_argument("--base", default="HEAD", metavar="REF",
                      help="git ref --changed-only diffs against "
                           "(default: HEAD, i.e. staged+unstaged work)")
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return int(args.func(args) or 0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
