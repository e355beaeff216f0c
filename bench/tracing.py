"""Boundary tracing for the benchmark's traced run.

The program under test is not instrumented: this module wraps, from the
outside, the public functions where one repo layer calls into another,
and folds the time spent inside them into per-layer *self time* (a
span's duration minus the time its child spans cover).

Three kinds of wrapping:

* boundary functions (:data:`BOUNDARIES`) get a span per call.  A
  function imported by name is re-bound in every loaded module of the
  checkout that holds the original object, so callers that did
  ``from module import fn`` see the wrapper too;
* every generator handed to ``Simulator.process`` is replaced by a
  forwarding generator (``send``/``throw``/``close`` pass straight
  through) that records one span per resume, attributed to the module
  that defined the generator's code.  Callbacks given to
  ``Simulator.call_at`` (``call_in`` delegates to it) are wrapped the
  same way.  That keeps engine self time to the event loop itself rather
  than the cluster's process bodies;
* hot leaves (:data:`COUNTED`) get a call counter and no span, because a
  span would cost more than the call it measures.

Spans are compact tuples ``(id, parent, fn, t0, t1)`` held in memory (up
to :data:`SPAN_CAP`) and written as JSON lines when the run ends.  Self
time is folded online with a stack, so the per-layer totals are exact
even when the retained span list is capped.

A layer that makes many boundary calls (the cluster calling the
scheduler) would look larger by what tracing those calls costs.  So the
tracer takes its own cost out of the fold, as ``overhead_s``: the
bookkeeping around each span and the wrapping of each new process or
callback are timed, and the wrapper's own call, which cannot be timed
from inside, is calibrated on a no-op before the run (:meth:`calibrate`).
``bench/crosscheck.py`` compares the resulting fold with cProfile and a
sampling profiler.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
import types
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

clock = time.perf_counter
#: Spans kept for the JSONL dump; the fold itself covers every span.
SPAN_CAP = 50_000

#: Module prefix -> layer, most specific first.  Layer names are repo
#: modules, so a reader can go from a metric straight to the code.
LAYER_OF_PREFIX: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim.engine"),
    ("repro.cluster.scheduler", "cluster.scheduler"),
    ("repro.cluster.worker", "cluster.worker"),
    ("repro.cluster.telemetry", "cluster.telemetry"),
    ("repro.cluster", "cluster.cluster"),
    ("repro.vcu", "vcu"),
    ("repro.failures", "failures"),
    ("repro.control", "control"),
    ("repro.transcode", "transcode"),
    ("repro.runner", "runner"),
    ("repro.obs", "obs"),
    ("repro.codec.prediction", "codec.prediction"),
    ("repro.codec.kernels", "codec.kernels"),
    ("repro.codec.transform", "codec.kernels"),
    ("repro.codec.entropy", "codec.kernels"),
    ("repro.codec", "codec.encoder"),
    ("repro.workloads", "workloads"),
)
#: The benchmark's own load generation (generators and callbacks it
#: hands to the simulator).
DRIVER = "bench.driver"
#: Time inside the timed body that no layer boundary covers.
UNATTRIBUTED = "unattributed"

LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, layer in LAYER_OF_PREFIX)
) + (DRIVER,)

#: Spans, as ``module:qualname``.  Each is a public function one layer
#: calls in another; time inside it counts for the defining module's
#: layer until a nested boundary takes over.
BOUNDARIES: Tuple[str, ...] = (
    "repro.sim.engine:Simulator.run",
    "repro.sim.engine:Simulator.process",
    "repro.sim.engine:Simulator.call_at",
    "repro.sim.engine:Simulator.timeout",
    "repro.sim.engine:Simulator.any_of",
    "repro.sim.engine:Simulator.all_of",
    "repro.cluster.scheduler:BinPackingScheduler.place",
    "repro.cluster.scheduler:BinPackingScheduler.place_batch",
    "repro.cluster.scheduler:BinPackingScheduler.release",
    "repro.cluster.scheduler:BinPackingScheduler.refresh",
    "repro.cluster.scheduler:SingleSlotScheduler.place",
    "repro.cluster.scheduler:SingleSlotScheduler.release",
    "repro.cluster.cluster:TranscodeCluster.submit",
    "repro.cluster.cluster:TranscodeCluster.on_host_repaired",
    "repro.cluster.cluster:TranscodeCluster.on_host_drained",
    "repro.cluster.cluster:TranscodeCluster.on_vcus_disabled",
    "repro.cluster.cluster:TranscodeCluster.healthy_vcu_count",
    "repro.cluster.cluster:TranscodeCluster.flush_telemetry",
    "repro.cluster.timeline:run_month",
    "repro.cluster.worker:VcuWorker.request_for",
    "repro.cluster.worker:VcuWorker.step_seconds",
    "repro.cluster.worker:VcuWorker.try_admit",
    "repro.cluster.worker:VcuWorker.release",
    "repro.cluster.worker:VcuWorker.abort_and_quarantine",
    "repro.cluster.worker:VcuWorker.record_strike",
    "repro.cluster.worker:VcuWorker.begin_rescreen",
    "repro.cluster.worker:VcuWorker.finish_rescreen",
    "repro.cluster.worker:VcuWorker.reset_after_repair",
    "repro.cluster.worker:CpuWorker.request_for_cpu_step",
    "repro.cluster.worker:CpuWorker.cpu_step_seconds",
    "repro.cluster.worker:CpuWorker.request_for_transcode",
    "repro.cluster.worker:CpuWorker.transcode_seconds",
    "repro.cluster.worker:CpuWorker.try_admit",
    "repro.cluster.worker:CpuWorker.release",
    "repro.cluster.telemetry:FleetTelemetry.note_admit",
    "repro.cluster.telemetry:FleetTelemetry.note_release",
    "repro.cluster.telemetry:FleetTelemetry.note_graph_latency",
    "repro.cluster.telemetry:FleetTelemetry.flush",
    "repro.vcu.host:VcuHost.sweep_telemetry",
    "repro.vcu.telemetry:VcuTelemetry.record",
    "repro.vcu.chip:resource_request",
    "repro.vcu.chip:processing_seconds",
    "repro.vcu.chip:Vcu.golden_check",
    "repro.vcu.firmware:VcuFirmware.submit",
    "repro.failures.management:FailureManager.sweep",
    "repro.failures.management:RepairQueue.start_repairs",
    "repro.failures.management:RepairQueue.finish_repair",
    "repro.failures.injector:FaultInjector.random_hard_faults",
    "repro.failures.injector:FaultInjector.random_hangs",
    "repro.failures.injector:FaultInjector.random_corruptions",
    "repro.failures.injector:FaultInjector.correlated_host_fault",
    "repro.failures.injector:FaultInjector.correlated_hangs",
    "repro.failures.injector:FaultInjector.regional_outage",
    "repro.failures.watchdog:BackoffPolicy.delay_for",
    "repro.failures.watchdog:FaultDomainTracker.record",
    "repro.failures.consistent_hash:ChunkAffinityPolicy.placement_order",
    "repro.control.plane:ControlPlane.submit",
    "repro.control.plane:ControlPlane.site_down",
    "repro.control.plane:ControlPlane.site_up",
    "repro.control.plane:ClusterExecutor.start",
    "repro.control.plane:ModeledExecutor.start",
    "repro.control.streaming:StreamingExecutor.start",
    "repro.control.queue:JobLedger.register",
    "repro.control.queue:JobLedger.transition",
    "repro.control.admission:AdmissionController.decide",
    "repro.control.admission:AdmissionController.shed_excess",
    "repro.control.canary:run_canary_rollout",
    "repro.control.chaos:run_chaos_campaign",
    "repro.control.live_ladder:run_live_ladder",
    "repro.control.scenario:run_global_platform_day",
    "repro.control.surge:run_surge_mix",
    "repro.transcode.pipeline:build_transcode_graph",
    "repro.transcode.segments:build_segment_graph",
    "repro.transcode.segments:ManifestAssembler.release",
    "repro.transcode.segments:ManifestAssembler.complete_rung",
    "repro.transcode.streaming:LadderDispatcher.start_stream",
    "repro.transcode.assembly:assemble",
    "repro.runner.registry:Experiment.run_unit",
    "repro.obs:Observability.emit",
    "repro.obs:Observability.count",
    "repro.obs:Observability.observe",
    "repro.obs.registry:MetricsRegistry.snapshot",
    "repro.obs.trace:TraceLog.write_jsonl",
    "repro.obs.report:load",
    "repro.obs.report:summarize",
    "repro.codec.prediction:best_intra",
    "repro.codec.prediction:best_inter",
    "repro.codec.prediction:SearchPlanes.__init__",
    "repro.codec.encoder:Encoder.encode_frame",
    "repro.codec.encoder:encode_video",
    "repro.codec.temporal_filter:build_altref",
    "repro.codec.transform:transform_rd",
    "repro.codec.transform:transform_rd_single",
    "repro.codec.entropy:block_bits",
    "repro.workloads.upload:UploadGenerator.videos",
    "repro.workloads.upload:UploadGenerator.to_graph",
    "repro.workloads.platform:PlatformDayWorkload.requests",
    "repro.workloads.streams:LadderDemandWorkload.requests",
)

#: Hot leaves: never timed (their time stays with the caller), but
#: counted under the given name, or, with ``None``, only tallied.
COUNTED: Dict[str, Optional[str]] = {
    "repro.vcu.telemetry:VcuTelemetry.should_disable": "vcu.should_disable_calls",
    "repro.cluster.worker:VcuWorker.available": "cluster.worker.available_calls",
    "repro.cluster.worker:CpuWorker.available": "cluster.worker.available_calls",
    "repro.obs.trace:TraceLog.append": None,
}

#: Boundaries whose results feed a ratio: target -> (tally, score).
TALLIES: Dict[str, Tuple[str, Callable[[Any], int]]] = {
    "repro.cluster.scheduler:BinPackingScheduler.place": (
        "place_hits", lambda worker: worker is not None),
    "repro.cluster.scheduler:SingleSlotScheduler.place": (
        "place_hits", lambda worker: worker is not None),
    "repro.vcu.host:VcuHost.sweep_telemetry": ("vcus_disabled", len),
    "repro.obs.trace:TraceLog.append": (
        "obs.spans_recorded", lambda span: span is not None),
}

PLACE = (
    "repro.cluster.scheduler:BinPackingScheduler.place",
    "repro.cluster.scheduler:SingleSlotScheduler.place",
)
EXPORT = (
    "repro.obs.trace:TraceLog.write_jsonl",
    "repro.obs.report:load",
    "repro.obs.report:summarize",
)

#: Every per-layer metric: name -> (unit, better).
METRIC_UNITS: Dict[str, Tuple[str, str]] = {
    f"{layer}.{name}": unit
    for layer in LAYERS
    for name, unit in (
        ("self_s", ("s", "lower")),
        ("share", ("fraction", "lower")),
        ("calls", ("count", "lower")),
    )
}
METRIC_UNITS.update({
    "sim.engine.resumes": ("count", "lower"),
    "sim.engine.us_per_resume": ("us", "lower"),
    "cluster.scheduler.place_calls": ("count", "lower"),
    "cluster.scheduler.place_hit_rate": ("fraction", "higher"),
    "cluster.scheduler.us_per_place": ("us", "lower"),
    "cluster.worker.available_calls": ("count", "lower"),
    "vcu.should_disable_calls": ("count", "lower"),
    "vcu.disable_yield": ("fraction", "higher"),
    "failures.sweeps": ("count", "lower"),
    "control.submits": ("count", "lower"),
    "control.ledger_transitions": ("count", "lower"),
    "obs.emits": ("count", "lower"),
    "obs.spans_recorded": ("count", "lower"),
    "obs.export_s": ("s", "lower"),
    "codec.us_per_frame": ("us", "lower"),
    "trace.spans": ("count", "lower"),
    "unattributed.share": ("fraction", "lower"),
})
#: Filled in by the runner, not the tracer: they need the untraced run,
#: the workload's simulated output, or the host calibration.
RUN_LEVEL: Dict[str, Tuple[str, str]] = {
    "trace.overhead_frac": ("fraction", "lower"),
    "cluster.sim_mpix_per_vcu_s": ("Mpix/s", "higher"),
    "host.calib_s": ("s", "lower"),
}
METRIC_UNITS.update(RUN_LEVEL)


def layer_of_module(module: str) -> str:
    for prefix, layer in LAYER_OF_PREFIX:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return UNATTRIBUTED


def module_of_file(filename: str, src: str) -> Optional[str]:
    """``src/repro/cluster/cluster.py`` -> ``repro.cluster.cluster``, or
    None for a file outside ``src`` (a path ending in a separator)."""
    if not filename.startswith(src):
        return None
    module = filename[len(src):-3].replace(os.sep, ".")
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    return module


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``module:Qual.name`` -> (owner, attribute name, raw attribute).

    Raises ``LookupError`` when the name no longer exists, or when a
    method is only inherited (patching it on the subclass would shadow
    the base class's own wrapper).
    """
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(target)
    name = parts[-1]
    raw = vars(owner).get(name)
    if raw is None:
        raise LookupError(target)
    return owner, name, raw


class Tracer:
    """Records boundary spans for one timed body and folds them by layer."""

    def __init__(self, root: str) -> None:
        self._src = os.path.join(root, "src") + os.sep
        self._bench = os.path.join(root, "bench") + os.sep
        self.recording = False
        #: Seconds a span costs its parent outside what ``_exit`` measures,
        #: for a wrapped call and a forwarded resume (see calibrate()).
        self.residuals: Tuple[float, float] = (0.0, 0.0)
        self.fns: List[str] = ["bench:body"]
        self._fn_layer: List[int] = [len(LAYERS)]  # root -> unattributed
        self._fn_residual: List[float] = [0.0]
        self._fn_ids: Dict[Any, int] = {}
        self.fn_calls: List[int] = [0]
        self.fn_inclusive: List[float] = [0.0]
        self.layer_self = [0.0] * (len(LAYERS) + 1)
        self.layer_calls = [0] * (len(LAYERS) + 1)
        #: Tallies from boundary results, and counted calls (see root()).
        self.counts: Dict[str, int] = {}
        self._cells: Dict[str, List[int]] = {}
        self.spans: List[Tuple[int, int, int, float, float]] = []
        self.total_spans = 0
        self.resumes = 0
        self.root_s = 0.0
        #: Seconds of the root span the tracer itself took (see _exit()).
        self.overhead_s = 0.0
        self.nesting_errors = 0
        self._stack: List[list] = []
        self._next_id = 1
        self._undo: List[Callable[[], None]] = []
        self._layer_index = {layer: i for i, layer in enumerate(LAYERS)}

    # ------------------------------------------------------------------ #
    # Span bookkeeping

    def _fn(self, key: Any, label: str, layer: str, resume: bool = False) -> int:
        """The id of a span kind; ``resume`` marks a forwarded generator."""
        fn_id = self._fn_ids.get(key)
        if fn_id is None:
            fn_id = len(self.fns)
            self._fn_ids[key] = fn_id
            self.fns.append(label)
            self._fn_layer.append(self._layer_index.get(layer, len(LAYERS)))
            self._fn_residual.append(self.residuals[resume])
            self.fn_calls.append(0)
            self.fn_inclusive.append(0.0)
        return fn_id

    # A frame is [fn_id, t0, children, sid, parent sid, t_in]: t0..t1 is
    # the span, t_in..t_out the span plus this bookkeeping.  The parent is
    # charged t_out - t_in plus the calibrated residual (the wrapper's own
    # call, outside t_in..t_out), so its self time excludes the tracer's
    # cost, which is kept apart in ``overhead_s``.

    def _enter(self, fn_id: int) -> list:
        t_in = clock()
        sid = self._next_id
        self._next_id = sid + 1
        stack = self._stack
        frame = [fn_id, 0.0, 0.0, sid, stack[-1][3] if stack else 0, t_in]
        stack.append(frame)
        frame[1] = clock()
        return frame

    def _exit(self, frame: list) -> None:
        t1 = clock()
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
        else:  # pragma: no cover - would mean a generator broke nesting
            self.nesting_errors += 1
            if frame in stack:
                del stack[stack.index(frame):]
        fn_id, t0, children, sid, parent, t_in = frame
        duration = t1 - t0
        layer = self._fn_layer[fn_id]
        self.layer_self[layer] += duration - children
        self.layer_calls[layer] += 1
        self.fn_calls[fn_id] += 1
        self.fn_inclusive[fn_id] += duration
        self.total_spans += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, fn_id, t0, t1))
        if stack:
            cost = clock() - t_in + self._fn_residual[fn_id]
            stack[-1][2] += cost
            self.overhead_s += cost - duration

    def _book(self, cost: float) -> None:
        """Take ``cost`` seconds of tracer work out of the open span."""
        if self._stack:
            self._stack[-1][2] += cost
            self.overhead_s += cost

    def _code_fn(self, code: types.CodeType, resume: bool = False) -> int:
        fn_id = self._fn_ids.get(code)
        if fn_id is not None:
            return fn_id
        filename = code.co_filename
        qualname = getattr(code, "co_qualname", code.co_name)
        module = module_of_file(filename, self._src)
        if module is not None:
            layer = layer_of_module(module)
        elif filename.startswith(self._bench):
            module, layer = DRIVER, DRIVER
        else:
            module, layer = os.path.basename(filename), UNATTRIBUTED
        return self._fn(code, f"{module}:{qualname}", layer, resume)

    # ------------------------------------------------------------------ #
    # Wrappers

    def _span_wrapper(self, fn: Callable, fn_id: int, tally=None) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # Time each resume of the generator it returns.
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                return tracer.wrap_generator(fn(*args, **kwargs), fn_id)
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame = tracer._enter(fn_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if tally is not None:
                tracer.counts[tally[0]] = (
                    tracer.counts.get(tally[0], 0) + int(tally[1](result))
                )
            return result
        return wrapper

    def _count_wrapper(self, fn: Callable, counter: Optional[str], tally=None) -> Callable:
        # Counted calls are the hottest in the program, so the wrapper is
        # as thin as it can be: no recording check (root() resets and
        # snapshots the cells) and no *args for one-argument methods.
        if counter is None:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if self.recording and tally[1](result):
                    self.counts[tally[0]] = self.counts.get(tally[0], 0) + 1
                return result
            return functools.wraps(fn)(wrapper)
        cell = self._cells.setdefault(counter, [0])
        if len(inspect.signature(fn).parameters) == 1:
            def wrapper(arg):
                cell[0] += 1
                return fn(arg)
        else:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapper)

    def wrap_generator(self, generator: Any, fn_id: Optional[int] = None) -> Any:
        """A forwarding generator timing each resume of ``generator``.

        Without ``fn_id`` the generator is a simulator process: its
        resumes count as engine resumes and its time goes to the module
        that defined its code.
        """
        if not isinstance(generator, types.GeneratorType):
            return generator
        process = fn_id is None
        if process:
            fn_id = self._code_fn(generator.gi_code, resume=True)
        timed = _forward(self, generator, fn_id, process)
        timed.__name__ = generator.__name__
        timed.__qualname__ = generator.__qualname__
        return timed

    def wrap_callback(self, callback: Callable[[], object]) -> Callable[[], object]:
        code = _code_of(callback)
        if code is None:
            return callback
        fn_id = self._code_fn(code)
        tracer = self

        def timed_callback():
            if not tracer.recording:
                return callback()
            frame = tracer._enter(fn_id)
            try:
                return callback()
            finally:
                tracer._exit(frame)
        return timed_callback

    # ------------------------------------------------------------------ #
    # Installation

    def calibrate(self) -> None:
        """Measure :attr:`residuals` on a no-op function and generator.

        Each is timed bare and then wrapped by a scratch tracer, back to
        back; the residual is the extra time per call beyond what that
        tracer booked as overhead.  The median over rounds resists host
        noise.
        """
        probe = Tracer("")

        def noop(_):
            return None

        def ticks():
            while True:
                yield

        calls, rounds = 10_000, 5  # ~0.2 s
        call_id = probe._fn("noop", "noop", UNATTRIBUTED)
        resume_id = probe._fn("ticks", "ticks", UNATTRIBUTED, resume=True)
        samples: Tuple[List[float], List[float]] = ([], [])
        for _ in range(rounds):
            pairs = (
                (noop, probe._span_wrapper(noop, call_id)),
                (ticks().send, probe.wrap_generator(ticks(), resume_id).send),
            )
            for kind, (bare, wrapped) in enumerate(pairs):
                start = clock()
                for _ in range(calls):
                    bare(None)
                bare_s = clock() - start
                with probe.root():
                    booked = probe.overhead_s
                    start = clock()
                    for _ in range(calls):
                        wrapped(None)
                    wrapped_s = clock() - start
                    booked = probe.overhead_s - booked
                samples[kind].append((wrapped_s - bare_s - booked) / calls)
        call, resume = (max(0.0, statistics.median(s)) for s in samples)
        self.residuals = (call, resume)

    def install(self) -> List[str]:
        """Calibrate, then patch every boundary; returns the targets that
        no longer exist."""
        self.calibrate()
        missing: List[str] = []
        targets = [(t, "span") for t in BOUNDARIES] + [(t, "count") for t in COUNTED]
        for target, mode in targets:
            try:
                owner, name, raw = _resolve(target)
            except (ImportError, LookupError):
                missing.append(target)
                continue
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not callable(fn):
                missing.append(target)
                continue
            tally = TALLIES.get(target)
            if mode == "span":
                module = getattr(fn, "__module__", target.split(":")[0])
                fn_id = self._fn(
                    target, target, layer_of_module(module),
                    resume=inspect.isgeneratorfunction(fn),
                )
                new = self._span_wrapper(fn, fn_id, tally)
            else:
                new = self._count_wrapper(fn, COUNTED[target], tally)
            if isinstance(raw, staticmethod):
                new = staticmethod(new)
            elif isinstance(raw, classmethod):
                new = classmethod(new)
            self._patch(owner, name, raw, new)
            if isinstance(owner, types.ModuleType):
                self._rebind_imports(raw, new)
        self._patch_engine()
        return missing

    def _patch(self, owner: Any, name: str, old: Any, new: Any) -> None:
        setattr(owner, name, new)
        self._undo.append(lambda: setattr(owner, name, old))

    def _rebind_imports(self, old: Any, new: Any) -> None:
        """Re-point every ``from module import fn`` binding in the checkout."""
        for module in list(sys.modules.values()):
            path = getattr(module, "__file__", None) or ""
            if not path.startswith((self._src, self._bench)):
                continue
            for name, value in list(vars(module).items()):
                if value is old:
                    self._patch(module, name, old, new)

    def _patch_engine(self) -> None:
        from repro.sim.engine import Simulator

        tracer = self
        process, call_at = Simulator.process, Simulator.call_at

        # Wrapping happens inside the caller's span; book it as overhead.
        @functools.wraps(process)
        def traced_process(sim, generator, name=""):
            t_in = clock()
            generator = tracer.wrap_generator(generator)
            tracer._book(clock() - t_in)
            return process(sim, generator, name=name)

        @functools.wraps(call_at)
        def traced_call_at(sim, when, callback):
            t_in = clock()
            callback = tracer.wrap_callback(callback)
            tracer._book(clock() - t_in)
            return call_at(sim, when, callback)

        self._patch(Simulator, "process", process, traced_process)
        self._patch(Simulator, "call_at", call_at, traced_call_at)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextmanager
    def root(self) -> Iterator[None]:
        """Record spans while the timed body runs, under one root span."""
        for cell in self._cells.values():
            cell[0] = 0
        self.recording = True
        frame = self._enter(0)
        try:
            yield
        finally:
            self._exit(frame)
            self.recording = False
            self.root_s = self.fn_inclusive[0]
            for counter, cell in self._cells.items():
                self.counts[counter] = cell[0]

    # ------------------------------------------------------------------ #
    # Results

    def _calls(self, targets: Sequence[str]) -> int:
        return sum(self.fn_calls[self._fn_ids[t]] for t in targets if t in self._fn_ids)

    def _inclusive(self, targets: Sequence[str]) -> float:
        return sum(
            self.fn_inclusive[self._fn_ids[t]] for t in targets if t in self._fn_ids
        )

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric of :data:`METRIC_UNITS` but :data:`RUN_LEVEL`.

        Shares are of the root span less the tracer's measured overhead,
        i.e. of the time the traced program itself ran.
        """
        total = (self.root_s - self.overhead_s) or 1e-12
        out: Dict[str, float] = {}
        for index, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self.layer_self[index]
            out[f"{layer}.share"] = self.layer_self[index] / total
            out[f"{layer}.calls"] = self.layer_calls[index]
        engine = self.layer_self[self._layer_index["sim.engine"]]
        out["sim.engine.resumes"] = self.resumes
        out["sim.engine.us_per_resume"] = (
            engine / self.resumes * 1e6 if self.resumes else 0.0
        )
        places = self._calls(PLACE)
        out["cluster.scheduler.place_calls"] = places
        out["cluster.scheduler.place_hit_rate"] = (
            self.counts.get("place_hits", 0) / places if places else 0.0
        )
        out["cluster.scheduler.us_per_place"] = (
            self._inclusive(PLACE) / places * 1e6 if places else 0.0
        )
        out["cluster.worker.available_calls"] = self.counts.get(
            "cluster.worker.available_calls", 0
        )
        checks = self.counts.get("vcu.should_disable_calls", 0)
        out["vcu.should_disable_calls"] = checks
        out["vcu.disable_yield"] = (
            self.counts.get("vcus_disabled", 0) / checks if checks else 0.0
        )
        out["failures.sweeps"] = self._calls(
            ["repro.failures.management:FailureManager.sweep"]
        )
        out["control.submits"] = self._calls(["repro.control.plane:ControlPlane.submit"])
        out["control.ledger_transitions"] = self._calls(
            ["repro.control.queue:JobLedger.transition"]
        )
        out["obs.emits"] = self._calls(["repro.obs:Observability.emit"])
        out["obs.spans_recorded"] = self.counts.get("obs.spans_recorded", 0)
        out["obs.export_s"] = self._inclusive(EXPORT)
        frame = ["repro.codec.encoder:Encoder.encode_frame"]
        frames = self._calls(frame)
        out["codec.us_per_frame"] = (
            self._inclusive(frame) / frames * 1e6 if frames else 0.0
        )
        out["trace.spans"] = self.total_spans
        out["unattributed.share"] = self.layer_self[len(LAYERS)] / total
        return out

    def write_spans(self, path: str) -> int:
        """Dump the retained spans as JSON lines, times relative to the root."""
        base = min((span[3] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, fn_id, t0, t1 in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "fn": self.fns[fn_id],
                    "layer": self.layer_name(fn_id),
                    "t0": t0 - base, "t1": t1 - base,
                }) + "\n")
        return len(self.spans)

    def layer_name(self, fn_id: int) -> str:
        index = self._fn_layer[fn_id]
        return LAYERS[index] if index < len(LAYERS) else UNATTRIBUTED


def _forward(tracer: Tracer, generator: Any, fn_id: int, process: bool) -> Any:
    """Forward ``send``/``throw``/``close`` to ``generator``, one span per resume."""
    send, throw = generator.send, generator.throw
    value: Any = None
    error: Optional[BaseException] = None
    while True:
        frame = None
        if tracer.recording:
            tracer.resumes += process
            frame = tracer._enter(fn_id)
        try:
            yielded = send(value) if error is None else throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            if frame is not None:
                tracer._exit(frame)
        error = None
        try:
            value = yield yielded
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as thrown:  # forwarded, e.g. a watchdog Interrupt
            error = thrown


def _code_of(callback: Callable) -> Optional[types.CodeType]:
    target = getattr(callback, "__func__", callback)
    target = getattr(target, "func", target)  # functools.partial
    return getattr(target, "__code__", None)
