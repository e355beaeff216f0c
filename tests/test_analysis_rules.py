"""Fixture-based tests for every rule in ``repro.analysis.rules``.

Each rule gets (at least) one true-positive bad snippet with the finding
asserted by rule-id + line, one clean snippet, and one pragma-suppressed
variant of the bad snippet, per the PR-4 acceptance criteria.
"""

import textwrap

from repro.analysis import analyze_source

SRC_PATH = "src/repro/cluster/fake.py"


def lint(source, path=SRC_PATH):
    findings, suppressed = analyze_source(textwrap.dedent(source), path)
    return findings, suppressed


def lines(findings, rule):
    return [f.line for f in findings if f.rule == rule]


# --------------------------------------------------------------------- #
# determinism


class TestDeterminismRule:
    def test_flags_wall_clock_random_module_and_np_random(self):
        findings, _ = lint(
            """\
            import time
            import random
            import numpy as np
            from datetime import datetime


            def stamp():
                t = time.time()
                r = random.random()
                rng = np.random.default_rng()
                np.random.seed(7)
                d = datetime.now()
                return t, r, rng, d
            """
        )
        assert lines(findings, "determinism") == [2, 8, 9, 10, 11, 12]

    def test_flags_from_imports_of_banned_callables(self):
        findings, _ = lint(
            """\
            from time import perf_counter
            from numpy.random import default_rng


            def sample():
                return default_rng().normal() + perf_counter()
            """
        )
        assert lines(findings, "determinism") == [6, 6]

    def test_clean_generator_passing_style(self):
        findings, _ = lint(
            """\
            import numpy as np

            from repro.sim.rng import make_rng, split_rng


            def arrivals(rng: np.random.Generator, count: int):
                return rng.exponential(1.0, size=count)


            def build(seed):
                return arrivals(split_rng(seed, "arrivals"), 10)
            """
        )
        assert findings == []

    def test_rng_module_itself_is_exempt(self):
        source = """\
            import numpy as np


            def make_rng(seed):
                return np.random.default_rng(seed)
            """
        findings, _ = lint(source, path="src/repro/sim/rng.py")
        assert findings == []
        findings, _ = lint(source, path=SRC_PATH)
        assert lines(findings, "determinism") == [5]

    def test_tests_may_seed_their_own_generators_but_not_wall_clock(self):
        source = """\
            import time

            import numpy as np


            def test_thing():
                rng = np.random.default_rng(0)
                assert rng.random() < 1.0
                assert time.time() > 0
            """
        findings, _ = lint(source, path="tests/test_fake.py")
        assert lines(findings, "determinism") == [9]  # wall clock still banned

    def test_pragma_suppresses_line(self):
        findings, suppressed = lint(
            """\
            import time


            def measure(fn):
                t0 = time.perf_counter()  # lint: allow=determinism -- harness
                fn()
                return time.perf_counter() - t0  # lint: allow=determinism -- harness
            """
        )
        assert findings == []
        assert suppressed == 2


# --------------------------------------------------------------------- #
# obs-hook


class TestObsHookRule:
    def test_flags_module_level_capture(self):
        findings, _ = lint(
            """\
            from repro import obs

            HUB = obs.active()
            """
        )
        assert lines(findings, "obs-hook") == [3]

    def test_flags_chained_use_without_check(self):
        findings, _ = lint(
            """\
            from repro import obs


            def emit(name):
                obs.active().count(name)
            """
        )
        assert lines(findings, "obs-hook") == [5]

    def test_flags_unchecked_local_use(self):
        findings, _ = lint(
            """\
            from repro import obs


            def emit(name):
                hub = obs.active()
                hub.count(name)
            """
        )
        assert lines(findings, "obs-hook") == [6]

    def test_flags_attribute_capture(self):
        findings, _ = lint(
            """\
            from repro import obs


            class Worker:
                def __init__(self):
                    self.hub = obs.active()
            """
        )
        assert lines(findings, "obs-hook") == [6]

    def test_clean_guarded_hook(self):
        findings, _ = lint(
            """\
            from repro import obs


            def emit(name):
                hub = obs.active()
                if hub is not None:
                    hub.count(name)
            """
        )
        assert findings == []

    def test_comparisons_alone_are_not_use(self):
        findings, _ = lint(
            """\
            from repro import obs


            def installed():
                return obs.active() is not None
            """
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings, suppressed = lint(
            """\
            from repro import obs


            def emit(name):
                obs.active().count(name)  # lint: allow=obs-hook -- test shim
            """
        )
        assert findings == []
        assert suppressed == 1


# --------------------------------------------------------------------- #
# sim-yield


class TestSimYieldRule:
    def test_flags_bad_yield_and_blocking_io(self):
        findings, _ = lint(
            """\
            import time


            def step(sim):
                def worker():
                    time.sleep(0.1)
                    yield "done"
                sim.process(worker(), name="w")
            """
        )
        assert lines(findings, "sim-yield") == [6, 7]

    def test_clean_sanctioned_yields(self):
        findings, _ = lint(
            """\
            def step(sim, device):
                def worker():
                    yield 1.5
                    done = sim.event()
                    yield done
                    yield sim.timeout(2.0)
                sim.process(worker(), name="w")
            """
        )
        assert findings == []

    def test_non_process_generators_are_ignored(self):
        findings, _ = lint(
            """\
            def chunks(items):
                for item in items:
                    yield str(item)
            """
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings, suppressed = lint(
            """\
            def step(sim):
                def worker():
                    yield "bad"  # lint: allow=sim-yield -- negative test
                sim.process(worker())
            """
        )
        assert findings == []
        assert suppressed == 1


# --------------------------------------------------------------------- #
# ordered-iteration


class TestOrderedIterationRule:
    def test_flags_set_iteration_forms(self):
        findings, _ = lint(
            """\
            def place(workers, excluded_ids):
                pending = set(workers)
                for worker in pending:
                    print(worker)
                for worker_id in {w.name for w in workers}:
                    print(worker_id)
                return [w for w in set(workers)]
            """
        )
        assert lines(findings, "ordered-iteration") == [3, 5, 7]

    def test_flags_set_attribute_iteration(self):
        findings, _ = lint(
            """\
            class Tracker:
                def __init__(self):
                    self._done = set()

                def drain(self):
                    for item in self._done:
                        print(item)
            """
        )
        assert lines(findings, "ordered-iteration") == [6]

    def test_flags_dict_view_algebra(self):
        findings, _ = lint(
            """\
            def diff(before, after):
                for key in before.keys() - after.keys():
                    print(key)
            """
        )
        assert lines(findings, "ordered-iteration") == [2]

    def test_clean_sorted_and_membership(self):
        findings, _ = lint(
            """\
            def place(workers):
                excluded = set()
                for worker in sorted(set(w.name for w in workers)):
                    if worker in excluded:
                        continue
                    excluded.add(worker)
                return excluded
            """
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings, suppressed = lint(
            """\
            def drain(pending):
                keep = set(pending)
                for item in keep:  # lint: allow=ordered-iteration -- commutative sum
                    print(item)
            """
        )
        assert findings == []
        assert suppressed == 1


# --------------------------------------------------------------------- #
# float-parity


class TestFloatParityRule:
    PARITY_PATH = "tests/test_codec_kernels.py"

    def test_flags_tolerance_comparisons_in_parity_files(self):
        findings, _ = lint(
            """\
            import numpy as np
            import pytest


            def test_parity(fast, reference):
                assert np.allclose(fast, reference)
                np.testing.assert_allclose(fast, reference)
                assert (fast == reference).all()
                assert fast.sum() == pytest.approx(reference.sum())
            """,
            path=self.PARITY_PATH,
        )
        assert lines(findings, "float-parity") == [6, 7, 8, 9]

    def test_array_equal_is_clean(self):
        findings, _ = lint(
            """\
            import numpy as np


            def test_parity(fast, reference):
                assert np.array_equal(fast, reference)
            """,
            path=self.PARITY_PATH,
        )
        assert findings == []

    def test_non_parity_files_may_use_tolerances(self):
        findings, _ = lint(
            """\
            import numpy as np


            def test_psnr(a, b):
                assert np.allclose(a, b, rtol=0.01)
            """,
            path="tests/test_metrics_fake.py",
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings, suppressed = lint(
            """\
            import numpy as np


            def test_setup_noise(a, b):
                assert np.allclose(a, b)  # lint: allow=float-parity -- fixture sanity, not parity
            """,
            path=self.PARITY_PATH,
        )
        assert findings == []
        assert suppressed == 1


# --------------------------------------------------------------------- #
# hygiene


class TestHygieneRule:
    def test_flags_mutable_defaults_and_bare_except(self):
        findings, _ = lint(
            """\
            def enqueue(step, queue=[], meta={}):
                try:
                    queue.append(step)
                except:
                    pass
                return queue, meta
            """
        )
        assert lines(findings, "hygiene") == [1, 1, 4]

    def test_flags_mutable_call_defaults_incl_kwonly(self):
        findings, _ = lint(
            """\
            import collections


            def build(pool=set(), *, index=collections.defaultdict(list)):
                return pool, index
            """
        )
        assert lines(findings, "hygiene") == [4, 4]

    def test_clean_none_defaults_and_typed_except(self):
        findings, _ = lint(
            """\
            def enqueue(step, queue=None):
                if queue is None:
                    queue = []
                try:
                    queue.append(step)
                except ValueError:
                    raise
                return queue
            """
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings, suppressed = lint(
            """\
            def memo(cache={}):  # lint: allow=hygiene -- intentional shared cache
                return cache
            """
        )
        assert findings == []
        assert suppressed == 1

    SELF_REFERRING = """\
        def validate(steps):
            seen = {}

            def visit(step):
                for dep in step.depends_on:
                    visit(dep)

            for step in steps:
                visit(step)


        class Sweeper:
            def start(self, sim):
                def tick():
                    self.sweep()
                    sim.call_in(60.0, tick)

                sim.call_in(60.0, tick)
        """

    def test_flags_nested_function_referring_to_itself(self):
        findings, _ = lint(self.SELF_REFERRING)
        assert lines(findings, "hygiene") == [4, 14]
        assert "'visit' refers to itself" in findings[0].message

    def test_self_referring_closure_outside_the_simulation_code_is_clean(self):
        for path in ("src/repro/analysis/fake.py", "tests/test_fake.py"):
            findings, _ = lint(self.SELF_REFERRING, path=path)
            assert lines(findings, "hygiene") == [], path

    def test_clean_module_level_recursion_and_shadowed_names(self):
        findings, _ = lint(
            """\
            def visit(step, seen):
                for dep in step.depends_on:
                    visit(dep, seen)


            def validate(steps):
                seen = {}

                def walk(step):
                    visit(step, seen)

                def fold(fold, items):
                    return fold(items)

                def relabel(items):
                    relabel = sorted(items)
                    return relabel

                for step in steps:
                    walk(step)
                return fold, relabel
            """
        )
        assert findings == []

    def test_pragma_suppresses_self_referring_closure(self):
        findings, suppressed = lint(
            """\
            def depth(tree):
                def walk(node):  # lint: allow=hygiene -- one tiny tree per run
                    return 1 + max((walk(c) for c in node.children), default=0)

                return walk(tree)
            """
        )
        assert findings == []
        assert suppressed == 1


# --------------------------------------------------------------------- #
# capacity-through-scheduler


class TestCapacityThroughSchedulerRule:
    def test_flags_admits_and_releases_around_the_scheduler(self):
        findings, _ = lint(
            """\
            def drill(worker, vcu, request):
                worker.release(request)
                vcu.try_admit(request)
                worker.vcu.resources.acquire(request)
            """
        )
        assert lines(findings, "capacity-through-scheduler") == [2, 3, 4]

    def test_scheduler_calls_are_clean(self):
        findings, _ = lint(
            """\
            class Cluster:
                def finish(self, worker, request):
                    self.vcu_scheduler.release(worker, request)
            """
        )
        assert findings == []

    def test_out_of_scope_paths_are_ignored(self):
        barrier = """\
            class Dispatcher:
                def segment_done(self, index, now):
                    self.assembler.release(index, at=now)
            """
        assert lint(barrier, path="src/repro/transcode/fake.py")[0] == []
        direct = """\
            def test_release(worker, request):
                worker.release(request)
            """
        assert lint(direct, path="tests/test_fake.py")[0] == []

    def test_pragma_suppresses(self):
        findings, suppressed = lint(
            """\
            def drill(worker, request):
                worker.release(request)  # lint: allow=capacity-through-scheduler -- drill
            """
        )
        assert findings == []
        assert suppressed == 1
