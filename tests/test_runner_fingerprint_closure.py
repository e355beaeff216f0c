"""An experiment's cache fingerprint covers every file its units run.

The result cache serves a unit from disk while the unit's fingerprint is
unchanged, so the fingerprint must hash every source file whose edit can
change the unit's result.  Two checks hold the cache to that:

* Proof: for each registered experiment, a fresh interpreter imports the
  registry, then runs unit 0 of the smoke grid and the experiment's
  summary under ``sys.setprofile``.  Every ``src/`` file that ran a
  frame must be in the experiment's fingerprint closure.  Horizons and
  frame counts are shrunk (the scenario values are bench/suite.py's
  ``TINY_CATALOG_UNITS``); the shrunk units run the same files as the
  smoke-size ones.
* Regression: in a copy of ``src/``, editing the code that builds a
  scenario unit (``runner/experiments.py``) and then one value of its
  grid (``control/catalog.py``) each move platform-day's fingerprint.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.analysis.project import load_project
from repro.runner import default_registry
from repro.runner.cache import closure_roots, repo_root, source_hashes
from repro.runner.executor import run_experiments

ROOT = repo_root()

#: Grid overrides that shrink unit 0 without changing the files it runs.
SHRINK = {
    "canary-rollout": {"horizon_seconds": 12.0},
    "chaos-campaign": {"horizon_seconds": 60.0},
    "live-ladder": {"horizon_seconds": 60.0},
    "platform-day": {"day_seconds": 120.0},
    "surge-mix": {"day_seconds": 120.0},
    "tuning-timeline": {"horizon_seconds": 10.0},
    "fig7-bd-rates": {"frames": 2, "proxy_height": 36},
}

#: Runs one experiment's unit 0 and summary; prints the files that ran.
PROBE = """\
import json
import sys
from dataclasses import replace

from repro.runner.experiments import default_registry

experiment = default_registry().get(sys.argv[1])
unit = experiment.units(smoke=True)[0]
unit = replace(unit, params=dict(unit.params, **json.loads(sys.argv[2])))
ran = set()


def profile(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code.co_filename)


sys.setprofile(profile)
try:
    experiment.summary_rows([experiment.run_unit(unit)])
finally:
    sys.setprofile(None)
print(json.dumps(sorted(ran)))
"""


@pytest.fixture(scope="module")
def project():
    project, errors = load_project(ROOT)
    assert not errors
    return project


def files_run(name):
    """Repo-relative ``src/`` files that ran a frame in ``name``'s probe."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, name, json.dumps(SHRINK.get(name, {}))],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    src = ROOT / "src"
    ran = set()
    for filename in json.loads(proc.stdout):
        path = (ROOT / filename).resolve()
        if src in path.parents:
            ran.add(path.relative_to(ROOT).as_posix())
    return ran


@pytest.mark.parametrize("name", default_registry().names())
def test_every_file_a_unit_runs_is_in_its_fingerprint(name, project):
    experiment = default_registry().get(name)
    closure = set(source_hashes(project, closure_roots(experiment)))
    ran = files_run(name)
    assert "src/repro/runner/registry.py" in ran  # the probe saw the unit
    assert sorted(ran - closure) == []


class _ServeEverything:
    """A cache holding a result for every fingerprint: the run computes
    each unit's fingerprint and runs no unit."""

    hits = misses = errors = 0

    def get(self, experiment, fingerprint):
        return {"outage": False, "scorecard": {}}

    def put(self, *args):
        raise AssertionError("a unit ran")


def platform_day_fingerprint(root):
    result = run_experiments(
        default_registry(), names=["platform-day"], cache=_ServeEverything(),
        root=str(root), smoke=True,
    )
    return result.runs[0].fingerprints[0]


def edit(path, old, new):
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1, old
    path.write_text(text.replace(old, new), encoding="utf-8")


def test_unit_builder_and_grid_edits_move_the_fingerprint(tmp_path):
    shutil.copytree(
        ROOT / "src", tmp_path / "src",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    base = platform_day_fingerprint(tmp_path)
    assert platform_day_fingerprint(tmp_path) == base

    edit(
        tmp_path / "src/repro/runner/experiments.py",
        "card = run(config, seed=seed).scorecard",
        "card = run(config, seed=seed + 1).scorecard",
    )
    builder_edited = platform_day_fingerprint(tmp_path)
    assert builder_edited != base

    edit(
        tmp_path / "src/repro/control/catalog.py",
        '"scenario_seed": PLATFORM_DAY_SEED,',
        '"scenario_seed": PLATFORM_DAY_SEED + 1,',
    )
    assert platform_day_fingerprint(tmp_path) not in (base, builder_edited)
