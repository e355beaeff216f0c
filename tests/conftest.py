"""Shared fixtures plus the CI shard splitter.

Fixtures: small, fast synthetic videos for codec-level tests.

Golden scorecard keys: :func:`golden_scorecard_keys` reads
``tests/golden/scorecard_keys.json``, the reviewed key set of every
catalog experiment's scorecard.  The scenario code names each key only
where it builds the card, so this file is the one contract the tests
and the CI smoke gate hold every real card to.  Changing a key set is a
deliberate, reviewed change: edit the golden file *and* bump the
scenario's ``SCORECARD_VERSION``.

Sharding: when ``REPRO_TEST_SHARD=<index>/<total>`` is set (1-based
index), collection keeps only the test files assigned to that shard by
the committed ``tests/shards.json`` manifest, so CI can fan the tier-1
suite out across parallel jobs.  Files the manifest does not know about
fall back to a stable hash of their basename -- a brand-new test file
runs in exactly one shard without touching the manifest, and the three
shards always partition the suite.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

import pytest

from repro.video.content import ContentSpec, SyntheticVideo

SHARD_ENV_VAR = "REPRO_TEST_SHARD"
SHARDS_MANIFEST = Path(__file__).resolve().parent / "shards.json"
GOLDEN_SCORECARD_KEYS = (
    Path(__file__).resolve().parent / "golden" / "scorecard_keys.json"
)


def golden_scorecard_keys() -> dict:
    """Catalog experiment name -> its scorecard's sorted key tuple."""
    golden = json.loads(GOLDEN_SCORECARD_KEYS.read_text(encoding="utf-8"))
    return {name: tuple(keys) for name, keys in golden.items()}


def load_shard_manifest(path: Path = SHARDS_MANIFEST) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def shard_of(basename: str, manifest: dict, total: int) -> int:
    """The 1-based shard a test file runs in.

    Manifest assignments apply only when the manifest was built for this
    shard count; otherwise (and for unlisted files) a stable CRC32 of
    the basename keeps the partition property without coordination.
    """
    if manifest.get("count") == total:
        assigned = manifest.get("assignments", {}).get(basename)
        if assigned is not None:
            return ((int(assigned) - 1) % total) + 1
    return (zlib.crc32(basename.encode("utf-8")) % total) + 1


def parse_shard_spec(spec: str) -> tuple:
    index_text, sep, total_text = spec.partition("/")
    try:
        index, total = int(index_text), int(total_text)
    except ValueError:
        index, total = 0, 0
    if not sep or total < 1 or not 1 <= index <= total:
        raise pytest.UsageError(
            f"{SHARD_ENV_VAR}={spec!r}: expected <index>/<total> with "
            "1 <= index <= total"
        )
    return index, total


def pytest_collection_modifyitems(config, items):
    spec = os.environ.get(SHARD_ENV_VAR)
    if not spec:
        return
    index, total = parse_shard_spec(spec)
    manifest = load_shard_manifest() if SHARDS_MANIFEST.exists() else {}
    kept, deselected = [], []
    for item in items:
        basename = Path(str(item.fspath)).name
        if shard_of(basename, manifest, total) == index:
            kept.append(item)
        else:
            deselected.append(item)
    if deselected:
        config.hook.pytest_deselected(items=deselected)
        items[:] = kept


@pytest.fixture(scope="session")
def tiny_video():
    """A 5-frame, low-resolution-proxy clip with moderate motion."""
    spec = ContentSpec(name="tiny", resolution_name="480p", fps=30, motion=1.0,
                       detail=0.4, noise=1.0, sprites=3)
    return SyntheticVideo(spec, seed=7, proxy_height=36).video(5)


@pytest.fixture(scope="session")
def static_video():
    """A 5-frame, nearly static clip (easy content)."""
    spec = ContentSpec(name="static", resolution_name="480p", fps=30, motion=0.0,
                       detail=0.2, noise=0.0, sprites=1)
    return SyntheticVideo(spec, seed=3, proxy_height=36).video(5)


@pytest.fixture(scope="session")
def noisy_video():
    """A 6-frame noisy, high-motion clip (hard content)."""
    spec = ContentSpec(name="noisy", resolution_name="480p", fps=30, motion=2.5,
                       detail=0.8, noise=3.0, sprites=6)
    return SyntheticVideo(spec, seed=11, proxy_height=36).video(6)
