"""Golden run directories: every artifact file of a fixed set of runs must
hash to the sha256 digest recorded in ``tests/data/golden_runs.json``.

This pins behaviour-preserving refactors to byte-identical output across
the round branches (hypotheses, restart, fallback, baseline mode) and the
parallel merge order.  After an intended change of behaviour, regenerate
the manifest with::

    PYTHONPATH=src python tests/test_golden_runs.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from vistaopt import run
from vistaopt.backends.synthetic import SyntheticBackend, SyntheticWorldConfig, make_synthetic_dataset
from vistaopt.domain import RunConfig, default_taxonomy, load_seed_prompt

from test_evaluation import ThreadRecordingBackend

MANIFEST = Path(__file__).parent / "data" / "golden_runs.json"

# Every run uses the defective seed, rng_seed 0 and a 50/50 synthetic dataset.
CONFIGS = {
    "vista-b500-parallel1": dict(budget=500, max_parallel=1),
    "vista-b500-parallel4": dict(budget=500, max_parallel=4),
    "baseline-b800": dict(mode="baseline", budget=800),
    "restart-p0.7-b800": dict(p=0.7, budget=800),
    "free-K5-eps0.8-b800": dict(K=5, epsilon=0.8, budget=800),
}


def run_digests(name: str, out_dir: Path, wrap=lambda backend: backend) -> dict[str, str]:
    dataset = make_synthetic_dataset(50, 50)
    taxonomy = default_taxonomy()
    backend = wrap(SyntheticBackend(SyntheticWorldConfig(), dataset, taxonomy, run_seed=0))
    run(RunConfig(rng_seed=0, **CONFIGS[name]), dataset, taxonomy, backend,
        load_seed_prompt("defective"), out_dir=out_dir)
    return {path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


def assert_matches_manifest(name: str, actual: dict[str, str]) -> None:
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))[name]
    missing = sorted(set(expected) - set(actual))
    unexpected = sorted(set(actual) - set(expected))
    assert not missing and not unexpected, (
        f"{name}: missing files {missing}, unexpected files {unexpected}")
    changed = [f for f in expected if actual[f] != expected[f]]
    assert not changed, f"{name}: files differ from the golden manifest: {changed}"


@pytest.mark.parametrize("name", list(CONFIGS))
def test_run_directory_matches_golden_manifest(name, tmp_path):
    assert_matches_manifest(name, run_digests(name, tmp_path / name))


def test_pooled_dispatch_matches_golden_manifest(tmp_path):
    """The synthetic backend is dispatched serially; behind a wrapper that
    hides ``in_process`` the same run takes the thread pool, and its merge
    order must reproduce the same bytes."""
    name = "vista-b500-parallel4"
    threads = set()
    actual = run_digests(name, tmp_path / name,
                         wrap=lambda backend: ThreadRecordingBackend(backend, threads))
    assert_matches_manifest(name, actual)
    assert len(threads) > 1


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {name: run_digests(name, Path(tmp) / name) for name in CONFIGS}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(len(v) for v in manifest.values())} digests to {MANIFEST}", file=sys.stderr)
