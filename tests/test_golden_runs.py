"""Golden run directories: every artifact file of a fixed set of runs must
hash to the sha256 digest recorded in ``tests/data/golden_runs.json``, and
the agent requests of each run, in call order, to the digest in
``PROMPT_DIGESTS``.

This pins behaviour-preserving refactors to byte-identical output and
agent prompts across the round branches (hypotheses, restart, fallback,
baseline mode) and the parallel merge order.  After an intended change of
behaviour, regenerate the manifest, and print the prompt digests to paste
into ``PROMPT_DIGESTS``, with::

    PYTHONPATH=src python tests/test_golden_runs.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from vistaopt import run
from vistaopt.artifacts import json_line, json_text
from vistaopt.backends.synthetic import SyntheticBackend, SyntheticWorldConfig, make_synthetic_dataset
from vistaopt.domain import RunConfig, default_taxonomy, load_seed_prompt, read_record
from vistaopt.optimizer import BudgetLedger, ProposalRecord, RoundOutcome, fold_round
from vistaopt.trace import SemanticTraceTree, export_tree, import_tree

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

# (agent requests, sha256 of ``role NUL text NUL`` per request in call order)
PROMPT_DIGESTS = {
    "vista-b500-parallel1":
        (72, "2bc30959da37926868c676a1d9b6afe4d629dc2cf87e53bbd5274bf920ce9ee6"),
    "vista-b500-parallel4":
        (72, "2bc30959da37926868c676a1d9b6afe4d629dc2cf87e53bbd5274bf920ce9ee6"),
    "baseline-b800":
        (100, "6e691f50097c24dda793426f9e595294068670b60595120215c2c461e4bfcbdf"),
    "restart-p0.7-b800":
        (99, "bf4b27566a76612b8b4d7daed1943859a32807f46862d4e9132933ad97cbf7e3"),
    "free-K5-eps0.8-b800":
        (109, "527ba9c6d0027da7d3ef460131f1a8dbc04962c46016479194a01a3b2c9829e8"),
}


class PromptRecorder:
    """Forwards to ``inner``, declaring what it declares, and hashes every
    agent request in call order."""

    def __init__(self, inner):
        self.inner = inner
        self.in_process = getattr(inner, "in_process", False)
        self.deterministic = getattr(inner, "deterministic", False)
        self.requests = 0
        self.sha = hashlib.sha256()

    def generate(self, request):
        if request.role != "base":
            self.requests += 1
            self.sha.update((request.role + "\0" + request.text() + "\0").encode("utf-8"))
        return self.inner.generate(request)


def golden_run(name: str, out_dir: Path | None = None, wrap=lambda backend: backend):
    """Run config ``name`` and return its backend as wrapped."""
    dataset = make_synthetic_dataset(50, 50)
    taxonomy = default_taxonomy()
    backend = wrap(SyntheticBackend(SyntheticWorldConfig(), dataset, taxonomy, run_seed=0))
    run(RunConfig(rng_seed=0, **CONFIGS[name]), dataset, taxonomy, backend,
        load_seed_prompt("defective"), out_dir=out_dir)
    return backend


def prompt_digest(name: str) -> tuple[int, str]:
    recorder = golden_run(name, wrap=PromptRecorder)
    return recorder.requests, recorder.sha.hexdigest()


def run_digests(name: str, out_dir: Path, wrap=lambda backend: backend) -> dict[str, str]:
    golden_run(name, out_dir, wrap)
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


@pytest.mark.parametrize("name", list(CONFIGS))
def test_run_files_read_back_to_the_same_bytes(name, tmp_path):
    """Each file read through its dataclass and written again is unchanged,
    so the reader and the writer agree on every field."""
    golden_run(name, tmp_path)
    trace, ledger, journal = (
        (tmp_path / file).read_text(encoding="utf-8")
        for file in ("trace.json", "ledger.json", "rounds.jsonl"))
    assert export_tree(import_tree(trace), "json") == trace
    assert json_text(read_record(BudgetLedger, json.loads(ledger))) == ledger
    outcomes = [read_record(RoundOutcome, json.loads(line)) for line in journal.splitlines()]
    assert [json_line(o) for o in outcomes] == journal.splitlines(keepends=True)
    assert all(type(o.minibatch) is tuple and all(type(p) is ProposalRecord for p in o.proposals)
               for o in outcomes)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_folding_the_journal_writes_the_snapshots(name, tmp_path):
    """Folding ``rounds.jsonl`` from the seed's node, with each winner's
    ``val_accuracy`` from ``trace.json``, gives ``trace.json`` and
    ``ledger.json`` byte for byte."""
    golden_run(name, tmp_path)
    trace, ledger, journal = (
        (tmp_path / file).read_text(encoding="utf-8")
        for file in ("trace.json", "ledger.json", "rounds.jsonl"))
    stored = import_tree(trace)
    tree = SemanticTraceTree.with_root(stored.nodes[stored.root])
    folded = BudgetLedger(initial=CONFIGS[name]["budget"], remaining=CONFIGS[name]["budget"])
    for line in journal.splitlines():
        outcome = read_record(RoundOutcome, json.loads(line))
        winner = stored.nodes.get(outcome.winner)
        fold_round(tree, folded, outcome, winner.val_accuracy if winner else None)
    assert export_tree(tree, "json") == trace
    assert json_text(folded) == ledger


@pytest.mark.parametrize("name", list(CONFIGS))
def test_agent_prompts_match_golden_digests(name):
    """Every hypothesis and reflection request, the failure blocks included,
    is byte-identical to the recorded run's."""
    assert prompt_digest(name) == PROMPT_DIGESTS[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {name: run_digests(name, Path(tmp) / name) for name in CONFIGS}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(len(v) for v in manifest.values())} digests to {MANIFEST}", file=sys.stderr)
    print("PROMPT_DIGESTS = {")
    for name in CONFIGS:
        print(f"    {name!r}:\n        {prompt_digest(name)!r},")
    print("}")
