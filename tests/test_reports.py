import csv
import io
import json

import pytest

from vistaopt.backends.synthetic import SyntheticBackend, SyntheticWorldConfig, make_synthetic_dataset
from vistaopt.domain import RunConfig, Taxonomy, TaxonomyEntry, default_taxonomy, load_seed_prompt
from vistaopt.errors import MissingArtifactsError
from vistaopt.optimizer import run
from vistaopt.reports import (
    ReportBundle,
    build_attribution_histogram,
    build_report,
    find_oscillations,
    read_run,
    write_report,
)
from vistaopt.trace import SemanticTraceTree, TraceEdge, TraceNode


def check_invariants(bundle):
    """The best curve's metric calls strictly increase and its best accuracy
    never falls."""
    calls = [c for c, _ in bundle.best_curve]
    accs = [a for _, a in bundle.best_curve]
    if any(b <= a for a, b in zip(calls, calls[1:])):
        raise AssertionError("metric calls must strictly increase")
    if any(b < a for a, b in zip(accs, accs[1:])):
        raise AssertionError("best accuracy must be non-decreasing")


def oscillating_tree():
    tree = SemanticTraceTree.with_root(TraceNode(id=0, val_accuracy=0.3))
    labels = ["A", "B", "A", "B"]
    for i, label in enumerate(labels, start=1):
        tree.record_proposal(
            TraceEdge(from_id=i - 1, to_id=i, label=label, delta_minibatch=1,
                      status="accepted", iteration=i, origin="heuristic",
                      delta_val_pp=2.0),
            TraceNode(id=i, val_accuracy=0.3 + 0.02 * i))
    return tree


def test_find_oscillations_on_alternating_chain():
    events = find_oscillations(oscillating_tree())
    assert events == [{"node": 4, "iteration": 4, "labels": ["A", "B"]}]


def test_find_oscillations_respects_joint_fix():
    tree = SemanticTraceTree.with_root(TraceNode(id=0, val_accuracy=0.3))
    for i, label in enumerate(["A", "B", "A+B", "A"], start=1):
        tree.record_proposal(
            TraceEdge(from_id=i - 1, to_id=i, label=label, delta_minibatch=1,
                      status="accepted", iteration=i, origin="heuristic",
                      delta_val_pp=1.0),
            TraceNode(id=i, val_accuracy=0.4))
    assert find_oscillations(tree) == []


def test_attribution_histogram_includes_all_taxonomy_labels(taxonomy):
    tree = oscillating_tree()
    histogram = build_attribution_histogram(tree, taxonomy)
    for tid in taxonomy.ids:
        assert histogram[tid] == {"accepted": 0, "rejected": 0}
    assert histogram["A"] == {"accepted": 2, "rejected": 0}
    assert histogram["B"] == {"accepted": 2, "rejected": 0}


def test_outside_labels_are_escaped_in_attribution_csv_and_dot(tmp_path):
    quoted, comma = 'say "why"', "format, syntax"
    joint, free = "cot_field_ordering+format_and_syntax", "free:tone"
    taxonomy = Taxonomy(entries=tuple(TaxonomyEntry(id=i, name=i, description=i)
                                      for i in (quoted, comma, "cot_field_ordering")))
    tree = SemanticTraceTree.with_root(TraceNode(id=0, val_accuracy=0.3))
    tree.record_proposal(
        TraceEdge(from_id=0, to_id=1, label=quoted, delta_minibatch=1, status="accepted",
                  iteration=1, origin="heuristic", delta_val_pp=10.0),
        TraceNode(id=1, val_accuracy=0.4))
    for i, label in enumerate((comma, joint, free), start=2):
        tree.record_proposal(
            TraceEdge(from_id=1, to_id=i, label=label, delta_minibatch=0, status="rejected",
                      iteration=i, origin="heuristic"),
            TraceNode(id=i, correct_count=1, minibatch_size=8))
    write_report(tmp_path, ReportBundle(best_curve=[(0, 0.3)],
                                        attribution_histogram=build_attribution_histogram(tree, taxonomy)))
    text = (tmp_path / "attribution.csv").read_text(encoding="utf-8")
    rows = list(csv.reader(io.StringIO(text)))
    assert all(len(row) == 3 for row in rows)
    assert [row[0] for row in rows] == ["label", quoted, comma, "cot_field_ordering", joint, free]
    # Plain labels are written as before, unquoted.
    assert text.splitlines()[3:] == ["cot_field_ordering,0,0", f"{joint},0,1", f"{free},0,1"]
    dot = tree.to_dot()
    assert '"0" -> "1" [label="say \\"why\\" +10pp"];' in dot
    assert f'"1" -> "4" [label="{free}", style=dashed];' in dot


@pytest.fixture()
def run_dir(tmp_path):
    dataset = make_synthetic_dataset(50, 50)
    taxonomy = default_taxonomy()
    backend = SyntheticBackend(SyntheticWorldConfig(), dataset, taxonomy, run_seed=0)
    out = tmp_path / "run"
    run(RunConfig(rng_seed=0, budget=300, max_parallel=1), dataset, taxonomy,
        backend, load_seed_prompt("defective"), out_dir=out)
    return out


def test_best_curve_starts_at_seed_and_tracks_ledger(run_dir):
    _, curve = read_run(run_dir)
    assert curve[0] == (0, 0.24)
    ledger = json.loads((run_dir / "ledger.json").read_text())
    assert curve[-1][0] == sum(c["amount"] for c in ledger["charges"])
    calls = [c for c, _ in curve]
    accs = [a for _, a in curve]
    assert calls == sorted(calls) and len(set(calls)) == len(calls)
    assert accs == sorted(accs) or all(b >= a for a, b in zip(accs, accs[1:]))


def test_build_report_bundle_invariants(run_dir, taxonomy):
    bundle = build_report(run_dir, taxonomy)
    check_invariants(bundle)
    assert bundle.attribution_histogram["cot_field_ordering"]["accepted"] >= 1


def test_build_report_parses_the_trace_once(run_dir, taxonomy, monkeypatch):
    parses = []
    from_dict = SemanticTraceTree.from_dict
    monkeypatch.setattr(SemanticTraceTree, "from_dict",
                        classmethod(lambda cls, data: parses.append(data) or from_dict(data)))
    build_report(run_dir, taxonomy)
    assert len(parses) == 1


def test_report_bundle_invariant_violations_detected():
    bad = ReportBundle(best_curve=[(0, 0.5), (10, 0.4)], attribution_histogram={})
    with pytest.raises(AssertionError):
        check_invariants(bad)
    stuck = ReportBundle(best_curve=[(5, 0.5), (5, 0.6)], attribution_histogram={})
    with pytest.raises(AssertionError):
        check_invariants(stuck)


@pytest.mark.parametrize("missing", ["ledger.json", "rounds.jsonl"])
def test_build_report_raises_missing_artifacts(missing, run_dir, taxonomy):
    (run_dir / missing).unlink()
    with pytest.raises(MissingArtifactsError, match=missing):
        build_report(run_dir, taxonomy)


def test_read_run_missing(tmp_path):
    with pytest.raises(MissingArtifactsError):
        read_run(tmp_path)
