"""Plot-ready report data derived from a completed run directory: the
best-score-to-date curve, the attribution histogram, and oscillation
events."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TypeVar

from .artifacts import json_text, write_atomic
from .domain import Taxonomy, read_record
from .errors import MissingArtifactsError
from .optimizer import BudgetLedger, Charge, RoundOutcome
from .trace import ACCEPTED, SemanticTraceTree, detect_oscillation, import_tree

T = TypeVar("T")


@dataclass
class ReportBundle:
    # (cumulative metric calls, best val accuracy) per charged round,
    # starting at the seed point.
    best_curve: list[tuple[int, float]]
    # label -> {"accepted": n, "rejected": n}; every taxonomy label is
    # present even when its counts are zero.
    attribution_histogram: dict[str, dict[str, int]]
    oscillation_events: list[dict] = field(default_factory=list)


def read_artifact(run_dir: str | Path, name: str, parse: Callable[[str], T]) -> T:
    """``parse`` applied to the text of the run file ``name``.  A missing
    file, or one that ``parse`` rejects, is a missing artifact; callers do
    all their key access inside ``parse``."""
    path = Path(run_dir) / name
    if not path.is_file():
        raise MissingArtifactsError(f"{name} not found in {run_dir}")
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (ValueError, KeyError, TypeError) as exc:
        raise MissingArtifactsError(
            f"{name} in {run_dir} is malformed: {type(exc).__name__}: {exc}") from exc


def load_trace(run_dir: str | Path) -> SemanticTraceTree:
    return read_artifact(run_dir, "trace.json", import_tree)


def build_best_curve(run_dir: Path, trace: SemanticTraceTree) -> list[tuple[int, float]]:
    """The curve from the run's journal, whose rounds' (iteration, branch,
    charge) must be the ledger's charges in order, and from ``trace``, its
    parsed ``trace.json``.  The ledger's ``remaining`` must be its
    ``initial`` minus those charges."""
    ledger = read_artifact(run_dir, "ledger.json",
                           lambda text: read_record(BudgetLedger, json.loads(text)))
    # The journal's lines are in iteration order.
    outcomes = read_artifact(run_dir, "rounds.jsonl", lambda text: [
        read_record(RoundOutcome, json.loads(line)) for line in text.splitlines()])
    rounds = [Charge(o.iteration, o.branch, o.charge) for o in outcomes]
    if ledger.charges != rounds:
        at, charge, journal = next((at, c, r) for at, (c, r) in enumerate(
            zip(ledger.charges + ["nothing"], rounds + ["nothing"])) if c != r)
        raise MissingArtifactsError(
            f"ledger.json in {run_dir} does not match rounds.jsonl: charge number {at + 1} "
            f"is {charge} in the ledger but {journal} in the journal")
    spent = sum(c.amount for c in rounds)
    if ledger.remaining != ledger.initial - spent:
        raise MissingArtifactsError(
            f"ledger.json in {run_dir}: remaining {ledger.remaining} is not initial "
            f"{ledger.initial} minus the {spent} that rounds.jsonl charges")

    seed_accuracy = trace.nodes[trace.root].val_accuracy or 0.0
    best = seed_accuracy
    curve = [(0, seed_accuracy)]
    calls = 0
    best_by_id = {
        nid: node.val_accuracy for nid, node in trace.nodes.items()
        if node.val_accuracy is not None
    }
    for outcome in outcomes:
        if outcome.charge == 0:
            continue
        calls += outcome.charge
        if outcome.best_updated and outcome.winner is not None:
            best = max(best, best_by_id.get(outcome.winner, best))
        curve.append((calls, best))
    return curve


def build_attribution_histogram(tree: SemanticTraceTree,
                                taxonomy: Taxonomy) -> dict[str, dict[str, int]]:
    histogram: dict[str, dict[str, int]] = {
        tid: {"accepted": 0, "rejected": 0} for tid in taxonomy.ids
    }
    for edge in tree.edges:
        bucket = histogram.setdefault(edge.label, {"accepted": 0, "rejected": 0})
        bucket["accepted" if edge.status == ACCEPTED else "rejected"] += 1
    return histogram


def find_oscillations(tree: SemanticTraceTree, window: int = 4) -> list[dict]:
    events = []
    for node_id in tree.nodes:
        trajectory = tree.trajectory(node_id)
        if not trajectory or trajectory[-1].status != ACCEPTED:
            continue
        pair = detect_oscillation(trajectory, window)
        if pair is None:
            continue
        events.append({
            "node": node_id,
            "iteration": trajectory[-1].iteration,
            "labels": list(pair),
        })
    return sorted(events, key=lambda e: (e["iteration"], e["node"]))


def build_report(run_dir: str | Path, taxonomy: Taxonomy) -> ReportBundle:
    run_dir = Path(run_dir)
    tree = load_trace(run_dir)
    return ReportBundle(
        best_curve=build_best_curve(run_dir, tree),
        attribution_histogram=build_attribution_histogram(tree, taxonomy),
        oscillation_events=find_oscillations(tree),
    )


def write_report(run_dir: str | Path, bundle: ReportBundle) -> None:
    run_dir = Path(run_dir)
    lines = ["metric_calls,best_val_accuracy"]
    for calls, acc in bundle.best_curve:
        lines.append(f"{calls},{acc:.6f}")
    write_atomic(run_dir / "report.csv", "\n".join(lines) + "\n")

    # Taxonomy ids come from outside input, so labels are CSV-quoted as needed.
    attribution = io.StringIO()
    writer = csv.writer(attribution, lineterminator="\n")
    writer.writerow(("label", "accepted", "rejected"))
    writer.writerows((label, counts["accepted"], counts["rejected"])
                     for label, counts in bundle.attribution_histogram.items())
    write_atomic(run_dir / "attribution.csv", attribution.getvalue())
    write_atomic(run_dir / "oscillations.json", json_text(bundle.oscillation_events))
