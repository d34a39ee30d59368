"""A run directory read back through the fold of its journal, and the
plot-ready data derived from it: the best-score-to-date curve, the
attribution histogram, and oscillation events."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TypeVar

from .artifacts import json_text, write_atomic
from .domain import Taxonomy, read_record
from .errors import MissingArtifactsError, VistaError
from .optimizer import BudgetLedger, RoundOutcome, fold_round
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


def read_run(run_dir: str | Path) -> tuple[SemanticTraceTree, list[tuple[int, float]]]:
    """The tree of ``trace.json`` and the best curve, from a fold of
    ``rounds.jsonl`` that takes each winner's ``val_accuracy`` from the tree.
    Each round's verdict fields must follow from its proposals, and the
    fold's edges, nodes, charges and ``remaining`` must be the snapshots'."""
    trace = read_artifact(run_dir, "trace.json", import_tree)
    ledger = read_artifact(run_dir, "ledger.json",
                           lambda text: read_record(BudgetLedger, json.loads(text)))
    # The journal's lines are in iteration order.
    outcomes = read_artifact(run_dir, "rounds.jsonl", lambda text: [
        read_record(RoundOutcome, json.loads(line)) for line in text.splitlines()])
    tree = SemanticTraceTree.with_root(trace.nodes[trace.root])
    charged = BudgetLedger(initial=ledger.initial, remaining=ledger.initial)
    best = trace.nodes[trace.root].val_accuracy or 0.0
    curve = [(0, best)]
    for outcome in outcomes:
        winner = next((p for p in outcome.proposals if p.candidate_id == outcome.winner), None)
        accuracy = getattr(trace.nodes.get(outcome.winner), "val_accuracy", None)
        try:
            for key, expected in (("winner", winner and winner.candidate_id),
                                  ("winner_label", winner and winner.label),
                                  ("pool_accepted", outcome.pool_accepted and winner is not None),
                                  ("best_updated", winner is not None and (accuracy or 0) > best)):
                if getattr(outcome, key) != expected:
                    raise ValueError(f"{key} is {getattr(outcome, key)!r}, not {expected!r}")
            fold_round(tree, charged, outcome, accuracy)
        except (LookupError, TypeError, ValueError, VistaError) as exc:
            raise MissingArtifactsError(
                f"rounds.jsonl in {run_dir} does not fold onto trace.json: round "
                f"{outcome.iteration}: {type(exc).__name__}: {exc}") from exc
        best = accuracy if outcome.best_updated else best
        if outcome.charge:
            curve.append((curve[-1][0] + outcome.charge, best))
    for name, stored, folded in (
            ("trace.json", [*trace.edges, *trace.nodes.values()],
             [*tree.edges, *tree.nodes.values()]),
            ("ledger.json", [*ledger.charges, f"remaining {ledger.remaining}"],
             [*charged.charges, f"remaining {charged.remaining}"])):
        if stored != folded:
            mine, fold = next((a, b) for a, b in zip(stored + ["nothing"], folded + ["nothing"])
                              if a != b)
            raise MissingArtifactsError(f"{name} in {run_dir} does not match the fold of "
                                        f"rounds.jsonl: {mine} in {name}, {fold} in the fold")
    return trace, curve


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
    tree, curve = read_run(run_dir)
    return ReportBundle(
        best_curve=curve,
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
