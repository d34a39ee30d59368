"""The optimization round loop: Pareto parent selection, the two-layer
explore-exploit scheduler (restart + epsilon-greedy hypothesis slotting),
minibatch verification, winner selection, validation gating, and exact
budget accounting.

Each round is decided, then applied.  ``OptimizationRun.step_round``
decides: it draws a parent and a minibatch of b train items, and runs one
branch (K labeled hypotheses, a blank restart, a single-mutation fallback).
A branch only proposes: it returns its ``(slot, Hypothesis, rewrite)``
slots, or None after logging why it has none.  ``step_round`` alone marks
such a round skipped, verifies the slots and logs the branch's verdict from
``VERDICT_LOGS``.  ``_verify`` scores every rewrite on the items in one
evaluator dispatch; its gain is its correct count minus the parent's
(summed once per round), the strictly best gain wins (ties go to the lowest
slot), and the winner is scored on the full validation set.  The journal
names the minibatch by item id.  Deciding changes no run state.
``OptimizationRun._apply`` then commits the ``RoundOutcome``; it is the only
method that changes the candidates, the pool, the best candidate, the
trace, the ledger and the outcome list, so a round that raises leaves all
six as they were; ``fold_round`` adds its trace edges, nodes and charge.

Budget semantics: a round charges what the evaluator metered while it was
decided, so the ledger equals the charged counter by construction.  When no
slot is dropped that comes to b*K for hypotheses, b+1 for a restart and b
for the fallback, plus the validation size when a winner is gated.
Parent-baseline minibatch evaluations and look-ahead probes beyond the
first are unmetered overhead, tracked on the evaluator's uncharged counter.

Run directory: ``config.json`` is written when the run starts, and a
round's line of the journal ``rounds.jsonl`` just before it is applied.
The state snapshots (``trace.*``, ``pool.json``, ``ledger.json``) are
written once, when the loop ends or when a round raises, so they and the
journal then hold the rounds before it; ``best_prompt.txt`` only on
success.  ``artifacts`` defines how each file is written.  ``report`` and
``export-trace`` fold the journal as ``_apply`` does, and check the snapshots.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated

from .agents import (
    format_failures,
    load_template,
    parse_hypotheses,
    render_hypothesis_prompt,
    render_reflection_prompt,
    render_taxonomy,
    extract_rewritten_prompt,
)
from .artifacts import json_line, json_text, write_atomic
from .backends.base import Backend, GenerationRequest
from .domain import (
    H_BLANK,
    UNLABELED,
    Hypothesis,
    PromptCandidate,
    Range,
    RunConfig,
    TaskDataset,
    TaskItem,
    Taxonomy,
)
from .errors import EmptyRewriteError, NoBlocksFoundError
from .evaluation import Evaluator, collect_failures, generate_in_order
from .pareto import ParetoPool
from .trace import ACCEPTED, REJECTED, SemanticTraceTree, TraceEdge, TraceNode, export_tree

logger = logging.getLogger(__name__)

BRANCH_RESTART = "restart"
BRANCH_HYPOTHESES = "hypotheses"
BRANCH_FALLBACK = "fallback_single"
BRANCH_SKIPPED = "skipped"

NO_FAILURES_LOG = "No failed samples found. Falling back to single mutation."
NO_WINNER_LOG = "No multi-hypothesis candidate improved over parent. No proposal returned."
RESTART_NO_IMPROVEMENT_LOG = "Random restart completed with no improvement. No proposal returned."
# Each branch's verdict lines, with and without a winner, formatted with the
# winner's record and the parent's and the first proposal's correct counts.
VERDICT_LOGS = {
    (BRANCH_HYPOTHESES, True): ["Selected slot {winner.slot} [{winner.label}]. Candidate accepted."],
    (BRANCH_HYPOTHESES, False): [NO_WINNER_LOG],
    (BRANCH_RESTART, True): ["Random restart accepted."],
    (BRANCH_RESTART, False): [RESTART_NO_IMPROVEMENT_LOG,
                              "Validation: old_sum={parent:.4f}, new_sum={first:.4f}, improved=False."],
    (BRANCH_FALLBACK, True): ["Single-mutation candidate accepted."],
    (BRANCH_FALLBACK, False): ["Candidate subsample score {first:.1f} is not better than old score "
                               "{parent:.1f}, skipping."],
}

# Directive handed to the reflection agent when no failure cases exist (or
# in baseline mode, which never attributes a root cause).
FALLBACK_DIRECTIVE = Hypothesis(
    label=UNLABELED,
    description="No specific root cause is attributed; the prompt needs a general quality pass.",
    fix="Revise the prompt so that more of the sampled problems are answered correctly.",
    origin="fallback",
)

# Rounds that meter nothing (degenerate configurations such as p=1 with a
# zero look-ahead cap, or agents whose output is always dropped) would loop
# forever; stop after this many consecutive zero-charge rounds.
MAX_STALLED_ROUNDS = 200


@dataclass(frozen=True)
class Charge:
    """What one round charged the budget."""

    iteration: int
    branch: str
    amount: Annotated[int, Range(minimum=0)]


@dataclass
class BudgetLedger:
    """The budget and each round's charge to it; ``remaining`` is ``initial``
    minus the charges' sum, which ``report`` checks on read."""

    initial: int
    remaining: int
    charges: list[Charge] = field(default_factory=list)

    def add(self, iteration: int, branch: str, amount: int) -> None:
        self.charges.append(Charge(iteration, branch, amount))
        self.remaining -= amount

    def total_charged(self) -> int:
        return self.initial - self.remaining


@dataclass(frozen=True)
class ProposalRecord:
    slot: int
    label: str
    origin: str
    candidate_id: int
    delta_minibatch: int
    correct_count: int


@dataclass
class RoundOutcome:
    iteration: int
    branch: str
    parent_id: int | None
    minibatch: tuple[str, ...]
    charge: int = 0
    proposals: list[ProposalRecord] = field(default_factory=list)
    winner: int | None = None
    winner_label: str | None = None
    pool_accepted: bool = False
    best_updated: bool = False
    lookahead_steps: int = 0
    log: list[str] = field(default_factory=list)
    # What ``_apply`` needs beyond the round record; kept in memory only.
    texts: list[str] = field(default_factory=list, repr=False, metadata={"json": None})
    winner_val_scores: tuple[int, ...] | None = field(default=None, repr=False,
                                                      metadata={"json": None})


def fold_round(trace: SemanticTraceTree, ledger: BudgetLedger, outcome: RoundOutcome,
               winner_accuracy: float | None) -> None:
    """Fold one journaled round into ``trace`` and ``ledger``: an edge and a
    node per proposal (a restart's starts a new root), then the charge.  The
    journal lacks ``winner_accuracy``, the winner's validation accuracy."""
    gain = (None if winner_accuracy is None else
            round((winner_accuracy - trace.nodes[outcome.parent_id].val_accuracy) * 100, 6))
    from_id = None if outcome.branch == BRANCH_RESTART else outcome.parent_id
    for record in outcome.proposals:
        accepted = record.candidate_id == outcome.winner
        trace.record_proposal(
            TraceEdge(from_id=from_id, to_id=record.candidate_id, label=record.label,
                      delta_minibatch=record.delta_minibatch,
                      status=ACCEPTED if accepted else REJECTED, iteration=outcome.iteration,
                      origin=record.origin, delta_val_pp=gain if accepted else None),
            TraceNode(id=record.candidate_id, val_accuracy=winner_accuracy if accepted else None,
                      correct_count=record.correct_count, minibatch_size=len(outcome.minibatch)))
    ledger.add(outcome.iteration, outcome.branch, outcome.charge)


@dataclass
class RunResult:
    best: PromptCandidate
    pool: ParetoPool
    trace: SemanticTraceTree
    ledger: BudgetLedger
    outcomes: list[RoundOutcome]
    candidates: dict[int, PromptCandidate]
    evaluator: Evaluator
    resolved_config: dict


class OptimizationRun:
    """Single-coordinator run state.  The only concurrency is in the
    generation of the evaluator's grids and of a round's K reflections, both
    merged in request order, so every run is a pure function of (config,
    dataset, seed)."""

    def __init__(
        self,
        config: RunConfig,
        dataset: TaskDataset,
        taxonomy: Taxonomy,
        backend: Backend,
        seed_prompt: str,
        out_dir: str | Path | None = None,
        resolved_config: dict | None = None,
        template_paths: dict | None = None,
    ):
        self.config = config
        self.dataset = dataset
        self.taxonomy = taxonomy
        self.backend = backend
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.resolved_config = resolved_config or config.to_dict()

        template_paths = template_paths or {}
        self.evaluator = Evaluator(backend, max_parallel=config.max_parallel)
        self.hypothesis_template = load_template("hypothesis", template_paths.get("hypothesis"))
        self.reflection_template = load_template("reflection", template_paths.get("reflection"))
        self.taxonomy_block = render_taxonomy(taxonomy)

        # Independent named streams keep the branch sequence replayable
        # without simulating pool dynamics.
        seed = config.rng_seed
        self.rng_parent = random.Random(f"{seed}/parent")
        self.rng_minibatch = random.Random(f"{seed}/minibatch")
        self.rng_branch = random.Random(f"{seed}/branch")
        self.rng_slots = random.Random(f"{seed}/slots")
        self.rng_lookahead = random.Random(f"{seed}/lookahead")

        self.outcomes: list[RoundOutcome] = []
        self.ledger = BudgetLedger(initial=config.budget, remaining=config.budget)

        # Seed initialization: the seed is validation-scored (unmetered,
        # pre-loop) and enters the pool unconditionally.
        (records,) = self.evaluator.evaluate([seed_prompt], dataset.val, charged=False)
        scores = [r.score for r in records]
        self.best = PromptCandidate(id=0, text=seed_prompt).with_val_scores(scores)
        self.candidates: dict[int, PromptCandidate] = {0: self.best}
        self.pool = ParetoPool(vector_length=len(dataset.val))
        self.pool.insert_seed(0, scores)
        self.trace = SemanticTraceTree.with_root(
            TraceNode(id=0, val_accuracy=self.best.val_accuracy))

    # ------------------------------------------------------------ helpers

    def _reflection_request(self, parent_text: str, hypothesis: Hypothesis,
                            failure_block: str) -> GenerationRequest:
        prompt = render_reflection_prompt(
            self.reflection_template, parent_text, hypothesis, failure_block)
        return GenerationRequest(role="reflection_agent", messages=(("user", prompt),))

    def _reflect(self, parent_text: str, hypothesis: Hypothesis, failure_block: str) -> str:
        return extract_rewritten_prompt(
            self.backend.generate(self._reflection_request(parent_text, hypothesis, failure_block)))

    def _verify(self, outcome: RoundOutcome, items: list[TaskItem], parent_correct: int,
                slots: list[tuple[int, Hypothesis, str]]) -> ProposalRecord | None:
        """Score every ``(slot, hypothesis, text)`` rewrite on the round's
        minibatch ``items``, take the strictly best gain over the parent's
        ``parent_correct`` as the winner (so a single proposal wins iff its
        gain is positive) and score it on the full validation set.  Writes
        only ``outcome``; returns the winner's record, or None."""
        outcome.texts = [text for *_, text in slots]
        results = self.evaluator.evaluate(outcome.texts, items, charged=True)
        first_id = len(self.candidates)
        winner: ProposalRecord | None = None
        for i, ((slot, hyp, _), records) in enumerate(zip(slots, results)):
            correct = sum(r.score for r in records)
            record = ProposalRecord(
                slot=slot, label=hyp.label, origin=hyp.origin, candidate_id=first_id + i,
                delta_minibatch=correct - parent_correct, correct_count=correct)
            outcome.proposals.append(record)
            if record.delta_minibatch > (winner.delta_minibatch if winner else 0):
                winner = record

        if winner is not None:
            outcome.winner = winner.candidate_id
            outcome.winner_label = winner.label
            (records,) = self.evaluator.evaluate(
                [outcome.texts[winner.candidate_id - first_id]], self.dataset.val, charged=True)
            outcome.winner_val_scores = scores = tuple(r.score for r in records)
            outcome.pool_accepted = self.pool.admits(scores)
            outcome.best_updated = sum(scores) / len(scores) > self.best.val_accuracy
        return winner

    def _apply(self, outcome: RoundOutcome) -> None:
        """Commit a decided round: the only place that changes the candidates,
        the pool, the best candidate, the trace and the ledger (by ``fold_round``)
        and the outcomes.  ``_verify`` decided the winner's two independent gates:
        pool admission, and a strict best-so-far update."""
        for record, text in zip(outcome.proposals, outcome.texts):
            candidate = PromptCandidate(id=record.candidate_id, text=text)
            if candidate.id == outcome.winner:
                candidate = candidate.with_val_scores(outcome.winner_val_scores)
                if outcome.pool_accepted:
                    self.pool.try_insert(candidate.id, candidate.val_scores)
                if outcome.best_updated:
                    self.best = candidate
            self.candidates[candidate.id] = candidate
        fold_round(self.trace, self.ledger, outcome, None if outcome.winner is None
                   else self.candidates[outcome.winner].val_accuracy)
        self.outcomes.append(outcome)

    # ------------------------------------------------------------- rounds

    def run(self) -> RunResult:
        journal = None
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            write_atomic(self.out_dir / "config.json", json_text(self.resolved_config))
            journal = open(self.out_dir / "rounds.jsonl", "w", encoding="utf-8")
        stalled = 0
        iteration = 0
        try:
            while self.ledger.remaining > 0:
                iteration += 1
                outcome = self.step_round(iteration)
                if journal is not None:
                    journal.write(json_line(outcome))
                    journal.flush()
                self._apply(outcome)
                if outcome.charge == 0:
                    stalled += 1
                    if stalled >= MAX_STALLED_ROUNDS:
                        logger.warning("stopping after %d zero-charge rounds", stalled)
                        break
                else:
                    stalled = 0
        finally:
            if journal is not None:
                journal.close()
                self._write_snapshots()
        if journal is not None:
            write_atomic(self.out_dir / "best_prompt.txt", self.best.text)
        return RunResult(self.best, self.pool, self.trace, self.ledger, self.outcomes,
                         self.candidates, self.evaluator, self.resolved_config)

    def step_round(self, iteration: int) -> RoundOutcome:
        """Decide one round without changing run state: one branch proposes,
        and a round without proposals is skipped.  The round charges exactly
        what the evaluator metered while deciding it."""
        metered = self.evaluator.metric_calls
        parent_id = self.pool.select_parent(self.rng_parent)
        parent = self.candidates[parent_id]
        items = self.rng_minibatch.sample(self.dataset.train, self.config.b)
        # Parent baseline on this round's minibatch: needed for failure
        # collection and accuracy gains, unmetered by the budget.
        (records,) = self.evaluator.evaluate([parent.text], items, charged=False)
        parent_correct = sum(r.score for r in records)
        outcome = RoundOutcome(iteration=iteration, branch=BRANCH_FALLBACK,
                               parent_id=parent.id, minibatch=tuple(item.id for item in items))

        vista = self.config.mode != "baseline"
        if vista and self.rng_branch.random() < self.config.p:
            outcome.branch = BRANCH_RESTART
            slots = self._restart_round(outcome, parent)
        else:
            # One failure block per round, shown to every agent of the round.
            failures = collect_failures(items, records)
            failure_block = format_failures(failures)
            if vista and failures:
                outcome.branch = BRANCH_HYPOTHESES
                slots = self._hypothesis_round(outcome, parent, failure_block)
            else:
                if vista:
                    outcome.log.append(NO_FAILURES_LOG)
                slots = self._fallback_round(outcome, parent, failure_block)
        if slots is None:
            outcome.branch = BRANCH_SKIPPED
        else:
            winner = self._verify(outcome, items, parent_correct, slots)
            first = outcome.proposals[0].correct_count if outcome.proposals else None
            outcome.log.extend(line.format(winner=winner, parent=parent_correct, first=first)
                               for line in VERDICT_LOGS[outcome.branch, winner is not None])
        outcome.charge = self.evaluator.metric_calls - metered
        return outcome

    # ------------------------------------------------------------ branches

    def _hypothesis_round(self, outcome: RoundOutcome, parent: PromptCandidate,
                          failure_block: str) -> list[tuple[int, Hypothesis, str]] | None:
        cfg = self.config
        origins = ["free" if self.rng_slots.random() < cfg.epsilon else "heuristic"
                   for _ in range(cfg.K)]
        prompt = render_hypothesis_prompt(
            self.hypothesis_template, parent.text, self.taxonomy_block, failure_block,
            cfg.K, self.trace.trajectory(parent.id))
        request = GenerationRequest(role="hypothesis_agent", messages=(("user", prompt),),
                                    extras={"slot_origins": tuple(origins)})
        for attempt in range(2):
            response = self.backend.generate(request)
            try:
                hypotheses, malformed = parse_hypotheses(
                    response, cfg.K, self.taxonomy, origins)
                break
            except NoBlocksFoundError:
                if attempt == 0:
                    outcome.log.append("Hypothesis agent response had no blocks; retrying once.")
        else:
            # Only the generation calls were spent; nothing was metered.
            outcome.log.append("Hypothesis agent returned no parseable blocks. Round skipped.")
            return None
        if malformed:
            outcome.log.append(f"{malformed} malformed hypothesis block(s) dropped.")

        # The K reflections are generated together; their rewrites are read
        # in slot order, so the outcome does not depend on the schedule.
        responses = generate_in_order(
            self.backend,
            [self._reflection_request(parent.text, hyp, failure_block) for hyp in hypotheses],
            cfg.max_parallel)
        slots = []
        for slot, (hyp, response) in enumerate(zip(hypotheses, responses)):
            try:
                slots.append((slot, hyp, extract_rewritten_prompt(response)))
            except EmptyRewriteError:
                outcome.log.append(f"Slot {slot} produced an empty rewrite; slot dropped.")
        return slots

    def _restart_round(self, outcome: RoundOutcome,
                       parent: PromptCandidate) -> list[tuple[int, Hypothesis, str]] | None:
        cap = self.config.restart_lookahead_cap
        if cap == 0:
            outcome.log.append("Restart look-ahead cap is 0; branch skipped.")
            return None
        # Look-ahead: probe the parent's prompt on one training item; the
        # reflection agent, shown a blank prompt and only the raw output and
        # parse error, writes the prompt the next probe runs, until a probe
        # parses cleanly.  Only the first probe is metered; the loop length is logged.
        current = parent.text
        for step in range(cap):
            item = self.rng_lookahead.choice(self.dataset.train)
            ((record,),) = self.evaluator.evaluate([current], [item], charged=(step == 0))
            outcome.lookahead_steps += 1
            try:
                current = self._reflect(
                    "", H_BLANK, format_failures([(item, record)], include_task_fields=False))
            except EmptyRewriteError:
                outcome.log.append(
                    f"Restart reflection returned an empty rewrite at look-ahead step {step + 1}; "
                    "round skipped.")
                return None
            if record.parse_error is None:
                return [(0, H_BLANK, current)]
        outcome.log.append(f"Restart look-ahead did not converge within {cap} steps; round skipped.")
        return None

    def _fallback_round(self, outcome: RoundOutcome, parent: PromptCandidate,
                        failure_block: str) -> list[tuple[int, Hypothesis, str]] | None:
        try:
            return [(0, FALLBACK_DIRECTIVE,
                     self._reflect(parent.text, FALLBACK_DIRECTIVE, failure_block))]
        except EmptyRewriteError:
            outcome.log.append("Fallback mutation produced an empty rewrite. Round skipped.")
            return None

    # ---------------------------------------------------------- artifacts

    def _write_snapshots(self) -> None:
        """Write the trace, pool and ledger once per run.  Only ``_apply``
        changes them, after a round is decided, so after a round raises
        these hold the state of the rounds before it."""
        write_atomic(self.out_dir / "trace.json", export_tree(self.trace, "json"))
        write_atomic(self.out_dir / "trace.dot", export_tree(self.trace, "dot"))
        write_atomic(self.out_dir / "pool.json", json_text(self.pool.snapshot()))
        write_atomic(self.out_dir / "ledger.json", json_text(self.ledger))


def run(
    config: RunConfig,
    dataset: TaskDataset,
    taxonomy: Taxonomy,
    backend: Backend,
    seed_prompt: str,
    out_dir: str | Path | None = None,
    resolved_config: dict | None = None,
    template_paths: dict | None = None,
) -> RunResult:
    """Execute rounds until the budget is exhausted and return the best
    candidate, pool, trace, ledger, and per-round outcomes."""
    return OptimizationRun(config, dataset, taxonomy, backend, seed_prompt, out_dir,
                           resolved_config, template_paths).run()
