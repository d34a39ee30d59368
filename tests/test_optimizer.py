import json
import random
import re
import threading
import time

import pytest

from test_domain import check_candidate_invariants

from vistaopt import agents, optimizer
from vistaopt.artifacts import json_line, json_text
from vistaopt.backends.base import RoleRouter
from vistaopt.backends.synthetic import SyntheticBackend, SyntheticWorldConfig, make_synthetic_dataset
from vistaopt.domain import UNLABELED, RunConfig, default_taxonomy, record_dict
from vistaopt.errors import TransportFailureError
from vistaopt.evaluation import Evaluator
from vistaopt.optimizer import (
    BRANCH_FALLBACK,
    BRANCH_HYPOTHESES,
    BRANCH_RESTART,
    BRANCH_SKIPPED,
    MAX_STALLED_ROUNDS,
    OptimizationRun,
    run,
)
from vistaopt.trace import import_tree

TAGS = ("cot_field_ordering", "task_instruction_clarity", "reasoning_strategy")


class ScriptedBackend:
    """Deterministic backend with hand-set skill levels so branch logic can
    be exercised at exact accuracy gains."""

    def __init__(self, dataset, slot_skills, restart_skill=0.0, fallback_skill=0.0):
        self.items_by_question = {i.question: i for i in dataset.train + dataset.val}
        self.slot_skills = slot_skills
        self.restart_skill = restart_skill
        self.fallback_skill = fallback_skill

    def generate(self, request):
        if request.role == "base":
            system = request.messages[0][1]
            match = re.search(r"skill:([0-9.]+)", system)
            if not match:
                return "no parseable object here"
            skill = float(match.group(1))
            item = self.items_by_question[request.messages[-1][1]]
            answer = item.gold_answer if item.difficulty < skill else "-1"
            return json.dumps({"final_answer": answer, "solution_pad": "s"})
        if request.role == "hypothesis_agent":
            blocks = [
                f"[HYPOTHESIS {i + 1}]\nTAG: {TAGS[i % len(TAGS)]}\n"
                f"DESCRIPTION: scripted.\nFIX: set-skill={skill}"
                for i, skill in enumerate(self.slot_skills)
            ]
            return "\n\n".join(blocks)
        text = request.text()
        match = re.search(r"set-skill=([0-9.]+)", text)
        if match:
            return f"skill:{match.group(1)}"
        label = re.search(r"^Root cause label: (.*)$", text, re.MULTILINE).group(1)
        if label == "none":
            return f"skill:{self.restart_skill}"
        return f"skill:{self.fallback_skill}"


@pytest.fixture()
def small_dataset():
    return make_synthetic_dataset(10, 6)


def scripted_run(dataset, seed_skill, slot_skills, *, p=0.0, mode="vista",
                 budget=30, restart_skill=0.0, fallback_skill=0.0, K=3,
                 cap=5, seed=0):
    backend = ScriptedBackend(dataset, slot_skills, restart_skill, fallback_skill)
    config = RunConfig(K=K, p=p, epsilon=0.0, b=10, budget=budget, rng_seed=seed,
                       mode=mode, max_parallel=1, restart_lookahead_cap=cap)
    return run(config, dataset, default_taxonomy(), backend, f"seed prompt skill:{seed_skill}")


# ------------------------------------------------------- winner selection

def test_winner_is_max_positive_delta(small_dataset):
    # parent 3/10; slots reach 4/10, 5/10, 4/10 -> deltas +1, +2, +1
    result = scripted_run(small_dataset, "0.30", ["0.40", "0.50", "0.40"], budget=30)
    outcome = result.outcomes[0]
    assert outcome.branch == BRANCH_HYPOTHESES
    assert [p.delta_minibatch for p in outcome.proposals] == [1, 2, 1]
    assert outcome.winner_label == TAGS[1]
    winner = [p for p in outcome.proposals if p.candidate_id == outcome.winner]
    assert winner[0].slot == 1


def test_winner_tie_breaks_to_lowest_slot(small_dataset):
    result = scripted_run(small_dataset, "0.30", ["0.50", "0.50", "0.30"], budget=30)
    outcome = result.outcomes[0]
    assert [p.delta_minibatch for p in outcome.proposals] == [2, 2, 0]
    assert outcome.winner_label == TAGS[0]


def test_no_winner_logs_and_skips_gate(small_dataset):
    result = scripted_run(small_dataset, "0.30", ["0.30", "0.30", "0.30"], budget=30)
    outcome = result.outcomes[0]
    assert outcome.winner is None
    assert "No multi-hypothesis candidate improved over parent. No proposal returned." in outcome.log
    assert outcome.charge == 30  # b*K only, no val charge
    # all three proposals recorded as rejected leaves
    assert len(result.trace.edges) == 3
    assert all(e.status == "rejected" for e in result.trace.edges)


def test_accepted_edge_has_positive_delta_and_val_pp(small_dataset):
    result = scripted_run(small_dataset, "0.30", ["0.58", "0.30", "0.30"], budget=36)
    accepted = result.trace.accepted_edges()
    assert accepted and all(e.delta_minibatch > 0 for e in accepted)
    assert all(e.delta_val_pp is not None for e in accepted)


# ----------------------------------------------------------- fallback path

def test_fallback_when_no_failures(small_dataset):
    # parent is perfect on the minibatch -> single mutation path
    result = scripted_run(small_dataset, "1.01", ["0.30"] * 3, budget=10,
                          fallback_skill=0.5)
    outcome = result.outcomes[0]
    assert outcome.branch == BRANCH_FALLBACK
    assert "No failed samples found. Falling back to single mutation." in outcome.log
    assert outcome.charge == 10  # b
    assert any("not better than old score 10.0, skipping" in line for line in outcome.log)
    assert outcome.winner is None


def test_fallback_strict_improvement_accepted(small_dataset):
    result = scripted_run(small_dataset, "0.30", ["0.30"] * 3, mode="baseline",
                          budget=16, fallback_skill=0.58)
    outcome = result.outcomes[0]
    assert outcome.branch == BRANCH_FALLBACK
    assert outcome.winner is not None and outcome.winner_label == "unlabeled"
    assert outcome.charge == 10 + 6  # b plus val gate


def test_baseline_mode_only_unlabeled_edges(small_dataset):
    result = scripted_run(small_dataset, "0.30", ["0.58"] * 3, mode="baseline",
                          budget=60, fallback_skill=0.45)
    assert len(result.outcomes) > 1
    assert all(o.branch == BRANCH_FALLBACK for o in result.outcomes)
    assert all(e.label == "unlabeled" for e in result.trace.edges)
    assert all(e.origin == "fallback" for e in result.trace.edges)


# ------------------------------------------------------------ restart path

def test_restart_accepted(small_dataset):
    result = scripted_run(small_dataset, "0.30", ["0.30"] * 3, p=1.0, budget=17,
                          restart_skill=0.58)
    outcome = result.outcomes[0]
    assert outcome.branch == BRANCH_RESTART
    assert outcome.charge == 11 + 6  # b+1 plus val gate
    assert outcome.winner is not None and outcome.winner_label == "none"
    assert outcome.lookahead_steps == 1
    edge = result.trace.edges[0]
    assert edge.to_id == outcome.winner
    assert edge.from_id is None and edge.origin == "blank" and edge.label == "none"


def test_restart_rejected_logs_sums(small_dataset):
    result = scripted_run(small_dataset, "0.30", ["0.30"] * 3, p=1.0, budget=11,
                          restart_skill=0.10)
    outcome = result.outcomes[0]
    assert outcome.branch == BRANCH_RESTART
    assert outcome.charge == 11  # b+1, no gate
    assert "Random restart completed with no improvement. No proposal returned." in outcome.log
    assert "Validation: old_sum=3.0000, new_sum=1.0000, improved=False." in outcome.log


def test_restart_cap_zero_skips(small_dataset):
    result = scripted_run(small_dataset, "0.30", ["0.30"] * 3, p=1.0, budget=5, cap=0)
    assert all(o.branch == BRANCH_SKIPPED for o in result.outcomes)
    assert all(o.charge == 0 for o in result.outcomes)
    # the zero-charge stall guard terminates the run
    assert len(result.outcomes) == MAX_STALLED_ROUNDS


def test_restart_reflection_sees_only_its_probe(small_dataset):
    """The blank restart is conditioned on nothing: its reflection request
    holds the probe's raw output and parse error, but neither the parent
    prompt nor the probe's task fields."""
    backend = ScriptedBackend(small_dataset, ["0.30"] * 3, restart_skill=0.58)
    reflections = []
    generate = backend.generate

    def recording(request):
        if request.role == "reflection_agent":
            reflections.append(request.text())
        return generate(request)

    backend.generate = recording
    config = RunConfig(K=3, p=1.0, epsilon=0.0, b=10, budget=17, rng_seed=0, mode="vista",
                       max_parallel=1, restart_lookahead_cap=5)
    result = run(config, small_dataset, default_taxonomy(), backend, "seed prompt skill:0.30")
    assert [o.branch for o in result.outcomes] == [BRANCH_RESTART]
    [text] = reflections
    assert "Root cause label: none" in text
    assert "Current prompt:\n\n" in text
    assert re.search(r'^Raw output: \{"final_answer": ', text, re.MULTILINE)
    assert "Parse error: none" in text
    assert not re.search(r"^(Question|Gold answer):", text, re.MULTILINE)
    assert "seed prompt" not in text


def test_p_boundaries(small_dataset):
    all_restart = scripted_run(small_dataset, "0.30", ["0.58"] * 3, p=1.0,
                               budget=40, restart_skill=0.45)
    assert all(o.branch == BRANCH_RESTART for o in all_restart.outcomes)
    never_restart = scripted_run(small_dataset, "0.30", ["0.45"] * 3, p=0.0, budget=100)
    assert all(o.branch != BRANCH_RESTART for o in never_restart.outcomes)


# ------------------------------------------------------------ rng replay

def test_branch_sequence_matches_rng_replay(dataset_50, taxonomy):
    config = RunConfig(rng_seed=7, p=0.2, budget=400, max_parallel=1)
    world = SyntheticWorldConfig()
    backend = SyntheticBackend(world, dataset_50, taxonomy, run_seed=7)
    from vistaopt.domain import load_seed_prompt
    result = run(config, dataset_50, taxonomy, backend, load_seed_prompt("defective"))

    replay = random.Random("7/branch")
    for outcome in result.outcomes:
        coin = replay.random()
        if coin < config.p:
            assert outcome.branch in (BRANCH_RESTART, BRANCH_SKIPPED)
        else:
            assert outcome.branch in (BRANCH_HYPOTHESES, BRANCH_FALLBACK, BRANCH_SKIPPED)


def test_minibatches_replay_their_stream_and_gains_subtract_the_parent(dataset_50, taxonomy,
                                                                        defective_seed):
    """Each round draws its minibatch as the next ``sample`` of the train ids
    from the run's minibatch stream, and a proposal's gain is its correct
    count minus the parent's count on that minibatch."""
    config = RunConfig(rng_seed=5, p=0.2, budget=500, max_parallel=1)
    backend = SyntheticBackend(SyntheticWorldConfig(), dataset_50, taxonomy, 5)
    result = run(config, dataset_50, taxonomy, backend, defective_seed)
    train_ids = [item.id for item in dataset_50.train]
    replay = random.Random(f"{config.rng_seed}/minibatch")
    scorer = Evaluator(backend)
    branches, gains = set(), set()
    for outcome in result.outcomes:
        assert list(outcome.minibatch) == replay.sample(train_ids, config.b), outcome.iteration
        texts = [result.candidates[outcome.parent_id].text]
        texts += [result.candidates[p.candidate_id].text for p in outcome.proposals]
        items = [dataset_50.item(i) for i in outcome.minibatch]
        parent, *proposals = [sum(r.score for r in records)
                              for records in scorer.evaluate(texts, items, charged=False)]
        for proposal, correct in zip(outcome.proposals, proposals):
            assert proposal.correct_count == correct
            assert proposal.delta_minibatch == correct - parent
            gains.add((parent > 0, proposal.delta_minibatch > 0))
        branches.add(outcome.branch)
    assert {BRANCH_HYPOTHESES, BRANCH_RESTART} <= branches
    assert {(True, True), (True, False)} <= gains, gains


# ----------------------------------------------------------- budget rules

def test_budget_zero_returns_seed(dataset_50, taxonomy, defective_seed):
    config = RunConfig(budget=0, max_parallel=1)
    backend = SyntheticBackend(SyntheticWorldConfig(), dataset_50, taxonomy, 0)
    result = run(config, dataset_50, taxonomy, backend, defective_seed)
    assert result.outcomes == []
    assert result.best.id == 0 and result.best.text == defective_seed
    assert len(result.trace.nodes) == 1 and result.trace.edges == []
    assert result.evaluator.metric_calls == 0


def test_ledger_exactness_and_charge_table(dataset_50, taxonomy, defective_seed):
    config = RunConfig(rng_seed=3, budget=300, max_parallel=1)
    backend = SyntheticBackend(SyntheticWorldConfig(), dataset_50, taxonomy, 3)
    result = run(config, dataset_50, taxonomy, backend, defective_seed)
    ledger = result.ledger
    assert ledger.remaining + ledger.total_charged() == ledger.initial
    assert ledger.remaining <= 0
    assert result.evaluator.metric_calls == ledger.total_charged()
    val = len(dataset_50.val)
    base = {BRANCH_RESTART: config.b + 1, BRANCH_HYPOTHESES: config.b * config.K,
            BRANCH_FALLBACK: config.b}
    for outcome in result.outcomes:
        expected = base[outcome.branch] + (val if outcome.winner is not None else 0)
        assert outcome.charge == expected, outcome.iteration
    # a gated hypothesis round at defaults charges 8 * 3 + 50 = 74
    gated_hyp = [o for o in result.outcomes
                 if o.branch == BRANCH_HYPOTHESES and o.winner is not None]
    assert gated_hyp and all(o.charge == 74 for o in gated_hyp)
    # every winner carries a strictly positive minibatch gain
    for outcome in result.outcomes:
        if outcome.winner is not None:
            winning = [p for p in outcome.proposals if p.candidate_id == outcome.winner]
            assert winning[0].delta_minibatch > 0


def test_best_accuracy_monotone(dataset_50, taxonomy, defective_seed):
    config = RunConfig(rng_seed=0, budget=500, max_parallel=1)
    backend = SyntheticBackend(SyntheticWorldConfig(), dataset_50, taxonomy, 0)
    result = run(config, dataset_50, taxonomy, backend, defective_seed)
    best = result.candidates[0].val_accuracy
    for outcome in result.outcomes:
        if outcome.best_updated:
            new_best = result.candidates[outcome.winner].val_accuracy
            assert new_best > best
            best = new_best
    assert best == result.best.val_accuracy


class MappedBackend:
    """Base model whose per-item correctness is a lookup table keyed by a
    marker in the prompt text, so validation vectors can be forced into
    incomparable shapes."""

    def __init__(self, dataset, table):
        self.items = {i.question: i for i in dataset.train + dataset.val}
        self.order = {i.id: n for n, i in enumerate(dataset.val)}
        self.table = table

    def generate(self, request):
        if request.role != "base":
            return "unused"
        marker = request.messages[0][1].split()[0]
        item = self.items[request.messages[-1][1]]
        index = self.order.get(item.id, -1)
        correct = index in self.table.get(marker, set())
        answer = item.gold_answer if correct else "-1"
        return json.dumps({"final_answer": answer})


def test_pool_and_best_gates_are_independent(small_dataset):
    # seed scores (1,0,0,0,0,0); candidate B (0,1,1,0,0,0) is incomparable
    # and raises the best; C (1,1,0,0,0,0) is incomparable to B with a tied
    # mean: pool accepts, best must NOT update; D (0,1,0,0,0,0) is
    # dominated: pool rejects, yet it is still val-scored by the gate.
    from vistaopt.optimizer import OptimizationRun, RoundOutcome

    table = {"SEED": {0}, "B": {1, 2}, "C": {0, 1}, "D": {1}}
    backend = MappedBackend(small_dataset, table)
    config = RunConfig(b=10, budget=0, max_parallel=1)
    engine = OptimizationRun(config, small_dataset, default_taxonomy(), backend, "SEED prompt")
    assert engine.candidates[0].val_scores == (1, 0, 0, 0, 0, 0)
    # Against a baseline that gets every validation item wrong, each marked
    # prompt has a positive gain on a validation-item minibatch, so it wins.
    items = small_dataset.val
    (baseline,) = engine.evaluator.evaluate(["NONE prompt"], items, charged=False)

    def gate(marker):
        outcome = RoundOutcome(iteration=1, branch=BRANCH_FALLBACK, parent_id=0,
                               minibatch=tuple(item.id for item in items))
        engine._verify(outcome, items, sum(r.score for r in baseline),
                       [(0, UNLABELED, "fallback", f"{marker} prompt")])
        engine._apply(outcome)
        return outcome, engine.candidates[outcome.winner]

    outcome_b, scored_b = gate("B")
    assert outcome_b.pool_accepted and outcome_b.best_updated
    assert engine.best.id == scored_b.id

    outcome_c, scored_c = gate("C")
    assert outcome_c.pool_accepted
    assert not outcome_c.best_updated  # tied mean, strict update only
    assert engine.best.id == scored_b.id

    outcome_d, scored_d = gate("D")
    assert not outcome_d.pool_accepted
    assert not outcome_d.best_updated
    # the dominated candidate was still evaluated on the full val set
    assert scored_d.val_scores == (0, 1, 0, 0, 0, 0)
    assert scored_d.id not in engine.pool.members


def test_run_store_lineage_invariants(dataset_50, taxonomy, defective_seed):
    config = RunConfig(rng_seed=1, budget=300, max_parallel=1)
    backend = SyntheticBackend(SyntheticWorldConfig(), dataset_50, taxonomy, 1)
    result = run(config, dataset_50, taxonomy, backend, defective_seed)
    for candidate in result.candidates.values():
        check_candidate_invariants(candidate)
    # Lineage lives on the trace edges: every proposal's edge joins
    # candidates of this run, and only a blank restart has no parent.
    assert sorted(e.to_id for e in result.trace.edges) == sorted(
        set(result.candidates) - {result.trace.root})
    for edge in result.trace.edges:
        if edge.from_id is not None:
            assert edge.from_id in result.candidates
        assert (edge.from_id is None) == (edge.origin == "blank")


def test_trace_node_accounting(dataset_50, taxonomy, defective_seed):
    config = RunConfig(rng_seed=2, budget=300, max_parallel=1)
    backend = SyntheticBackend(SyntheticWorldConfig(), dataset_50, taxonomy, 2)
    result = run(config, dataset_50, taxonomy, backend, defective_seed)
    assert len(result.trace.nodes) == 1 + len(result.trace.edges)
    proposals = sum(len(o.proposals) for o in result.outcomes)
    assert len(result.trace.edges) == proposals


# ------------------------------------------------------------- determinism

def test_identical_runs_bit_identical(dataset_50, taxonomy, defective_seed):
    def one():
        backend = SyntheticBackend(SyntheticWorldConfig(), dataset_50, taxonomy, 5)
        config = RunConfig(rng_seed=5, budget=200)
        return run(config, dataset_50, taxonomy, backend, defective_seed)

    a, b = one(), one()
    assert [record_dict(o) for o in a.outcomes] == [record_dict(o) for o in b.outcomes]
    assert a.trace == b.trace
    assert a.best.text == b.best.text


def test_parallelism_does_not_change_results(dataset_50, taxonomy, defective_seed):
    def with_parallel(mp):
        backend = SyntheticBackend(SyntheticWorldConfig(), dataset_50, taxonomy, 4)
        config = RunConfig(rng_seed=4, budget=200, max_parallel=mp)
        return run(config, dataset_50, taxonomy, backend, defective_seed)

    a, b = with_parallel(1), with_parallel(4)
    assert [record_dict(o) for o in a.outcomes] == [record_dict(o) for o in b.outcomes]


class SlowReflections:
    """Forwarding wrapper without declarations: each reflection call sleeps
    a few ms, and ``in_flight_max`` records the most in flight at once.  A
    reflection whose prompt contains ``empty_if`` gets a blank reply."""

    def __init__(self, inner, empty_if=None):
        self.inner = inner
        self.empty_if = empty_if
        self.in_flight = 0
        self.in_flight_max = 0
        self._lock = threading.Lock()

    def generate(self, request):
        if request.role != "reflection_agent":
            return self.inner.generate(request)
        with self._lock:
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)
        try:
            time.sleep(0.005)
            if self.empty_if is not None and self.empty_if in request.text():
                return "   "
            return self.inner.generate(request)
        finally:
            with self._lock:
                self.in_flight -= 1


class InProcessSlowReflections(SlowReflections):
    in_process = True


def test_reflections_are_generated_concurrently_up_to_max_parallel(dataset_50, taxonomy,
                                                                   defective_seed):
    def traced_run(wrapper, max_parallel):
        backend = wrapper(SyntheticBackend(SyntheticWorldConfig(), dataset_50, taxonomy, 2))
        config = RunConfig(K=3, rng_seed=2, budget=150, max_parallel=max_parallel)
        result = run(config, dataset_50, taxonomy, backend, defective_seed)
        assert any(o.branch == BRANCH_HYPOTHESES for o in result.outcomes)
        return backend.in_flight_max, result

    serial_peak, serial = traced_run(SlowReflections, 1)
    pooled_peak, pooled = traced_run(SlowReflections, 2)
    in_process_peak, in_process = traced_run(InProcessSlowReflections, 2)
    assert (serial_peak, pooled_peak, in_process_peak) == (1, 2, 1)
    for result in (pooled, in_process):
        assert [record_dict(o) for o in result.outcomes] == [record_dict(o) for o in serial.outcomes]
        assert result.trace == serial.trace
        assert result.ledger.total_charged() == result.evaluator.metric_calls


@pytest.mark.parametrize("wrapper, peak", [(SlowReflections, 3), (InProcessSlowReflections, 1)])
def test_routed_reflections_run_as_the_reflection_backend_declares(wrapper, peak, dataset_50,
                                                                    taxonomy, defective_seed):
    """Behind a router with a synthetic base, reflections are pooled unless
    the reflection agent itself declares ``in_process``."""
    def routed_run(max_parallel):
        base = SyntheticBackend(SyntheticWorldConfig(), dataset_50, taxonomy, 2)
        reflections = wrapper(base)
        config = RunConfig(K=3, rng_seed=2, budget=150, max_parallel=max_parallel)
        result = run(config, dataset_50, taxonomy, RoleRouter(base, reflection_agent=reflections),
                     defective_seed)
        assert any(o.branch == BRANCH_HYPOTHESES for o in result.outcomes)
        return reflections.in_flight_max, result

    serial_peak, serial = routed_run(1)
    routed_peak, routed = routed_run(3)
    assert (serial_peak, routed_peak) == (1, peak)
    assert [record_dict(o) for o in routed.outcomes] == [record_dict(o) for o in serial.outcomes]
    assert routed.trace == serial.trace
    assert routed.ledger == serial.ledger
    assert routed.ledger.total_charged() == routed.evaluator.metric_calls


def test_concurrent_empty_rewrite_drops_only_its_slot(small_dataset):
    def first_round(max_parallel):
        backend = SlowReflections(
            ScriptedBackend(small_dataset, ["0.40", "0.45", "0.50"]), empty_if="set-skill=0.45")
        config = RunConfig(K=3, p=0.0, epsilon=0.0, b=10, budget=30, rng_seed=0,
                           max_parallel=max_parallel)
        result = run(config, small_dataset, default_taxonomy(), backend,
                     "seed prompt skill:0.30")
        return result.outcomes[0]

    serial, pooled = first_round(1), first_round(3)
    assert record_dict(pooled) == record_dict(serial)
    assert [p.slot for p in pooled.proposals] == [0, 2]
    assert pooled.log == ["Slot 1 produced an empty rewrite; slot dropped.",
                          f"Selected slot 2 [{TAGS[2]}]. Candidate accepted."]


def test_concurrent_reflection_failure_leaves_seed_state(dataset_50, taxonomy, defective_seed):
    class FailingReflection(SlowReflections):
        def generate(self, request):
            if request.role == "reflection_agent" and "Root cause label: " + TAGS[1] in request.text():
                raise TransportFailureError("injected reflection failure")
            return super().generate(request)

    backend = FailingReflection(ScriptedBackend(dataset_50, ["0.40", "0.45", "0.50"]))
    engine = OptimizationRun(RunConfig(K=3, p=0.0, epsilon=0.0, budget=500, max_parallel=3),
                             dataset_50, taxonomy, backend, "seed prompt skill:0.30")
    with pytest.raises(TransportFailureError):
        engine.run()
    assert engine.evaluator.metric_calls == 0
    assert set(engine.candidates) == set(engine.trace.nodes) == {0}
    assert engine.ledger.charges == [] and engine.outcomes == []


# ------------------------------------------------------------- anomalies

class BrokenAgentBackend(ScriptedBackend):
    """Scripted backend whose agent roles misbehave in configurable ways."""

    def __init__(self, dataset, hypothesis_text=None, reflection_text=None, **kwargs):
        super().__init__(dataset, ["0.50"] * 3, **kwargs)
        self.hypothesis_text = hypothesis_text
        self.reflection_text = reflection_text

    def generate(self, request):
        if request.role == "hypothesis_agent" and self.hypothesis_text is not None:
            return self.hypothesis_text
        if request.role == "reflection_agent" and self.reflection_text is not None:
            return self.reflection_text
        return super().generate(request)


def anomaly_run(small_dataset, backend, *, p=0.0, budget=30, cap=3):
    config = RunConfig(K=3, p=p, epsilon=0.0, b=10, budget=budget, rng_seed=0,
                       mode="vista", max_parallel=1, restart_lookahead_cap=cap)
    return run(config, small_dataset, default_taxonomy(), backend,
               "seed prompt skill:0.30")


def test_unparseable_hypothesis_response_skips_round(small_dataset):
    backend = BrokenAgentBackend(small_dataset, hypothesis_text="no blocks at all")
    result = anomaly_run(small_dataset, backend, budget=5)
    assert result.outcomes, "rounds still execute"
    first = result.outcomes[0]
    assert first.branch == BRANCH_SKIPPED and first.charge == 0
    assert any("no parseable blocks" in line for line in first.log)
    assert any("retrying once" in line for line in first.log)
    # nothing was metered and the run terminated via the stall guard
    assert result.ledger.total_charged() == 0
    assert result.evaluator.metric_calls == 0


def test_empty_rewrite_drops_slot_and_charges_nothing(small_dataset):
    backend = BrokenAgentBackend(small_dataset, reflection_text="   \n  ")
    result = anomaly_run(small_dataset, backend, budget=30)
    first = result.outcomes[0]
    assert first.branch == BRANCH_HYPOTHESES
    assert first.proposals == [] and first.winner is None
    assert first.charge == 0  # a dropped slot is never scored, so it costs nothing
    assert sum(1 for line in first.log if "slot dropped" in line) == 3
    assert result.ledger.total_charged() == result.evaluator.metric_calls


def test_unmetered_rounds_are_bounded_by_the_stall_guard(small_dataset):
    """Rounds that meter nothing still generate: the seed's validation, then
    per round the parent baseline (b), one hypothesis call and K
    reflections, until MAX_STALLED_ROUNDS ends the run (the bound stated in
    the README's budget accounting)."""
    calls = []

    class CountingBrokenBackend(BrokenAgentBackend):
        def generate(self, request):
            calls.append(request.role)
            return super().generate(request)

    backend = CountingBrokenBackend(small_dataset, reflection_text="   \n  ")
    result = anomaly_run(small_dataset, backend, budget=30)
    K, b = 3, 10
    assert len(result.outcomes) == MAX_STALLED_ROUNDS
    assert result.evaluator.metric_calls == 0
    assert result.evaluator.uncharged_calls == len(small_dataset.val) + MAX_STALLED_ROUNDS * b
    assert len(calls) == len(small_dataset.val) + MAX_STALLED_ROUNDS * (b + 1 + K) == 2806


class FirstBlockOnlyBackend:
    """Wraps a backend; the hypothesis agent's reply keeps only its first block."""

    def __init__(self, inner):
        self.inner = inner

    def generate(self, request):
        text = self.inner.generate(request)
        if request.role == "hypothesis_agent":
            text = text.split("[HYPOTHESIS 2]")[0]
        return text


def test_short_hypothesis_reply_charges_only_metered_calls(dataset_50, taxonomy, defective_seed,
                                                          monkeypatch):
    metered = []
    step_round = OptimizationRun.step_round

    def metered_step_round(engine, iteration):
        before = engine.evaluator.metric_calls
        outcome = step_round(engine, iteration)
        metered.append(engine.evaluator.metric_calls - before)
        return outcome

    monkeypatch.setattr(OptimizationRun, "step_round", metered_step_round)
    backend = FirstBlockOnlyBackend(
        SyntheticBackend(SyntheticWorldConfig(), dataset_50, taxonomy, 0))
    config = RunConfig(rng_seed=0, budget=500, max_parallel=1)
    result = run(config, dataset_50, taxonomy, backend, defective_seed)
    assert result.ledger.total_charged() == result.evaluator.metric_calls
    assert [o.charge for o in result.outcomes] == metered
    hypothesis_rounds = [o for o in result.outcomes if o.branch == BRANCH_HYPOTHESES]
    assert hypothesis_rounds
    for outcome in hypothesis_rounds:
        assert len(outcome.proposals) == 1
        gated = len(dataset_50.val) if outcome.winner is not None else 0
        assert outcome.charge == config.b + gated


@pytest.mark.parametrize("mode", ["vista", "baseline"])
def test_each_agent_input_is_built_once(mode, dataset_50, taxonomy, defective_seed, monkeypatch):
    """The taxonomy block is rendered once per run, the failure block once per
    round for all of its agents, and each prompt a round scores has its
    records summed once: the parent's, each proposal's and the winner's."""
    rendered, formatted, summed, scored = [], [], [], []
    monkeypatch.setattr(optimizer, "render_taxonomy",
                        lambda *a: rendered.append(1) or agents.render_taxonomy(*a))
    monkeypatch.setattr(optimizer, "format_failures",
                        lambda *a, **kw: formatted.append(1) or agents.format_failures(*a, **kw))
    monkeypatch.setattr(optimizer, "sum", lambda values: summed.append(1) or sum(values),
                        raising=False)
    evaluate = Evaluator.evaluate

    def recording_evaluate(self, prompt_texts, items, **kwargs):
        scored.extend(prompt_texts)
        return evaluate(self, prompt_texts, items, **kwargs)

    monkeypatch.setattr(Evaluator, "evaluate", recording_evaluate)
    config = RunConfig(rng_seed=0, budget=300, p=0.0, mode=mode, max_parallel=1)
    engine = OptimizationRun(config, dataset_50, taxonomy,
                             SyntheticBackend(SyntheticWorldConfig(), dataset_50, taxonomy, 0),
                             defective_seed)
    scored.clear()  # the seed's validation pass sums nothing in the optimizer
    branches = set()
    iteration = 0
    while engine.ledger.remaining > 0:
        iteration += 1
        formatted.clear()
        outcome = engine.step_round(iteration)
        engine._apply(outcome)
        branches.add(outcome.branch)
        assert len(formatted) == 1, (iteration, outcome.branch)
    assert branches >= ({BRANCH_FALLBACK} if mode == "baseline" else {BRANCH_HYPOTHESES})
    assert len(rendered) == 1
    assert summed and len(summed) == len(scored)


def test_restart_lookahead_cap_reached_charges_single_probe(small_dataset):
    # unstructured seed: the base model emits unparseable output, and the
    # blank reflection keeps producing prompts that do no better, so the
    # look-ahead never observes a clean parse and gives up at the cap
    backend = BrokenAgentBackend(small_dataset,
                                 reflection_text="freeform prompt with no schema")
    config = RunConfig(K=3, p=1.0, epsilon=0.0, b=10, budget=5, rng_seed=0,
                       mode="vista", max_parallel=1, restart_lookahead_cap=3)
    result = run(config, small_dataset, default_taxonomy(), backend,
                 "unstructured seed without a marker")
    first = result.outcomes[0]
    assert first.branch == BRANCH_SKIPPED
    assert first.lookahead_steps == 3
    assert first.charge == 1  # only the first probe is metered
    assert result.evaluator.metric_calls >= 1


def test_fallback_empty_rewrite_skips(small_dataset):
    backend = BrokenAgentBackend(small_dataset, reflection_text="```\n```")
    config = RunConfig(K=3, p=0.0, epsilon=0.0, b=10, budget=5, rng_seed=0,
                       mode="baseline", max_parallel=1)
    result = run(config, small_dataset, default_taxonomy(), backend,
                 "seed prompt skill:0.30")
    first = result.outcomes[0]
    assert first.branch == BRANCH_SKIPPED and first.charge == 0
    assert any("empty rewrite" in line.lower() for line in first.log)


# ---------------------------------------------------------- run directory

class FailingBackend:
    """Wraps a backend and raises a transport failure on its Nth generation."""

    def __init__(self, inner, fail_at):
        self.inner = inner
        self.fail_at = fail_at
        self.calls = 0

    def generate(self, request):
        self.calls += 1
        if self.calls == self.fail_at:
            raise TransportFailureError(f"injected failure on generation {self.calls}")
        return self.inner.generate(request)


@pytest.mark.parametrize("fail_at", [250, 600])
def test_crash_leaves_state_of_completed_rounds(fail_at, dataset_50, taxonomy, defective_seed,
                                                tmp_path):
    backend = FailingBackend(SyntheticBackend(SyntheticWorldConfig(), dataset_50, taxonomy, 0),
                             fail_at=fail_at)
    out_dir = tmp_path / "run"
    engine = OptimizationRun(RunConfig(rng_seed=0, budget=5000, max_parallel=1), dataset_50,
                             taxonomy, backend, defective_seed, out_dir=out_dir)
    with pytest.raises(TransportFailureError):
        engine.run()
    completed = engine.outcomes
    assert len(completed) >= 3, "the failure should land a few rounds into the run"

    journal = (out_dir / "rounds.jsonl").read_text(encoding="utf-8")
    assert journal.endswith("\n")
    rounds = [json.loads(line) for line in journal.splitlines()]
    assert rounds == [json.loads(json_line(o)) for o in completed]

    ledger = json.loads((out_dir / "ledger.json").read_text(encoding="utf-8"))
    assert ledger == json.loads(json_text(engine.ledger))
    assert [(c["iteration"], c["branch"], c["amount"]) for c in ledger["charges"]] == [
        (r["iteration"], r["branch"], r["charge"]) for r in rounds]

    assert import_tree((out_dir / "trace.json").read_text(encoding="utf-8")) == engine.trace
    pool = json.loads((out_dir / "pool.json").read_text(encoding="utf-8"))
    assert pool["members"] == list(engine.pool.members)
    # No best_prompt.txt after a failure, and no temporary file left behind.
    assert sorted(f.name for f in out_dir.iterdir()) == [
        "config.json", "ledger.json", "pool.json", "rounds.jsonl", "trace.dot", "trace.json"]


def test_failed_journal_write_leaves_journal_and_snapshots_agreeing(dataset_50, taxonomy,
                                                                    defective_seed, tmp_path,
                                                                    monkeypatch):
    # The round's line is written before the round is applied, so a failed
    # write leaves round 3 out of the journal and out of the snapshots alike.
    json_line = optimizer.json_line
    calls = []

    def failing_json_line(data):
        calls.append(data)
        if len(calls) == 3:
            raise OSError("injected journal write failure")
        return json_line(data)

    monkeypatch.setattr(optimizer, "json_line", failing_json_line)
    out_dir = tmp_path / "run"
    engine = OptimizationRun(RunConfig(rng_seed=0, budget=500, max_parallel=1), dataset_50,
                             taxonomy, SyntheticBackend(SyntheticWorldConfig(), dataset_50,
                                                        taxonomy, 0),
                             defective_seed, out_dir=out_dir)
    with pytest.raises(OSError, match="injected"):
        engine.run()
    journal = (out_dir / "rounds.jsonl").read_text(encoding="utf-8").splitlines()
    charges = json.loads((out_dir / "ledger.json").read_text(encoding="utf-8"))["charges"]
    assert len(charges) == len(journal) == len(engine.outcomes) == 2
    assert [json.loads(line)["iteration"] for line in journal] == [
        c["iteration"] for c in charges] == [1, 2]
    trace_rounds = {e.iteration for e in import_tree(
        (out_dir / "trace.json").read_text(encoding="utf-8")).edges}
    assert trace_rounds <= {1, 2}


def test_crash_in_first_validation_gate_leaves_seed_state(dataset_50, taxonomy, defective_seed):
    # Generations 1-50 score the seed on validation, 51-58 the parent's
    # minibatch, 59 is the hypothesis agent, 60-62 the reflections and 63-86
    # the three proposals; 87 is the first of round 1's validation gate.
    backend = FailingBackend(SyntheticBackend(SyntheticWorldConfig(), dataset_50, taxonomy, 0),
                             fail_at=87)
    engine = OptimizationRun(RunConfig(rng_seed=0, budget=5000, max_parallel=1), dataset_50,
                             taxonomy, backend, defective_seed)
    with pytest.raises(TransportFailureError):
        engine.run()
    assert engine.evaluator.metric_calls == 3 * 8, "the proposals were scored, the gate was not"
    assert set(engine.candidates) == set(engine.trace.nodes) == {0}
    assert engine.trace.edges == []
    assert engine.pool.members == [0]
    assert engine.best.id == 0
    assert engine.ledger.charges == [] and engine.ledger.remaining == 5000
    assert engine.outcomes == []


def test_persisted_run_exports_trace_once_per_format(dataset_50, taxonomy, defective_seed,
                                                      tmp_path, monkeypatch):
    export_tree = optimizer.export_tree
    formats = []
    monkeypatch.setattr(optimizer, "export_tree",
                        lambda tree, fmt: formats.append(fmt) or export_tree(tree, fmt))
    rounds = []
    for budget in (200, 800):
        formats.clear()
        backend = SyntheticBackend(SyntheticWorldConfig(), dataset_50, taxonomy, 0)
        result = run(RunConfig(rng_seed=0, budget=budget), dataset_50, taxonomy, backend,
                     defective_seed, out_dir=tmp_path / f"b{budget}")
        assert sorted(formats) == ["dot", "json"], f"budget {budget}: {formats}"
        rounds.append(len(result.outcomes))
    assert rounds[0] < rounds[1]


def test_benchmark_tracer_patch_points_record_spans(dataset_50, taxonomy, defective_seed,
                                                   monkeypatch):
    """The benchmark's tracer wraps the agents' four functions at their names
    in ``optimizer`` and the evaluator's public methods; a run made while it
    is installed records spans at each, so a refactor that calls around a
    patch point fails here."""
    import importlib
    from pathlib import Path

    import vistaopt

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    bench_trace = importlib.import_module("bench_trace")
    tracer = bench_trace.Tracer(0)
    with tracer.installed(vistaopt):
        backend = SyntheticBackend(SyntheticWorldConfig(), dataset_50, taxonomy, 0)
        vistaopt.run(RunConfig(rng_seed=0, budget=300), dataset_50, taxonomy, backend,
                     defective_seed)
    names = {span[2] for span in tracer.spans}
    for name in ("agents.render.render_hypothesis_prompt", "agents.render.render_reflection_prompt",
                 "agents.parse.parse_hypotheses", "agents.parse.extract_rewritten_prompt",
                 "evaluation.evaluate", "optimizer.run"):
        assert name in names, name
    assert optimizer.parse_hypotheses is agents.parse_hypotheses, "the tracer restored its patches"
