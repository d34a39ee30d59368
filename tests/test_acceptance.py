"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import random
import statistics
import time

import pytest

from test_http_backend import HYPOTHESIS_RESPONSE, StubServer, completion
from test_pareto import check_pool_invariants, non_dominated_subset
from test_trace import bfs_depths, random_tree

from vistaopt.agents import (
    format_failures,
    load_template,
    parse_hypotheses,
    render_hypothesis_prompt,
    render_reflection_prompt,
    render_taxonomy,
)
from vistaopt.backends.base import RoleRouter
from vistaopt.backends.http import HttpBackend
from vistaopt.backends.synthetic import (
    SyntheticBackend,
    SyntheticWorldConfig,
    extract_features,
    make_synthetic_dataset,
)
from vistaopt.domain import Hypothesis, RunConfig, TaskItem, default_taxonomy, load_seed_prompt
from vistaopt.evaluation import EvaluationRecord, exact_match, normalize_answer
from vistaopt.optimizer import (
    BRANCH_FALLBACK,
    BRANCH_HYPOTHESES,
    BRANCH_RESTART,
    run,
)
from vistaopt.pareto import ParetoPool
from vistaopt.trace import detect_oscillation, export_tree, import_tree


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def synthetic_run(seed=0, world=None, **overrides):
    dataset = make_synthetic_dataset(50, 50)
    taxonomy = default_taxonomy()
    world = world or SyntheticWorldConfig()
    config = RunConfig(rng_seed=seed, max_parallel=1, **overrides)
    backend = SyntheticBackend(world, dataset, taxonomy, run_seed=seed)
    return run(config, dataset, taxonomy, backend, load_seed_prompt("defective")), dataset


def test_criterion_1_defective_seed_recovery():
    start = time.perf_counter()
    result, _ = synthetic_run(seed=0)
    elapsed = time.perf_counter() - start
    seed_acc = result.candidates[0].val_accuracy
    accepted_labels = {e.label for e in result.trace.accepted_edges()}
    ok = (
        "cot_field_ordering" in accepted_labels
        and result.best.val_accuracy >= 0.80
        and extract_features(result.best.text)["solution_first"]
        and abs(seed_acc - 0.24) <= 0.02
        and elapsed < 10.0
    )
    report(1, ok, f"seed acc {seed_acc:.2f} -> best {result.best.val_accuracy:.2f}, "
                  f"labels {sorted(accepted_labels)}, {elapsed:.2f}s")


def test_criterion_2_baseline_stagnation():
    start = time.perf_counter()
    finals = []
    world = SyntheticWorldConfig()
    # the free prior puts no mass on the planted cause
    assert world.free_prior.get(world.true_root_cause, 0.0) == 0.0
    for seed in range(10):
        result, _ = synthetic_run(seed=seed, world=world, mode="baseline")
        finals.append(result.best.val_accuracy)
        attributed = [e for e in result.trace.accepted_edges() if e.label != "unlabeled"]
        assert attributed == [], f"seed {seed} has attributed fixes"
        assert not extract_features(result.best.text)["solution_first"], \
            f"seed {seed}: planted defect was repaired in baseline mode"
    elapsed = time.perf_counter() - start
    ok = all(acc < 0.40 for acc in finals) and elapsed < 30.0
    report(2, ok, f"final accuracies {sorted(set(finals))}, {elapsed:.2f}s (seeds 0..9)")


def test_criterion_3_expected_rounds_bound():
    start = time.perf_counter()
    details = []
    ok = True
    for beta, budget in ((0.3, 1000), (0.6, 500), (0.9, 300)):
        world = SyntheticWorldConfig(heuristic_success=beta)
        assert world.free_prior.get(world.true_root_cause, 0.0) == 0.0
        rounds = []
        for seed in range(500):
            result, _ = synthetic_run(seed=seed, world=world, p=0.0, epsilon=0.0,
                                      budget=budget)
            first = next((o.iteration for o in result.outcomes
                          if o.winner_label == "cot_field_ordering"), None)
            assert first is not None, f"beta={beta} seed={seed}: root cause never won"
            rounds.append(first)
        mean = statistics.mean(rounds)
        target = 1.0 / beta
        within = abs(mean - target) <= 0.15 * target
        ok = ok and within
        details.append(f"beta={beta}: mean {mean:.3f} vs {target:.3f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    report(3, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_4_budget_exactness():
    rng = random.Random(2024)
    checked_rounds = 0
    for trial in range(100):
        train_size = rng.randint(12, 30)
        val_size = rng.randint(12, 30)
        b = rng.randint(2, min(10, train_size))
        config = RunConfig(
            K=rng.randint(1, 4),
            p=rng.choice([0.0, 0.2, 0.5, 1.0]),
            epsilon=rng.random(),
            b=b,
            budget=rng.randint(60, 240),
            rng_seed=trial,
            mode=rng.choice(["vista", "vista", "vista", "baseline"]),
            max_parallel=1,
            restart_lookahead_cap=rng.randint(1, 5),
        )
        dataset = make_synthetic_dataset(train_size, val_size)
        taxonomy = default_taxonomy()
        world = SyntheticWorldConfig(heuristic_success=rng.choice([0.3, 0.8]))
        backend = SyntheticBackend(world, dataset, taxonomy, run_seed=trial)
        result = run(config, dataset, taxonomy, backend, load_seed_prompt("defective"))

        ledger = result.ledger
        assert ledger.remaining + ledger.total_charged() == ledger.initial
        assert result.evaluator.metric_calls == ledger.total_charged(), trial
        # The last round starts with at least one call left and charges at
        # most its largest branch plus a validation gate.
        assert -ledger.remaining <= max(b * config.K, b + 1) + val_size - 1, trial
        base = {BRANCH_RESTART: b + 1, BRANCH_HYPOTHESES: b * config.K,
                BRANCH_FALLBACK: b}
        for outcome in result.outcomes:
            expected = base[outcome.branch]
            if outcome.winner is not None:
                expected += val_size
            assert outcome.charge == expected, (trial, outcome.iteration)
            checked_rounds += 1
    report(4, True, f"100 randomized runs, {checked_rounds} rounds, ledger == metric counter exactly")


def test_criterion_5_pareto_oracle():
    rng = random.Random(77)
    for trial in range(1000):
        length = rng.randint(1, 4)
        n = rng.randint(1, 6)
        vectors = {cid: tuple(rng.randint(0, 1) for _ in range(length))
                   for cid in range(n)}
        pool = ParetoPool(vector_length=length)
        for cid, vec in vectors.items():
            pool.try_insert(cid, vec)
            check_pool_invariants(pool)
        oracle = non_dominated_subset(vectors)
        assert set(pool.members) <= oracle, trial
        assert {vectors[m] for m in pool.members} == {vectors[c] for c in oracle}, trial
    report(5, True, "1000 randomized insert sequences match the brute-force oracle")


def test_criterion_6_trace_integrity():
    rng = random.Random(31)
    for _ in range(1000):
        tree = random_tree(rng)
        assert import_tree(export_tree(tree, "json")) == tree
        depths = bfs_depths(tree)
        for nid in tree.nodes:
            assert len(tree.trajectory(nid)) == depths[nid]

    alphabet = ["A", "B", "A+B"]
    sequences = [[]]
    for _ in range(6):
        sequences = [s + [l] for s in sequences for l in alphabet] + sequences
    from test_trace import brute_force_oscillation
    for seq in {tuple(s) for s in sequences}:
        assert detect_oscillation(list(seq), 4) == brute_force_oscillation(list(seq), 4)
    report(6, True, "1000 tree round-trips, depth law, oscillation matches brute force")


def test_criterion_7_template_fidelity():
    taxonomy = default_taxonomy()
    failures = format_failures([(
        TaskItem(id="q", question="q", gold_answer="1"),
        EvaluationRecord(item_id="q", raw_output="r", parse_error=None, extracted_answer="0",
                         score=0))])
    hyp_text = render_hypothesis_prompt(
        load_template("hypothesis"), "PROMPT", render_taxonomy(taxonomy), failures, 3)
    refl_text = render_reflection_prompt(
        load_template("reflection"), "PROMPT",
        Hypothesis(label="cot_field_ordering", description="d", fix="f",
                   origin="heuristic"), failures)
    scaffold_ok = ("[HYPOTHESIS 1]" in hyp_text and "TAG:" in hyp_text
                   and "Root cause label:" in refl_text)
    parsed, malformed = parse_hypotheses(HYPOTHESIS_RESPONSE, 3, taxonomy)
    parse_ok = malformed == 0 and [h.label for h in parsed] == [
        "cot_field_ordering", "task_instruction_clarity", "reasoning_strategy"]
    report(7, scaffold_ok and parse_ok,
           "rendered scaffold lines present; parser recovered all K=3 tags")


def test_criterion_8_metric_fidelity():
    cases = [
        (("8", "6"), 0),
        (("6", "6"), 1),
        (("6.0", "6"), 1),
        ((normalize_answer(" 6 "), "6"), 1),
        ((normalize_answer('"6"'), "6"), 1),
        ((normalize_answer("1,068"), "1068"), 1),
        (("6.0001", "6"), 0),
        (("06", "6"), 1),
        (("-3.50", "-3.5"), 1),
        (("apple", "apple"), 1),
        (("apple", "apples"), 0),
    ]
    for (pred, gold), want in cases:
        assert exact_match(pred, gold) == want, (pred, gold)
    report(8, True, f"{len(cases)} exact-match pairs at zero tolerance")


def test_criterion_9_determinism(tmp_path):
    dirs = []
    for name in ("first", "second"):
        out = tmp_path / name
        dataset = make_synthetic_dataset(50, 50)
        taxonomy = default_taxonomy()
        backend = SyntheticBackend(SyntheticWorldConfig(), dataset, taxonomy, run_seed=0)
        run(RunConfig(rng_seed=0), dataset, taxonomy, backend,
            load_seed_prompt("defective"), out_dir=out)
        dirs.append(out)
    a, b = dirs
    rel_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    rel_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    identical = rel_a == rel_b and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in rel_a)
    report(9, identical, f"{len(rel_a)} artifact files byte-identical across two runs")


def test_criterion_10_http_conformance():
    dataset = make_synthetic_dataset(50, 50)
    taxonomy = default_taxonomy()
    defective = load_seed_prompt("defective")
    repaired = load_seed_prompt("repaired")
    script = [
        (500, {}),  # injected transport failure, retried with backoff
        (200, completion(HYPOTHESIS_RESPONSE)),
        (200, completion(repaired)),
        (200, completion(defective + "\n\nnote a")),
        (200, completion(defective + "\n\nnote b")),
    ]
    config = RunConfig(rng_seed=0, p=0.0, budget=1, max_parallel=1)
    with StubServer(script) as stub:
        http = HttpBackend(base_url=stub.base_url, backoff_base=0.0)
        backend = RoleRouter(
            default=SyntheticBackend(SyntheticWorldConfig(), dataset, taxonomy, 0),
            hypothesis_agent=http,
            reflection_agent=http,
        )
        result = run(config, dataset, taxonomy, backend, defective)
    round_done = len(result.outcomes) == 1 and result.outcomes[0].winner is not None
    expected_posts = config.K + 1 + 1  # K rewrites + 1 hypothesis call + 1 retry
    ok = round_done and len(stub.requests) == expected_posts and http.retries == 1
    report(10, ok, f"{len(stub.requests)} POSTs for one round "
                   f"(K={config.K} rewrites + 1 hypothesis + 1 bounded retry)")
