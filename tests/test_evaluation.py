import threading
import time

import pytest

from vistaopt import optimizer
from vistaopt.backends.synthetic import SyntheticBackend, SyntheticWorldConfig
from vistaopt.domain import UNLABELED, RunConfig
from vistaopt.evaluation import (
    EvaluationRecord,
    Evaluator,
    collect_failures,
    exact_match,
    extract_final_answer,
    normalize_answer,
    score_output,
)
from vistaopt.optimizer import BRANCH_FALLBACK, OptimizationRun, RoundOutcome
from vistaopt.optimizer import run as optimizer_run


def make_records(items, scores):
    return tuple(
        EvaluationRecord(item_id=item.id, raw_output="raw", parse_error=None,
                         extracted_answer="x", score=s)
        for item, s in zip(items, scores)
    )


# ------------------------------------------------------------- extraction

def test_extract_simple_object():
    assert extract_final_answer('{"final_answer": "8", "solution_pad": "..."}') == ("8", None)


def test_extract_not_json():
    assert extract_final_answer("not json at all") == (None, "NoObjectFound")


def test_extract_field_order_irrelevant():
    raw = '{"solution_pad": "...", "final_answer": "1068"}'
    assert extract_final_answer(raw) == ("1068", None)


def test_extract_missing_field():
    assert extract_final_answer('{"solution_pad": "..."}') == (None, "MissingField")


def test_extract_surrounded_by_prose():
    raw = 'Sure! Here is the result:\n{"final_answer": 42}\nHope that helps.'
    assert extract_final_answer(raw) == ("42", None)


def test_extract_skips_malformed_prefix_object():
    raw = '{"oops": unquoted} then {"final_answer": "7"}'
    assert extract_final_answer(raw) == ("7", None)


def test_extract_numeric_value_normalized():
    assert extract_final_answer('{"final_answer": 6.0}') == ("6", None)


def test_extract_non_scalar_field():
    assert extract_final_answer('{"final_answer": [1, 2]}') == (None, "MissingField")


def test_extract_braces_inside_strings():
    raw = '{"solution_pad": "use {braces} here", "final_answer": "3"}'
    assert extract_final_answer(raw) == ("3", None)


# ------------------------------------------------------------- exact match

def test_exact_match_wrong_answer():
    assert exact_match("8", "6") == 0


def test_exact_match_identity():
    assert exact_match("6", "6") == 1


def test_exact_match_decimal_normalization():
    # both parse to the same decimal
    assert exact_match("6.0", "6") == 1
    assert exact_match(normalize_answer(" 6 "), "6") == 1
    assert exact_match(normalize_answer('"6"'), "6") == 1


def test_exact_match_no_epsilon():
    assert exact_match("6.0001", "6") == 0


def test_exact_match_string_fallback():
    assert exact_match("apple", "apple") == 1
    assert exact_match("apple", "apples") == 0


def test_normalize_thousands_separator():
    assert normalize_answer("1,068") == "1068"
    assert normalize_answer("6.50") == "6.5"
    assert normalize_answer("600") == "600"


# ---------------------------------------------------------------- failures

def test_collect_failures_complement(dataset_50):
    items = dataset_50.train[:8]
    records = make_records(items, [1, 0, 0, 0, 0, 0, 0, 0])
    failures = collect_failures(items, records)
    assert len(failures) == 7
    assert failures[0] == (items[1], records[1])
    assert failures[0][0].question == dataset_50.item(items[1].id).question


def test_collect_failures_empty_on_perfect(dataset_50):
    items = dataset_50.train[:8]
    assert collect_failures(items, make_records(items, [1] * 8)) == []


def test_collect_failures_parse_errors(dataset_50):
    items = dataset_50.train[:8]
    records = tuple(
        EvaluationRecord(item_id=item.id, raw_output="garbage", parse_error="NoObjectFound",
                         extracted_answer=None, score=0)
        for item in items
    )
    failures = collect_failures(items, records)
    assert len(failures) == 8
    assert all(record.parse_error == "NoObjectFound" for _, record in failures)


# ------------------------------------------------- round minibatch sampling

def make_engine(dataset, taxonomy, seed_prompt, **overrides):
    config = RunConfig(max_parallel=1, **{"rng_seed": 0, **overrides})
    backend = SyntheticBackend(SyntheticWorldConfig(), dataset, taxonomy, config.rng_seed)
    return OptimizationRun(config, dataset, taxonomy, backend, seed_prompt)


def test_sample_full_permutation(dataset_50, taxonomy, defective_seed):
    engine = make_engine(dataset_50, taxonomy, defective_seed, rng_seed=1,
                         b=len(dataset_50.train))
    outcome = engine.step_round(1)
    assert sorted(outcome.minibatch) == sorted(item.id for item in dataset_50.train)


def test_sample_deterministic_with_seed(dataset_50, taxonomy, defective_seed):
    a, b = (optimizer_run(RunConfig(rng_seed=5, budget=300, max_parallel=1), dataset_50,
                          taxonomy, SyntheticBackend(SyntheticWorldConfig(), dataset_50,
                                                     taxonomy, 5), defective_seed)
            for _ in range(2))
    assert len(a.outcomes) > 1
    assert [o.minibatch for o in a.outcomes] == [o.minibatch for o in b.outcomes]


def test_sample_distinct_ids(dataset_50, taxonomy, defective_seed):
    engine = make_engine(dataset_50, taxonomy, defective_seed)
    train_ids = {item.id for item in dataset_50.train}
    for iteration in range(1, 4):
        ids = engine.step_round(iteration).minibatch
        assert len(ids) == engine.config.b and len(set(ids)) == engine.config.b
        assert set(ids) <= train_ids


# ------------------------------------------------------- minibatch gains

def verify_rows(engine, items, parent_correct, rows):
    """Run ``_verify`` on one proposal per score row, with the evaluator
    replaced by one that returns ``rows`` on the minibatch and zeros on the
    validation set; returns the proposal records."""
    def evaluate(texts, scored_items, *, charged):
        if scored_items is items:
            return [make_records(items, rows[int(text)]) for text in texts]
        return [make_records(scored_items, [0] * len(scored_items)) for _ in texts]

    engine.evaluator.evaluate = evaluate
    outcome = RoundOutcome(iteration=1, branch=BRANCH_FALLBACK, parent_id=0,
                           minibatch=tuple(item.id for item in items))
    slots = [(k, UNLABELED, "fallback", str(k)) for k in range(len(rows))]
    engine._verify(outcome, items, parent_correct, slots)
    return outcome.proposals


def test_delta_acc_from_counts(dataset_50, taxonomy, defective_seed):
    engine = make_engine(dataset_50, taxonomy, defective_seed)
    items = dataset_50.train[:8]
    (proposal,) = verify_rows(engine, items, 1, [[1, 1, 1, 1, 1, 1, 1, 0]])
    assert (proposal.correct_count, proposal.delta_minibatch) == (7, 6)


def test_delta_acc_identity_and_antisymmetry(dataset_50, taxonomy, defective_seed):
    engine = make_engine(dataset_50, taxonomy, defective_seed)
    items = dataset_50.train[:8]
    a = [1, 0, 1, 0, 1, 0, 1, 0]
    b = [0, 0, 1, 1, 0, 0, 1, 0]
    (same,) = verify_rows(engine, items, sum(a), [a])
    assert same.delta_minibatch == 0
    (a_over_b,) = verify_rows(engine, items, sum(b), [a])
    (b_over_a,) = verify_rows(engine, items, sum(a), [b])
    assert a_over_b.delta_minibatch == -b_over_a.delta_minibatch == 1


def test_correct_count_sums_records_once(dataset_50, taxonomy, defective_seed, monkeypatch):
    engine = make_engine(dataset_50, taxonomy, defective_seed)
    sums = []
    monkeypatch.setattr(optimizer, "sum", lambda values: sums.append(1) or sum(values),
                        raising=False)
    items = dataset_50.train[:3]
    proposals = verify_rows(engine, items, 1, [[1, 0, 1], [0, 0, 0], [1, 0, 0]])
    assert [p.correct_count for p in proposals] == [2, 0, 1]
    assert [p.delta_minibatch for p in proposals] == [1, -1, 0]
    # one sum per proposal on the minibatch, one for the winner's validation
    assert len(sums) == len(proposals) + 1


def test_record_invariant_enforced():
    with pytest.raises(ValueError):
        EvaluationRecord(item_id="x", raw_output="r", parse_error="NoObjectFound",
                         extracted_answer="6", score=1)


def test_score_output_score_implies_match(dataset_50):
    item = dataset_50.train[0]
    rec = score_output(item, f'{{"final_answer": "{item.gold_answer}"}}')
    assert rec.score == 1 and rec.extracted_answer == item.gold_answer
    rec = score_output(item, '{"final_answer": "wrong"}')
    assert rec.score == 0 and rec.parse_error is None


# -------------------------------------------------- evaluator parallelism

class ThreadRecordingBackend:
    """Plain forwarding wrapper: declares no ``in_process``, so the
    evaluator dispatches it on its pool.  Adds each calling thread to
    ``threads``."""

    def __init__(self, inner, threads):
        self.inner = inner
        self.threads = threads

    def generate(self, request):
        self.threads.add(threading.get_ident())
        time.sleep(0.001)  # long enough that the pool hands work to several workers
        return self.inner.generate(request)


def test_evaluator_parallel_matches_sequential(world, dataset_50, taxonomy, defective_seed):
    from vistaopt.backends.synthetic import SyntheticBackend

    backend = SyntheticBackend(world, dataset_50, taxonomy, run_seed=0)
    seq = Evaluator(backend, max_parallel=1)
    par = Evaluator(backend, max_parallel=4)
    items = dataset_50.train[:8]
    a = seq.evaluate([defective_seed], items, charged=True)[0]
    b = par.evaluate([defective_seed], items, charged=True)[0]
    assert a == b
    assert seq.metric_calls == par.metric_calls == 8

    threads = set()
    pooled = Evaluator(ThreadRecordingBackend(backend, threads), max_parallel=4)
    c = pooled.evaluate([defective_seed], items, charged=True)[0]
    assert c == a
    assert pooled.metric_calls == 8
    assert len(threads) > 1


def test_in_process_backend_runs_on_callers_thread(world, dataset_50, taxonomy, defective_seed):
    from vistaopt.backends.synthetic import SyntheticBackend

    class ThreadRecordingSynthetic(SyntheticBackend):
        def generate(self, request):
            self.threads.add(threading.get_ident())
            return super().generate(request)

    backend = ThreadRecordingSynthetic(world, dataset_50, taxonomy, run_seed=0)
    backend.threads = set()
    ev = Evaluator(backend, max_parallel=4)
    ev.evaluate([defective_seed, defective_seed + "\n"], dataset_50.train[:8], charged=True)
    assert backend.threads == {threading.get_ident()}
    assert ev.metric_calls == 16


def test_evaluator_charged_vs_uncharged(synthetic_backend, dataset_50, defective_seed):
    ev = Evaluator(synthetic_backend, max_parallel=1)
    items = dataset_50.train[:4]
    ev.evaluate([defective_seed], items, charged=False)
    assert (ev.metric_calls, ev.uncharged_calls) == (0, 4)
    ev.evaluate([defective_seed], items, charged=True)
    assert (ev.metric_calls, ev.uncharged_calls) == (4, 4)


# ------------------------------------------------------ evaluation memo

class CountingSynthetic(SyntheticBackend):
    """Counts base-role calls; raises on the ``fail_at``-th one."""

    def __init__(self, world, dataset, taxonomy, run_seed=0, fail_at=None):
        super().__init__(world, dataset, taxonomy, run_seed=run_seed)
        self.base_calls = 0
        self.fail_at = fail_at

    def generate(self, request):
        if request.role == "base":
            if self.base_calls + 1 == self.fail_at:
                raise RuntimeError("injected generation failure")
            self.base_calls += 1
        return super().generate(request)


class ForwardingBackend:
    """Plain forwarding wrapper: declares neither ``in_process`` nor
    ``deterministic``, and counts every call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def generate(self, request):
        self.calls += 1
        return self.inner.generate(request)


def memo_pairs(evaluator):
    """The (prompt, item) pairs in the evaluator's memo of records by item per prompt."""
    return sum(len(records) for records in evaluator._memo.values())


def test_memo_generates_each_distinct_pair_once_per_run(world, dataset_50, taxonomy,
                                                         defective_seed):
    """The benchmark's config (K=3, p=0.2, epsilon=0.1, b=8, budget 5000),
    seed 1: 7,497 requested pairs, 473 of them distinct."""
    from vistaopt import run
    from vistaopt.domain import RunConfig

    config = RunConfig(K=3, p=0.2, epsilon=0.1, b=8, budget=5000, rng_seed=1, max_parallel=1)
    counting = CountingSynthetic(world, dataset_50, taxonomy, run_seed=1)
    memo = run(config, dataset_50, taxonomy, counting, defective_seed)
    plain_backend = ForwardingBackend(SyntheticBackend(world, dataset_50, taxonomy, run_seed=1))
    plain = run(config, dataset_50, taxonomy, plain_backend, defective_seed)

    assert counting.base_calls == memo_pairs(memo.evaluator) == 473
    assert (memo.evaluator.metric_calls, memo.evaluator.uncharged_calls) == (5007, 2490)
    assert (memo.evaluator.metric_calls, memo.evaluator.uncharged_calls) == (
        plain.evaluator.metric_calls, plain.evaluator.uncharged_calls)
    assert memo.ledger.total_charged() == plain.ledger.total_charged() == 5007
    assert plain.evaluator._memo is None
    assert memo.trace == plain.trace and memo.best == plain.best


def test_memo_one_dispatch_generates_repeated_pairs_once(world, dataset_50, taxonomy, defective_seed):
    backend = CountingSynthetic(world, dataset_50, taxonomy)
    ev = Evaluator(backend, max_parallel=4)
    first, second = ev.evaluate([defective_seed, defective_seed], dataset_50.train[:8],
                                charged=True)
    assert first == second
    assert backend.base_calls == 8
    assert ev.metric_calls == 16


def test_memo_key_is_the_whole_item(world, dataset_50, taxonomy, repaired_seed):
    """Equal items built separately share one memo entry; items that repeat
    an id but differ in any field do not."""
    from vistaopt.domain import TaskItem

    easy, other = dataset_50.train[0], dataset_50.train[1]

    def build(**change):
        fields = dict(id="q", question=easy.question, gold_answer=easy.gold_answer)
        return TaskItem(**{**fields, **change})

    items = [build(), build(), build(gold_answer="wrong"), build(difficulty=0.99),
             build(question=other.question)]
    backend = CountingSynthetic(world, dataset_50, taxonomy)
    ev = Evaluator(backend)
    (records,) = ev.evaluate([repaired_seed], items, charged=False)
    assert [r.score for r in records] == [1, 1, 0, 1, 0]
    assert records[0] is records[1]
    assert memo_pairs(ev) == backend.base_calls == 4
    # A prompt with the same features gets the same raw output: one score record.
    (again,) = ev.evaluate([repaired_seed + "\n"], items[:1], charged=False)
    assert again[0] is records[0] and backend.base_calls == 5


def test_pickled_item_hashes_like_a_fresh_one_in_another_process(tmp_path):
    """The cached hash is not pickled: str hashes differ between processes."""
    import os
    import pickle
    import subprocess
    import sys
    from pathlib import Path

    import vistaopt
    from vistaopt.domain import TaskItem

    fields = dict(id="q", question="What is 2 + 2?", gold_answer="4", difficulty=0.5)
    item = TaskItem(**fields)
    (tmp_path / "item.pkl").write_bytes(pickle.dumps(item))
    script = (
        "import pickle, sys\n"
        "from vistaopt.domain import TaskItem\n"
        "item = pickle.loads(open(sys.argv[1], 'rb').read())\n"
        f"fresh = TaskItem(**{fields!r})\n"
        "print(hash('q'), hash(item) == hash(fresh), item == fresh, {fresh: 1}.get(item))\n")
    other_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    env = {**os.environ, "PYTHONHASHSEED": other_seed,
           "PYTHONPATH": str(Path(vistaopt.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "item.pkl")], env=env,
                         capture_output=True, text=True, timeout=60, check=True).stdout.split()
    assert int(out[0]) != hash("q"), "the child must hash strings differently"
    assert out[1:] == ["True", "True", "1"]


def test_no_memo_without_deterministic(world, dataset_50, taxonomy, defective_seed):
    backend = ForwardingBackend(SyntheticBackend(world, dataset_50, taxonomy, run_seed=0))
    ev = Evaluator(backend, max_parallel=1)
    items = dataset_50.train[:8]
    a = ev.evaluate([defective_seed, defective_seed], items, charged=True)
    b = ev.evaluate([defective_seed], items, charged=False)
    assert a[0] == a[1] == b[0]
    assert backend.calls == 24
    assert (ev.metric_calls, ev.uncharged_calls) == (16, 8)


def test_role_router_memoized_exactly_when_its_base_backend_is(world, dataset_50, taxonomy,
                                                               defective_seed):
    """The evaluator sends only base-role requests, so through a router they
    are memoized and serial exactly when the base-role backend declares so."""
    from vistaopt.backends.base import RoleRouter

    class Canned:
        def generate(self, request):
            return "canned"

    class ThreadRecordingSynthetic(CountingSynthetic):
        def __init__(self, *args):
            super().__init__(*args)
            self.threads = set()

        def generate(self, request):
            self.threads.add(threading.get_ident())
            return super().generate(request)

    def evaluate_twice(router):
        ev = Evaluator(router, max_parallel=2)
        items = dataset_50.train[:8]
        a = ev.evaluate([defective_seed, defective_seed], items, charged=True)
        b = ev.evaluate([defective_seed], items, charged=False)
        assert a[0] == a[1] == b[0]
        assert (ev.metric_calls, ev.uncharged_calls) == (16, 8)

    synthetic = ThreadRecordingSynthetic(world, dataset_50, taxonomy)
    evaluate_twice(RoleRouter(synthetic, hypothesis_agent=Canned()))
    assert synthetic.base_calls == 8
    assert synthetic.threads == {threading.get_ident()}

    forwarding = ForwardingBackend(SyntheticBackend(world, dataset_50, taxonomy, run_seed=0))
    evaluate_twice(RoleRouter(SyntheticBackend(world, dataset_50, taxonomy, run_seed=0),
                              base=forwarding))
    assert forwarding.calls == 24


def test_memo_failed_dispatch_changes_no_counter_or_record(world, dataset_50, taxonomy,
                                                           defective_seed):
    backend = CountingSynthetic(world, dataset_50, taxonomy, fail_at=7)
    ev = Evaluator(backend, max_parallel=1)
    items = list(dataset_50.train[:8])
    ev.evaluate([defective_seed], items[:4], charged=True)
    before = {text: dict(records) for text, records in ev._memo.items()}
    with pytest.raises(RuntimeError, match="injected"):
        ev.evaluate([defective_seed], items, charged=False)
    assert backend.base_calls == 6
    assert (ev.metric_calls, ev.uncharged_calls) == (4, 0)
    assert ev._memo == before
