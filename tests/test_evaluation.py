import math
import random
import threading
import time

import pytest

from vistaopt.backends.synthetic import SyntheticBackend
from vistaopt.errors import MinibatchMismatchError
from vistaopt.evaluation import (
    EvaluationRecord,
    Evaluator,
    MinibatchResult,
    collect_failures,
    delta_acc,
    exact_match,
    extract_final_answer,
    normalize_answer,
    sample_minibatch,
    score_output,
)


def make_result(ids, scores):
    records = tuple(
        EvaluationRecord(item_id=i, raw_output="raw", parse_error=None,
                         extracted_answer="x", score=s)
        for i, s in zip(ids, scores)
    )
    return MinibatchResult(minibatch=tuple(ids), records=records)


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


# --------------------------------------------------------------- sampling

def train_ids(dataset):
    return [item.id for item in dataset.train]


def test_sample_full_permutation(dataset_50):
    rng = random.Random(1)
    ids = sample_minibatch(train_ids(dataset_50), 50, rng)
    assert sorted(ids) == sorted(i.id for i in dataset_50.train)


def test_sample_deterministic_with_seed(dataset_50):
    a = [sample_minibatch(train_ids(dataset_50), 8, random.Random(5)) for _ in range(10)]
    b = [sample_minibatch(train_ids(dataset_50), 8, random.Random(5)) for _ in range(10)]
    assert a == b


def test_sample_distinct_ids(dataset_50):
    ids = sample_minibatch(train_ids(dataset_50), 8, random.Random(0))
    assert len(ids) == 8 and len(set(ids)) == 8


def test_sample_inclusion_frequency_3_sigma(dataset_50):
    # frozen-seed check that every item's empirical inclusion frequency is
    # within 3 sigma of b/|train| over 1000 draws
    rng = random.Random(123)
    n, b, size = 1000, 8, 50
    counts = {item.id: 0 for item in dataset_50.train}
    for _ in range(n):
        for picked in sample_minibatch(train_ids(dataset_50), b, rng):
            counts[picked] += 1
    p = b / size
    sigma = math.sqrt(p * (1 - p) / n)
    for item_id, count in counts.items():
        assert abs(count / n - p) < 3 * sigma, item_id


# --------------------------------------------------------------- delta acc

def test_delta_acc_from_counts():
    ids = [f"i{k}" for k in range(8)]
    candidate = make_result(ids, [1, 1, 1, 1, 1, 1, 1, 0])
    parent = make_result(ids, [1, 0, 0, 0, 0, 0, 0, 0])
    assert delta_acc(candidate, parent) == 6


def test_delta_acc_identity_and_antisymmetry():
    ids = [f"i{k}" for k in range(8)]
    a = make_result(ids, [1, 0, 1, 0, 1, 0, 1, 0])
    b = make_result(ids, [0, 0, 1, 1, 0, 0, 1, 1])
    assert delta_acc(a, a) == 0
    assert delta_acc(a, b) == -delta_acc(b, a)


def test_delta_acc_minibatch_mismatch():
    a = make_result(["x", "y"], [1, 0])
    b = make_result(["y", "x"], [1, 0])
    with pytest.raises(MinibatchMismatchError):
        delta_acc(a, b)


# ---------------------------------------------------------------- failures

def test_collect_failures_complement(dataset_50):
    ids = [item.id for item in dataset_50.train[:8]]
    result = make_result(ids, [1, 0, 0, 0, 0, 0, 0, 0])
    failures = collect_failures(result, dataset_50)
    assert len(failures) == 7
    assert failures[0].question == dataset_50.item(ids[1]).question


def test_collect_failures_empty_on_perfect(dataset_50):
    ids = [item.id for item in dataset_50.train[:8]]
    result = make_result(ids, [1] * 8)
    assert collect_failures(result, dataset_50) == []


def test_collect_failures_parse_errors(dataset_50):
    ids = [item.id for item in dataset_50.train[:8]]
    records = tuple(
        EvaluationRecord(item_id=i, raw_output="garbage", parse_error="NoObjectFound",
                         extracted_answer=None, score=0)
        for i in ids
    )
    result = MinibatchResult(minibatch=tuple(ids), records=records)
    failures = collect_failures(result, dataset_50)
    assert len(failures) == 8
    assert all(f.parse_error == "NoObjectFound" for f in failures)


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
    ids = [item.id for item in dataset_50.train[:8]]
    a = seq.evaluate_batches([defective_seed], dataset_50, ids, charged=True)[0]
    b = par.evaluate_batches([defective_seed], dataset_50, ids, charged=True)[0]
    assert a == b
    assert seq.metric_calls == par.metric_calls == 8

    threads = set()
    pooled = Evaluator(ThreadRecordingBackend(backend, threads), max_parallel=4)
    c = pooled.evaluate_batches([defective_seed], dataset_50, ids, charged=True)[0]
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
    ids = [item.id for item in dataset_50.train[:8]]
    ev.evaluate_batches([defective_seed, defective_seed + "\n"], dataset_50, ids, charged=True)
    assert backend.threads == {threading.get_ident()}
    assert ev.metric_calls == 16


def test_evaluator_charged_vs_uncharged(synthetic_backend, dataset_50, defective_seed):
    ev = Evaluator(synthetic_backend, max_parallel=1)
    ids = [item.id for item in dataset_50.train[:4]]
    ev.evaluate_batches([defective_seed], dataset_50, ids, charged=False)
    assert (ev.metric_calls, ev.uncharged_calls) == (0, 4)
    ev.evaluate_batches([defective_seed], dataset_50, ids, charged=True)
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

    assert counting.base_calls == len(memo.evaluator._memo) == 473
    assert (memo.evaluator.metric_calls, memo.evaluator.uncharged_calls) == (5007, 2490)
    assert (memo.evaluator.metric_calls, memo.evaluator.uncharged_calls) == (
        plain.evaluator.metric_calls, plain.evaluator.uncharged_calls)
    assert memo.ledger.total_charged() == plain.ledger.total_charged() == 5007
    assert plain.evaluator._memo is None
    assert memo.trace == plain.trace and memo.best == plain.best


def test_memo_one_dispatch_generates_repeated_pairs_once(world, dataset_50, taxonomy, defective_seed):
    backend = CountingSynthetic(world, dataset_50, taxonomy)
    ev = Evaluator(backend, max_parallel=4)
    ids = [item.id for item in dataset_50.train[:8]]
    first, second = ev.evaluate_batches([defective_seed, defective_seed], dataset_50, ids,
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
    records = ev.evaluate_items(repaired_seed, items, charged=False)
    assert [r.score for r in records] == [1, 1, 0, 1, 0]
    assert records[0] is records[1]
    assert len(ev._memo) == backend.base_calls == 4
    # A prompt with the same features gets the same raw output: one score record.
    again = ev.evaluate_items(repaired_seed + "\n", items[:1], charged=False)
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
    ids = [item.id for item in dataset_50.train[:8]]
    a = ev.evaluate_batches([defective_seed, defective_seed], dataset_50, ids, charged=True)
    b = ev.evaluate_batches([defective_seed], dataset_50, ids, charged=False)
    assert a[0] == a[1] == b[0]
    assert backend.calls == 24
    assert (ev.metric_calls, ev.uncharged_calls) == (16, 8)


def test_role_router_memoized_exactly_when_its_base_backend_is(world, dataset_50, taxonomy,
                                                               defective_seed):
    """The evaluator sends a router only base-role requests, so the router
    declares ``in_process`` and ``deterministic`` as its base-role backend."""
    from vistaopt.backends.base import RoleRouter

    class Canned:
        def generate(self, request):
            return "canned"

    def evaluate_twice(ev):
        ids = [item.id for item in dataset_50.train[:8]]
        a = ev.evaluate_batches([defective_seed, defective_seed], dataset_50, ids, charged=True)
        b = ev.evaluate_batches([defective_seed], dataset_50, ids, charged=False)
        assert a[0] == a[1] == b[0]
        assert (ev.metric_calls, ev.uncharged_calls) == (16, 8)

    counting = CountingSynthetic(world, dataset_50, taxonomy)
    router = RoleRouter(counting, hypothesis_agent=Canned())
    assert router.in_process and router.deterministic
    evaluate_twice(Evaluator(router, max_parallel=2))
    assert counting.base_calls == 8

    forwarding = ForwardingBackend(SyntheticBackend(world, dataset_50, taxonomy, run_seed=0))
    router = RoleRouter(forwarding, hypothesis_agent=Canned())
    assert not router.in_process and not router.deterministic
    ev = Evaluator(router, max_parallel=2)
    assert ev._memo is None and ev._scores is None
    evaluate_twice(ev)
    assert forwarding.calls == 24

    router = RoleRouter(forwarding, base=counting)
    assert router.in_process and router.deterministic


def test_memo_failed_dispatch_changes_no_counter_or_record(world, dataset_50, taxonomy,
                                                           defective_seed):
    backend = CountingSynthetic(world, dataset_50, taxonomy, fail_at=7)
    ev = Evaluator(backend, max_parallel=1)
    items = list(dataset_50.train[:8])
    ev.evaluate_items(defective_seed, items[:4], charged=True)
    before = dict(ev._memo)
    with pytest.raises(RuntimeError, match="injected"):
        ev.evaluate_items(defective_seed, items, charged=False)
    assert backend.base_calls == 6
    assert (ev.metric_calls, ev.uncharged_calls) == (4, 0)
    assert ev._memo == before
