"""Tests of the benchmark's own helpers: the percentile rule, self time over
overlapping worker-thread spans, stub determinism and run-seed derivation.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import threading
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from bench_stats import percentile, tail_label, tail_percentile
from bench_trace import Profile, Tracer, self_time
from stub import FAIL_EVERY, StubState, make_server, synthetic_answerer
from workloads import run_seed


@pytest.mark.parametrize("n, expected", [
    (0, None), (99, None), (100, 90), (999, 90), (1000, 99),
    (9999, 99), (10000, Fraction(999, 10)), (100000, Fraction(9999, 100)),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_interpolates_and_labels():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile(list(range(101)), 90) == 90
    assert percentile([7.0], 99) == 7.0
    assert tail_label(Fraction(999, 10)) == "p99.9"
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_subtracts_union_of_overlapping_children():
    # [1,4] and [3,6] overlap; [8,12] is clipped to the parent's end.
    assert self_time(0, 10, [(3, 6), (8, 12), (1, 4)]) == pytest.approx(3)
    assert self_time(0, 10, []) == 10
    assert self_time(0, 10, [(0, 10), (2, 3)]) == 0
    assert self_time(5, 10, [(0, 4)]) == 5


def test_worker_spans_take_the_evaluator_span_as_parent():
    tracer = Tracer(seed=3)
    gate = threading.Barrier(2)

    def work(_):
        gate.wait(timeout=10)  # both workers inside their spans at once

    leaf = tracer.wrap("backends.synthetic.generate.base", work)

    def evaluate():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(leaf, range(2)))

    tracer.wrap("evaluation.evaluate_items", evaluate, ambient=True)()
    spans = {name: [] for name in ("evaluation.evaluate_items", "backends.synthetic.generate.base")}
    for span in tracer.spans:
        spans[span[2]].append(span)
    (parent,) = spans["evaluation.evaluate_items"]
    workers = spans["backends.synthetic.generate.base"]
    assert [w[1] for w in workers] == [parent[0], parent[0]]
    assert {s[5] for s in tracer.spans} == {3}
    profile = Profile()
    profile.add_spans(tracer.spans)
    first, last = min(w[3] for w in workers), max(w[4] for w in workers)
    overlap_free = (parent[4] - parent[3]) - (last - first)
    assert profile.dispatch_s == pytest.approx(overlap_free)
    assert profile.evaluator_calls == 1


def _post(base: str, path: str, body: dict) -> tuple[int, bytes]:
    request = urllib.request.Request(base + path, data=json.dumps(body).encode(),
                                     headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def test_stub_answers_identical_bodies_identically():
    server = make_server(synthetic_answerer())
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.server_address[1]}"
        body = {"model": "m-hyp", "messages": [
            {"role": "user", "content": "Please generate exactly 3 diverse hypotheses."}]}
        first = _post(base, "/seed/5/chat/completions", body)
        second = _post(base, "/seed/5/chat/completions", body)
        assert first[0] == 200
        assert first == second
        assert "[HYPOTHESIS 3]" in json.loads(first[1])["choices"][0]["message"]["content"]
        stats = json.loads(_post(base, "/reset", {})[1])
        assert (stats["requests"], stats["failed"], stats["injected"]) == (2, 0, 0)
        assert min(stats["service_s"]) >= 0.005
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_stub_fails_every_fiftieth_request():
    state = StubState(lambda seed, body: "ok")
    statuses = [state.respond(n, "/seed/1/chat/completions", b"{}")[0]
                for n in range(1, 2 * FAIL_EVERY + 1)]
    assert [n for n, s in enumerate(statuses, 1) if s != 200] == [FAIL_EVERY, 2 * FAIL_EVERY]
    assert set(statuses) == {200, 503}


def test_run_seeds_are_deterministic_distinct_and_31_bit():
    seeds = [run_seed(7, i) for i in range(1000)]
    assert seeds == [run_seed(7, i) for i in range(1000)]
    assert len(set(seeds)) == len(seeds)
    assert all(0 <= s < 2**31 for s in seeds)
    assert run_seed(8, 0) != run_seed(7, 0)
    assert run_seed(7, "warmup") not in seeds
