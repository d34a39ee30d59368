"""Candidate scoring: answer extraction, the exact-match metric, the
evaluator, and failure-case collection.

The budget meters scored evaluations only.  Parent-baseline re-evaluations
and extra restart look-ahead probes are tracked separately as uncharged
work so the ledger stays an exact mirror of the charged counter.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Sequence

from .backends.base import Backend, GenerationRequest, declared
from .domain import TaskItem

NO_OBJECT_FOUND = "NoObjectFound"
MISSING_FIELD = "MissingField"

_NUMBER_RE = re.compile(r"^[+-]?[\d,]*\.?\d+$")
_DECODER = json.JSONDecoder()


def _canonical_decimal(d: Decimal) -> str:
    if d == d.to_integral_value():
        return str(int(d))
    return str(d.normalize())


def normalize_answer(text: str) -> str:
    """Trim, strip one layer of quotes, and canonicalize numerics so that
    "6", "6.0" and " 6 " all compare equal."""
    s = text.strip()
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "\"'":
        s = s[1:-1].strip()
    compact = s.replace(",", "")
    if _NUMBER_RE.match(s):
        try:
            return _canonical_decimal(Decimal(compact))
        except InvalidOperation:
            pass
    return s


def _parse_decimal(s: str) -> Decimal | None:
    try:
        return Decimal(s)
    except InvalidOperation:
        return None


def exact_match(pred: str, gold: str) -> int:
    """1 iff numeric-equal when both parse as decimals, else string-equal.

    Exact decimal comparison, no epsilon: task answers are integers or
    short decimals, and an epsilon would silently pass answers like 6.0001.
    """
    if pred == gold:
        return 1
    dp, dg = _parse_decimal(pred), _parse_decimal(gold)
    if dp is not None and dg is not None:
        return int(dp == dg)
    return 0


def extract_final_answer(raw: str) -> tuple[str | None, str | None]:
    """Read the ``final_answer`` field of the first well-formed object in
    ``raw``.

    Scans for balanced ``{...}`` blocks rather than requiring the whole
    output to be one object; models occasionally wrap the object in prose
    and strictness would conflate format failures with reasoning failures.

    Returns ``(normalized_answer, None)`` or ``(None, parse_error)``.
    """
    idx = raw.find("{")
    obj = None
    while idx != -1:
        try:
            parsed, _end = _DECODER.raw_decode(raw, idx)
        except ValueError:
            idx = raw.find("{", idx + 1)
            continue
        if isinstance(parsed, dict):
            obj = parsed
            break
        idx = raw.find("{", idx + 1)
    if obj is None:
        return None, NO_OBJECT_FOUND
    if "final_answer" not in obj:
        return None, MISSING_FIELD
    value = obj["final_answer"]
    if not isinstance(value, (str, int, float)):
        return None, MISSING_FIELD
    return normalize_answer(str(value)), None


@dataclass(frozen=True)
class EvaluationRecord:
    item_id: str
    raw_output: str
    parse_error: str | None
    extracted_answer: str | None
    score: int

    def __post_init__(self):
        if self.parse_error is not None and (self.score != 0 or self.extracted_answer is not None):
            raise ValueError("parse_error implies score 0 and no extracted answer")


def collect_failures(items: Sequence[TaskItem], records: Sequence[EvaluationRecord]
                     ) -> list[tuple[TaskItem, EvaluationRecord]]:
    """``(item, record)`` for every score-0 record, in minibatch order."""
    return [(item, record) for item, record in zip(items, records) if record.score == 0]


def score_output(item: TaskItem, raw: str) -> EvaluationRecord:
    extracted, err = extract_final_answer(raw)
    if err is not None:
        return EvaluationRecord(item_id=item.id, raw_output=raw, parse_error=err,
                                extracted_answer=None, score=0)
    return EvaluationRecord(
        item_id=item.id,
        raw_output=raw,
        parse_error=None,
        extracted_answer=extracted,
        score=exact_match(extracted, item.gold_answer),
    )


def generate_in_order(backend: Backend, requests: Sequence[GenerationRequest],
                      max_parallel: int) -> list[str]:
    """Response texts for ``requests``, all of one role, in request order,
    generated concurrently up to ``max_parallel``, or serially when the role's
    backend declares ``in_process``, where threads cost more than the work."""
    if max_parallel > 1 and len(requests) > 1 and not declared(backend, "in_process", requests[0].role):
        from concurrent.futures import ThreadPoolExecutor  # never loaded for in_process roles
        with ThreadPoolExecutor(max_workers=max_parallel) as pool:
            return list(pool.map(backend.generate, requests))
    return [backend.generate(request) for request in requests]


class Evaluator:
    """Runs prompts over task items through a generation backend and keeps
    the charged/uncharged metric-call counters the ledger is checked
    against.

    Every evaluation goes through one dispatch path: the call's
    (prompt, item) grid is generated concurrently up to ``max_parallel``
    (serially for a backend that declares ``in_process``, where threads
    cost more than the work), merged slot-then-item (prompt order, then
    item order), scored, and counted as charged or uncharged, so downstream
    state is schedule-independent.  All randomness is drawn by the
    coordinator before dispatch.

    A backend that declares ``deterministic`` has each distinct (prompt,
    item) pair generated and scored once per evaluator, and repeats still
    count, and each distinct (item, raw output) is scored once.  Sampled
    models are not memoized: verification compares fresh samples.
    """

    def __init__(self, backend: Backend, max_parallel: int = 1):
        self.backend = backend
        self.max_parallel = max(1, int(max_parallel))
        self.metric_calls = 0
        self.uncharged_calls = 0
        memo = declared(backend, "deterministic", "base")
        self._memo: dict[tuple[str, TaskItem], EvaluationRecord] | None = {} if memo else None
        self._scores: dict[tuple[TaskItem, str], EvaluationRecord] | None = {} if memo else None

    def _score(self, item: TaskItem, raw: str) -> EvaluationRecord:
        if self._scores is None:
            return score_output(item, raw)
        if (item, raw) not in self._scores:
            self._scores[item, raw] = score_output(item, raw)
        return self._scores[item, raw]

    def _generate_and_score(self, tasks: Sequence[tuple[str, TaskItem]]) -> list[EvaluationRecord]:
        requests = [GenerationRequest(role="base",
                                      messages=(("system", text), ("user", item.question)))
                    for text, item in tasks]
        raws = generate_in_order(self.backend, requests, self.max_parallel)
        return [self._score(item, raw) for (_text, item), raw in zip(tasks, raws)]

    def _dispatch(self, tasks: Sequence[tuple[str, TaskItem]], *,
                  charged: bool) -> list[EvaluationRecord]:
        if self._memo is None:
            records = self._generate_and_score(tasks)
        else:
            # Keyed on the whole item, not its id: callers of predict/score
            # build their own items, and ids may repeat.
            records = [self._memo.get(t) for t in tasks]
            missing = list(dict.fromkeys(t for t, r in zip(tasks, records) if r is None))
            if missing:
                self._memo.update(zip(missing, self._generate_and_score(missing)))
                records = [self._memo[t] for t in tasks]
        if charged:
            self.metric_calls += len(tasks)
        else:
            self.uncharged_calls += len(tasks)
        return records

    def evaluate(self, prompt_texts: Sequence[str], items: Sequence[TaskItem], *,
                 charged: bool) -> list[tuple[EvaluationRecord, ...]]:
        """Each prompt's records, in item order.  Several prompts on the same
        items (a round's rewrites on its minibatch) share one dispatch."""
        records = self._dispatch(
            [(text, item) for text in prompt_texts for item in items], charged=charged)
        n = len(items)
        return [tuple(records[s * n:(s + 1) * n]) for s in range(len(prompt_texts))]
