"""Spans for the traced run, recorded from outside the library.

While ``Tracer.installed`` is active, the public entry points of each layer
are replaced by timing wrappers: class methods on their classes, module
functions at the name their caller resolves, and the backend through a
proxy handed to ``run()``.  Spans stay in memory; ``Profile`` folds each
run's spans into per-layer figures, and ``write_spans`` saves one run's
spans when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import pathlib
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable

from stub import SERVICE_HEADER

# Longest prefix first, so backends.http is not read as a "backends" layer.
LAYERS = ("backends.synthetic", "backends.http", "optimizer", "evaluation",
          "agents", "trace", "pareto")

# A span: (id, parent id or None, name, start, end, run seed).
Span = tuple


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """The span's duration minus the union of its children's intervals,
    clipped to the span.  Children from worker threads may overlap."""
    covered = 0.0
    run_start = run_end = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in children):
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        covered += run_end - run_start
    return (end - start) - covered


class Tracer:
    """Collects spans from the coordinator and the evaluator's workers.

    A worker thread has no open span of its own, so its spans take the
    innermost open evaluator span as parent; the coordinator is the only
    thread that opens evaluator spans, so there is one such span at a time.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.spans: list[Span] = []
        self.http_samples: list[tuple[float, float]] = []  # (round trip, stub service) in s
        self.bytes_written = 0
        self.pool_members_max = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._ambient: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, *, ambient: bool = False,
             observe: Callable | None = None) -> Callable:
        """``fn`` recording one span per call.  ``ambient`` makes the span
        the parent of worker-thread spans while it is open; ``observe``
        receives the call's arguments, result and duration."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._ambient
            sid = next(tracer._ids)
            stack.append(sid)
            if ambient:
                outer, tracer._ambient = tracer._ambient, sid
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if ambient:
                    tracer._ambient = outer
                tracer.spans.append((sid, parent, name, start, end, tracer.seed))
            if observe is not None:
                observe(args, result, end - start)
            return result

        return traced

    def proxy(self, backend) -> "TracedBackend":
        return TracedBackend(self, backend)

    @contextlib.contextmanager
    def installed(self, vistaopt):
        """Wrap the layers' entry points of the imported ``vistaopt``
        package, and restore them on exit."""
        from vistaopt import evaluation, optimizer
        from vistaopt.backends import http
        from vistaopt.evaluation import Evaluator
        from vistaopt.pareto import ParetoPool
        from vistaopt.trace import SemanticTraceTree

        undo: list[tuple[object, str, object]] = []

        def patch(owner, attr: str, replacement) -> None:
            undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)

        def traced(owner, attr: str, name: str, **kw) -> None:
            patch(owner, attr, self.wrap(name, vars(owner)[attr], **kw))

        def public(cls) -> list[str]:
            return [a for a, v in vars(cls).items() if callable(v) and not a.startswith("_")]

        try:
            traced(vistaopt, "run", "optimizer.run")
            traced(optimizer.OptimizationRun, "step_round", "optimizer.round")
            traced(optimizer, "export_tree", "optimizer.artifacts.export_tree")
            write = self.wrap("optimizer.artifacts.write", vars(pathlib.Path)["write_text"])

            def write_text(path, data, *args, **kwargs):
                self.bytes_written += len(data.encode("utf-8"))
                return write(path, data, *args, **kwargs)

            patch(pathlib.Path, "write_text", write_text)
            for attr in public(Evaluator):
                traced(Evaluator, attr, f"evaluation.{attr}", ambient=True)
            traced(evaluation, "score_output", "evaluation.score_output")
            for attr in ("render_hypothesis_prompt", "render_reflection_prompt"):
                traced(optimizer, attr, f"agents.render.{attr}")
            for attr in ("parse_hypotheses", "extract_rewritten_prompt"):
                traced(optimizer, attr, f"agents.parse.{attr}")
            for attr in ("trajectory", "record_proposal"):
                traced(SemanticTraceTree, attr, f"trace.{attr}")
            for attr in public(ParetoPool):
                traced(ParetoPool, attr, f"pareto.{attr}",
                       observe=self._observe_pool if attr == "try_insert" else None)
            post = self.wrap("backends.http.post", http.requests.post, observe=self._observe_post)
            patch(http, "requests", _RequestsProxy(http.requests, post))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _observe_pool(self, args, _result, _duration) -> None:
        self.pool_members_max = max(self.pool_members_max, len(args[0]))

    def _observe_post(self, _args, response, duration) -> None:
        service_us = response.headers.get(SERVICE_HEADER)
        if service_us is not None:
            self.http_samples.append((duration, int(service_us) / 1e6))


class _RequestsProxy:
    """Stands in for the ``requests`` module inside the HTTP backend, with
    a traced ``post``."""

    def __init__(self, real, post: Callable):
        self._real = real
        self.post = post

    def __getattr__(self, name: str):
        return getattr(self._real, name)


class TracedBackend:
    """Proxy around the backend passed to ``run()``: one span per
    generation, named by backend kind and role."""

    def __init__(self, tracer: Tracer, backend):
        from vistaopt import HttpBackend
        from vistaopt.backends.base import ROLES

        layer = "backends.http" if isinstance(backend, HttpBackend) else "backends.synthetic"
        self._generate = {role: tracer.wrap(f"{layer}.generate.{role}", backend.generate)
                          for role in ROLES}

    def generate(self, request):
        return self._generate[request.role](request)


class Profile:
    """Per-layer figures folded from every traced run: its spans, the
    tracer's counters, the run's result and the stub's counters."""

    def __init__(self):
        self.runs = 0
        self.rounds = 0
        self.spans = 0
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_s: dict[str, float] = defaultdict(float)
        self.dispatch_s = 0.0
        self.evaluator_calls = 0
        self.items_charged = 0
        self.items_uncharged = 0
        self.edges = 0
        self.bytes_written = 0
        self.pool_members_max = 0
        self.http_samples: list[tuple[float, float]] = []
        self.stub = {"connections": 0, "injected": 0, "failed": 0, "in_flight_max": 0}

    def add_run(self, tracer: Tracer, result, stub_stats: dict | None) -> None:
        self.runs += 1
        self.rounds += len(result.outcomes)
        self.add_spans(tracer.spans)
        self.items_charged += result.evaluator.metric_calls
        self.items_uncharged += result.evaluator.uncharged_calls
        self.edges += len(result.trace.edges)
        self.bytes_written += tracer.bytes_written
        self.pool_members_max = max(self.pool_members_max, tracer.pool_members_max)
        self.http_samples.extend(tracer.http_samples)
        if stub_stats is not None:
            for key in ("connections", "injected", "failed"):
                self.stub[key] += stub_stats[key]
            self.stub["in_flight_max"] = max(self.stub["in_flight_max"],
                                             stub_stats["in_flight_max"])

    def add_spans(self, spans: list[Span]) -> None:
        self.spans += len(spans)
        children: dict[int | None, list[tuple[float, float]]] = defaultdict(list)
        names = {}
        for sid, parent, name, start, end, _seed in spans:
            children[parent].append((start, end))
            names[sid] = name
        for sid, parent, name, start, end, _seed in spans:
            own = self_time(start, end, children.get(sid, ()))
            self.self_s[layer_of(name)] += own
            if name.startswith("evaluation.") and name != "evaluation.score_output":
                # Evaluator methods: their self time is dispatch overhead.
                self.dispatch_s += own
                if not names.get(parent, "").startswith("evaluation."):
                    self.evaluator_calls += 1
            self.durations[name].append(end - start)

    def matching(self, prefix: str) -> list[float]:
        """Durations of every span whose name starts with ``prefix``."""
        return [d for name, ds in self.durations.items() if name.startswith(prefix) for d in ds]


def write_spans(path: Path, spans: list[Span]) -> None:
    """One JSON object per span, times in seconds from the first span."""
    origin = min((s[3] for s in spans), default=0.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for sid, parent, name, start, end, seed in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "seed": seed,
                                 "start": start - origin, "end": end - origin}) + "\n")
