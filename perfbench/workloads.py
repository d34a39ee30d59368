"""The benchmark's workloads: their inputs, the set-up each needs before its
first run, run-seed derivation, one timed run, and the correctness checks.

Importing this module imports no part of vistaopt; ``Env`` does, so that a
fresh interpreter that builds an ``Env`` times the library's imports as
part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STUB = Path(__file__).resolve().parent / "stub.py"

# One load process with two evaluator workers and two HTTP requests in
# flight: the machine the benchmark was sized on has two cores.
MAX_PARALLEL = 2
MAX_IN_FLIGHT = 2
EXPECTED_BEST = 0.86
STUB_MODELS = {"base": "m-base", "hypothesis_agent": "m-hyp", "reflection_agent": "m-ref"}
STUB_START_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Workload:
    name: str
    budget: int
    persist: bool
    http: bool


WORKLOADS = {w.name: w for w in (
    Workload("synth-5k", budget=5000, persist=False, http=False),
    Workload("synth-5k-persist", budget=5000, persist=True, http=False),
    Workload("http-stub", budget=500, persist=False, http=True),
)}


def run_seed(workload_seed: int, index: int | str) -> int:
    """Seed of the ``index``-th run of an invocation.  It ignores the
    workload name, so synth-5k and synth-5k-persist get the same inputs
    for the same ``--seed``."""
    digest = hashlib.sha256(f"{workload_seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


class StubProcess:
    """The chat-completions stub in its own process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(STUB)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, cwd=ROOT)
        try:
            line = self.proc.stdout.readline()
            if not line.strip():
                raise RuntimeError("stub exited before printing its port")
            self.base = f"http://127.0.0.1:{int(line)}"
            self._wait_ready()
        except BaseException:
            self.close()
            raise

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + STUB_START_TIMEOUT_S
        while True:
            try:
                self._call("GET", "/stats")
                return
            except OSError:
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    raise
                time.sleep(0.01)

    def _call(self, method: str, path: str) -> dict:
        request = urllib.request.Request(self.base + path, method=method, data=b"" if method == "POST" else None)
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.loads(response.read())

    def url(self, seed: int) -> str:
        return f"{self.base}/seed/{seed}"

    def reset(self) -> dict:
        """Counters since the previous reset."""
        return self._call("POST", "/reset")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Env:
    """Everything a workload needs before its first run: the library, the
    dataset, taxonomy, seed prompt and templates, one backend, and on
    http-stub a stub that answers."""

    def __init__(self, workload: Workload):
        sys.path.insert(0, str(SRC))
        import vistaopt
        from vistaopt import agents, optimizer

        if Path(vistaopt.__file__).resolve().parent != SRC / "vistaopt":
            raise ImportError(f"imported vistaopt from {vistaopt.__file__}, not {SRC}")
        self.vistaopt = vistaopt
        self.optimizer = optimizer
        self.workload = workload
        self.dataset = vistaopt.make_synthetic_dataset(50, 50)
        self.taxonomy = vistaopt.default_taxonomy()
        self.seed_prompt = vistaopt.load_seed_prompt("defective")
        self.world = vistaopt.SyntheticWorldConfig()
        agents.load_template("hypothesis")
        agents.load_template("reflection")
        self.stub = StubProcess() if workload.http else None
        self.backend(0)  # constructing a backend is part of set-up

    def config(self, seed: int):
        return self.vistaopt.RunConfig(
            K=3, p=0.2, epsilon=0.1, b=8, budget=self.workload.budget,
            rng_seed=seed, max_parallel=MAX_PARALLEL)

    def backend(self, seed: int):
        if self.stub is None:
            return self.vistaopt.SyntheticBackend(self.world, self.dataset, self.taxonomy, seed)
        return self.vistaopt.HttpBackend(
            base_url=self.stub.url(seed), model=STUB_MODELS["base"], role_models=STUB_MODELS,
            api_key="", backoff_base=0.01, max_in_flight=MAX_IN_FLIGHT)

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()


@dataclass
class RunRecord:
    wall_s: float
    result: object
    stub_stats: dict | None
    problems: list[str]


def execute(env: Env, seed: int, out_dir: Path | None, wrap=None) -> RunRecord:
    """One timed ``vistaopt.run()`` and its checks.  ``wrap``, when given,
    receives the backend and returns the object passed to ``run()``; the
    timed region is the ``run()`` call alone."""
    backend = env.backend(seed)
    if wrap is not None:
        backend = wrap(backend)
    config = env.config(seed)
    if env.stub is not None:
        env.stub.reset()
    start = time.perf_counter()
    result = env.vistaopt.run(config, env.dataset, env.taxonomy, backend, env.seed_prompt,
                              out_dir=out_dir)
    wall_s = time.perf_counter() - start
    stub_stats = env.stub.reset() if env.stub is not None else None
    return RunRecord(wall_s, result, stub_stats, check(env, result, out_dir, stub_stats))


def check(env: Env, result, out_dir: Path | None, stub_stats: dict | None) -> list[str]:
    """Correctness problems of one finished run; empty when it is correct."""
    problems = []
    if not math.isclose(result.best.val_accuracy, EXPECTED_BEST, abs_tol=1e-9):
        problems.append(f"best_val_acc {result.best.val_accuracy} != {EXPECTED_BEST}")
    if result.ledger.total_charged() != result.evaluator.metric_calls:
        problems.append(f"ledger {result.ledger.total_charged()} != "
                        f"metric calls {result.evaluator.metric_calls}")
    if out_dir is not None:
        trace_text = (out_dir / "trace.json").read_text(encoding="utf-8")
        if env.vistaopt.import_tree(trace_text) != result.trace:
            problems.append("trace.json does not re-import to the run's trace")
        if (out_dir / "best_prompt.txt").read_text(encoding="utf-8") != result.best.text:
            problems.append("best_prompt.txt differs from the best prompt")
    if stub_stats is not None and stub_stats["failed"]:
        problems.append(f"stub answered {stub_stats['failed']} request(s) with an error")
    return problems


def tree_bytes(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
