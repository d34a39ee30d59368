"""vistaopt benchmark: full optimization runs on one workload, with their
correctness checks, from one command.

    python3 perfbench/run.py --workload synth-5k --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times set-up in fresh interpreters, warms up with two
persisted runs of one seed (whose directories must be byte-identical), then
repeats ``vistaopt.run()`` with derived seeds until ``--seconds`` have
passed, timing each run and each round.  With ``--trace 1`` it alternates
untraced and traced runs of the same seeds and reports per-layer figures
and the tracing overhead.  It prints one line per metric, then, as the last
line, a JSON object with the metrics named in ``BENCHMARK.json``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from bench_stats import percentile, tail_label, tail_percentile
from bench_trace import LAYERS, Profile, Tracer, write_spans
from workloads import ROOT, SRC, WORKLOADS, Env, execute, remove, run_seed, tree_bytes

OUT = ROOT / ".perfbench"
PROBE = Path(__file__).resolve().parent / "probe.py"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


class Report:
    """Metric lines for the reader and the values for the JSON line."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str, n: int | None = None, *,
            line_only: bool = False) -> None:
        samples = f"  (n={n})" if n is not None else ""
        print(f"{self.workload:18s} {name:42s} {value:14.6g} {unit}{samples}", flush=True)
        if not line_only:
            self.metrics[name] = {"value": value, "unit": unit}

    def tail(self, name: str, values: list[float], unit: str) -> None:
        """p50 and p90 of ``values``, and on the reader's lines the highest
        percentile with at least ten samples beyond it, when that is above
        p90."""
        self.add(f"{name}.p50", percentile(values, 50), unit, len(values))
        self.add(f"{name}.p90", percentile(values, 90), unit, len(values))
        top = tail_percentile(len(values))
        if top is not None and top > 90:
            self.add(f"{name}.{tail_label(top)}", percentile(values, top), unit, len(values),
                     line_only=True)


class CountingBackend:
    """Counts generations of all roles; used only on untimed runs."""

    def __init__(self, backend):
        self._backend = backend
        self._lock = threading.Lock()
        self.calls = 0

    def generate(self, request):
        with self._lock:
            self.calls += 1
        return self._backend.generate(request)


@contextlib.contextmanager
def round_clock(optimizer, entries: list[float]):
    """Record when each ``OptimizationRun.step_round`` is entered."""
    cls = optimizer.OptimizationRun
    original = vars(cls)["step_round"]

    def step_round(self, iteration):
        entries.append(time.perf_counter())
        return original(self, iteration)

    cls.step_round = step_round
    try:
        yield
    finally:
        cls.step_round = original


class Runner:
    """Runs of one invocation, with the failures among them."""

    def __init__(self, env: Env, scratch: Path):
        self.env = env
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0

    def attempt(self, seed: int, label: str, *, keep_dir: bool = False, wrap=None):
        """One run; returns its record, or None when it raised.  A record
        with problems counts as failed.  The run directory, if any, is
        removed unless ``keep_dir``."""
        self.attempted += 1
        out_dir = self.scratch / label if self.env.workload.persist or keep_dir else None
        if out_dir is not None:
            remove(out_dir)
        try:
            record = execute(self.env, seed, out_dir, wrap=wrap)
        except Exception:
            self.failed += 1
            print(f"run {label} (seed {seed}) raised:", file=sys.stderr)
            traceback.print_exc()
            return None
        finally:
            if out_dir is not None and not keep_dir:
                remove(out_dir)
        if record.problems:
            self.failed += 1
            print(f"run {label} (seed {seed}) failed: {'; '.join(record.problems)}",
                  file=sys.stderr)
        return record

    def warm_up(self, seed: int) -> float | None:
        """Two persisted runs of one seed whose directories must match byte
        for byte; returns generations per charged evaluation."""
        counters = []

        def counting(backend):
            counters.append(CountingBackend(backend))
            return counters[-1]

        records = [self.attempt(seed, f"warmup-{i}", keep_dir=True, wrap=counting)
                   for i in range(2)]
        dirs = [self.scratch / f"warmup-{i}" for i in range(2)]
        if all(records) and tree_bytes(dirs[0]) != tree_bytes(dirs[1]):
            print("warm-up: two runs of one seed wrote different directories", file=sys.stderr)
            if not records[1].problems:  # the second run fails, once
                self.failed += 1
        for d in dirs:
            remove(d)
        if records[0] is None:
            return None
        return counters[0].calls / records[0].result.evaluator.metric_calls


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the machine so far, where the kernel
    reports them; steal is time the host gave this machine's CPUs to
    someone else."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]
    except OSError:
        return None
    ticks = [int(f) for f in fields]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def pin_to_one_cpu() -> None:
    """Keep this process, and the stub and probes it starts, on one CPU.

    On a small virtual machine whose CPUs the host shares with other
    tenants, a run whose threads hand work back and forth across two CPUs
    ran 0.4 s in one minute and 2 s in the next; on one CPU the same runs
    stayed within 0.36-0.66 s.  The evaluator's thread-pool cost still
    shows on one CPU (max_parallel 2 ran 2.5x slower than max_parallel 1).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe_setup(workload: str) -> list[float]:
    """Set-up time of ``SETUP_PROBES`` fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(PROBE), workload], capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def measure(runner: Runner, report: Report, seed: int, seconds: float,
            setup_samples: list[float]) -> None:
    env = runner.env
    gens_per_eval = runner.warm_up(run_seed(seed, "warmup"))
    walls, gaps, rates, best = [], [], [], []
    ticks_before = cpu_ticks()
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        if i and time.perf_counter() >= deadline:
            break
        entries: list[float] = []
        with round_clock(env.optimizer, entries):
            record = runner.attempt(run_seed(seed, i), f"run-{i}")
        if record is None:
            continue
        walls.append(record.wall_s)
        gaps.extend((b - a) * 1e3 for a, b in zip(entries, entries[1:]))
        rates.append(record.result.evaluator.metric_calls / record.wall_s)
        best.append(record.result.best.val_accuracy)
    ticks_after = cpu_ticks()
    if not walls or gens_per_eval is None:
        raise RuntimeError("no run completed")
    report.add("setup_s", statistics.median(setup_samples), "s", len(setup_samples))
    report.add("run_s.p50", statistics.median(walls), "s", len(walls))
    report.tail("round_ms", gaps, "ms")
    report.add("evals_per_s", statistics.median(rates), "1/s", len(rates))
    report.add("gens_per_eval", gens_per_eval, "gen/eval", 1)
    report.add("best_val_acc", statistics.median(best), "fraction", len(best))
    report.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    report.add("failed_share", runner.failed / runner.attempted, "fraction", runner.attempted,
               line_only=True)
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        # Not a metric of the program: a high share means the timings above
        # carry noise from other tenants of the host.
        steal = (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])
        report.add("host_steal_share", steal, "fraction", line_only=True)


def _percentile_or_zero(values: list[float], p: float, scale: float) -> float:
    return percentile(values, p) * scale if values else 0.0


def measure_traced(runner: Runner, report: Report, seed: int, seconds: float) -> None:
    env = runner.env
    runner.warm_up(run_seed(seed, "warmup"))
    profile = Profile()
    untraced, traced, first_spans = [], [], None
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        if i and time.perf_counter() >= deadline:
            break
        run = run_seed(seed, i)
        with round_clock(env.optimizer, []):
            record = runner.attempt(run, f"run-{i}")
        if record is not None:
            untraced.append(record.wall_s)
        tracer = Tracer(run)
        with tracer.installed(env.vistaopt):
            record = runner.attempt(run, f"traced-{i}", wrap=tracer.proxy)
        if record is None:
            continue
        traced.append(record.wall_s)
        profile.add_run(tracer, record.result, record.stub_stats)
        if first_spans is None:
            first_spans = tracer.spans
    if not traced or not untraced:
        raise RuntimeError("no traced run completed")
    report_layers(report, profile)
    traced_p50, untraced_p50 = statistics.median(traced), statistics.median(untraced)
    report.add("tracing.overhead_ms.per_run", (traced_p50 - untraced_p50) * 1e3, "ms",
               len(traced))
    report.add("tracing.spans.per_run", profile.spans / profile.runs, "count", profile.runs)
    print(f"{report.workload:18s} tracing overhead: traced run_s.p50 {traced_p50:.4f} s "
          f"- untraced run_s.p50 {untraced_p50:.4f} s "
          f"(n={len(traced)}/{len(untraced)})", flush=True)
    spans_path = OUT / "spans" / f"{report.workload}-seed{seed}.jsonl"
    write_spans(spans_path, first_spans)
    print(f"{report.workload:18s} spans of the first traced run: {spans_path.relative_to(ROOT)}",
          flush=True)


def report_layers(report: Report, profile: Profile) -> None:
    """The per-layer metrics; per-run counts are means over traced runs."""
    runs, rounds = profile.runs, profile.rounds
    ms, us = 1e3, 1e6
    add = report.add

    def per_round_ms(prefixes: tuple[str, ...]) -> float:
        return sum(sum(profile.matching(p)) for p in prefixes) * ms / rounds

    for layer in LAYERS:
        add(f"{layer}.self_ms.per_round", profile.self_s[layer] * ms / rounds, "ms", rounds)
    add("optimizer.artifacts.write_ms.per_round",
        per_round_ms(("optimizer.artifacts.write",)), "ms", rounds)
    add("optimizer.artifacts.bytes.per_round", profile.bytes_written / rounds, "B", rounds)
    add("optimizer.artifacts.files.per_round",
        len(profile.matching("optimizer.artifacts.write")) / rounds, "count", rounds)
    add("optimizer.artifacts.export_ms.per_round",
        per_round_ms(("optimizer.artifacts.export_tree", "pareto.snapshot")), "ms", rounds)

    charged, uncharged = profile.items_charged, profile.items_uncharged
    add("evaluation.calls", profile.evaluator_calls / runs, "count", runs)
    add("evaluation.items.charged", charged / runs, "count", runs)
    add("evaluation.items.uncharged", uncharged / runs, "count", runs)
    add("evaluation.uncharged_ratio", uncharged / charged, "ratio", runs)
    add("evaluation.dispatch_us.per_item", profile.dispatch_s * us / (charged + uncharged), "us",
        charged + uncharged)
    scores = profile.matching("evaluation.score_output")
    add("evaluation.score_us.p50", _percentile_or_zero(scores, 50, us), "us", len(scores))

    for kind in ("backends.synthetic", "backends.http"):
        gens = profile.matching(f"{kind}.generate.")
        add(f"{kind}.gen_us.p50", _percentile_or_zero(gens, 50, us), "us", len(gens))
        add(f"{kind}.calls", len(gens) / runs, "count", runs)
        for role in ("base", "hypothesis_agent", "reflection_agent"):
            role_gens = profile.matching(f"{kind}.generate.{role}")
            add(f"{kind}.{role}.gen_us.p50", _percentile_or_zero(role_gens, 50, us), "us", len(role_gens))
            add(f"{kind}.{role}.calls", len(role_gens) / runs, "count", runs)
    rtts = [rtt for rtt, _ in profile.http_samples]
    client = [rtt - service for rtt, service in profile.http_samples]
    add("backends.http.rtt_ms.p50", _percentile_or_zero(rtts, 50, ms), "ms", len(rtts))
    add("backends.http.rtt_ms.p90", _percentile_or_zero(rtts, 90, ms), "ms", len(rtts))
    add("backends.http.client_ms.p50", _percentile_or_zero(client, 50, ms), "ms", len(client))
    add("backends.http.connections", profile.stub["connections"] / runs, "count", runs)
    add("backends.http.in_flight.max", profile.stub["in_flight_max"], "count", runs)
    add("backends.http.retries", profile.stub["injected"] / runs, "count", runs)
    add("backends.http.failed", profile.stub["failed"], "count", runs)

    renders, parses = profile.matching("agents.render."), profile.matching("agents.parse.")
    add("agents.render_us.p50", _percentile_or_zero(renders, 50, us), "us", len(renders))
    add("agents.parse_us.p50", _percentile_or_zero(parses, 50, us), "us", len(parses))
    add("agents.calls", (len(renders) + len(parses)) / runs, "count", runs)

    trajectories = profile.matching("trace.trajectory")
    records = profile.matching("trace.record_proposal")
    add("trace.trajectory_us.p50", _percentile_or_zero(trajectories, 50, us), "us", len(trajectories))
    add("trace.trajectory_us.p90", _percentile_or_zero(trajectories, 90, us), "us", len(trajectories))
    add("trace.record_us.p50", _percentile_or_zero(records, 50, us), "us", len(records))
    add("trace.edges.final", profile.edges / runs, "count", runs)

    selects, inserts = profile.matching("pareto.select_parent"), profile.matching("pareto.try_insert")
    add("pareto.select_us.p50", _percentile_or_zero(selects, 50, us), "us", len(selects))
    add("pareto.insert_us.p50", _percentile_or_zero(inserts, 50, us), "us", len(inserts))
    add("pareto.members.max", profile.pool_members_max, "count", runs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vistaopt" / "__init__.py").is_file():
        print(f"error: no vistaopt sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    pin_to_one_cpu()
    setup_samples = [] if args.trace else probe_setup(workload.name)
    scratch = OUT / f"scratch-{workload.name}"
    report = Report(workload.name)
    env = Env(workload)
    try:
        runner = Runner(env, scratch)
        if args.trace:
            measure_traced(runner, report, args.seed, args.seconds)
        else:
            measure(runner, report, args.seed, args.seconds, setup_samples)
    finally:
        env.close()
        remove(scratch)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": report.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
