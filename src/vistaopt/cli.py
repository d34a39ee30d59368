"""Operator entry point: run optimization, export traces, emit reports.

Exit codes, flag grammar, and artifact layouts are documented in
``docs/cli.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

from .artifacts import write_atomic
from .backends.synthetic import SyntheticBackend, SyntheticWorldConfig, make_synthetic_dataset
from .domain import (
    RunConfig,
    check_config,
    load_config_file,
    load_dataset,
    load_seed_prompt,
    load_taxonomy_path,
    validate_config,
)
from .errors import (
    InvalidConfigError,
    IoFailureError,
    MissingArtifactsError,
    TransportFailureError,
    VistaError,
)
from .optimizer import run
from .reports import build_report, read_artifact, read_run, write_report
from .trace import export_tree

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID_CONFIG = 2
EXIT_IO_FAILURE = 3
EXIT_TRANSPORT_FAILURE = 4
EXIT_MISSING_ARTIFACTS = 5

# The one map from an error to its exit code and stderr prefix: the first row
# whose classes the error is an instance of wins, so a row lists no subclass
# of a class in an earlier row.
ERROR_EXITS = (
    ((InvalidConfigError,), EXIT_INVALID_CONFIG, "invalid configuration"),
    ((MissingArtifactsError,), EXIT_MISSING_ARTIFACTS, "missing artifacts"),
    ((TransportFailureError,), EXIT_TRANSPORT_FAILURE, "transport failure"),
    ((IoFailureError, OSError), EXIT_IO_FAILURE, "io failure"),
    ((ValueError, VistaError), EXIT_ERROR, "error"),
)


def _template_paths(hypothesis: str | None = None, reflection: str | None = None) -> dict:
    """The ``templates`` section: override files for the shipped agent templates."""
    return {"hypothesis": hypothesis, "reflection": reflection}


def cmd_optimize(config_path: str, seed_prompt_path: str, out_dir: str,
                 backend_kind: str = "synthetic", mode: str | None = None,
                 seed: int | None = None) -> None:
    file_config = load_config_file(config_path)
    if mode is not None:
        file_config["mode"] = mode
    if seed is not None:
        file_config["rng_seed"] = seed
    # A dataset object with keys but no "synthetic" names line-delimited files.
    section = file_config.get("dataset")
    files = isinstance(section, dict) and section and "synthetic" not in section
    where, build = (("dataset", load_dataset) if files
                    else ("dataset.synthetic", make_synthetic_dataset))
    # Only an http section (checked whatever the backend) or run loads HttpBackend.
    http = backend_kind == "http" or file_config.get("http") is not None
    if http:
        from .backends.http import HttpBackend
    run_args, taxonomy_args, template_args, world_args, http_args, dataset_args = check_config(
        file_config, [("", RunConfig), ("", load_taxonomy_path), ("templates", _template_paths),
                      ("synthetic_world", SyntheticWorldConfig),
                      ("http", HttpBackend.__init__ if http else lambda: None), (where, build)])
    # Paths in the config file are relative to its directory.
    here = os.path.dirname(os.path.abspath(config_path))
    for args in (taxonomy_args, template_args, dataset_args if files else {}):
        args.update({key: os.path.join(here, path) for key, path in args.items() if path})
    config = RunConfig(**run_args)
    dataset = build(**dataset_args)
    validate_config(config, dataset)
    taxonomy = load_taxonomy_path(**taxonomy_args)
    template_paths = _template_paths(**template_args)
    seed_prompt = load_seed_prompt(seed_prompt_path)
    world = SyntheticWorldConfig(**world_args)
    resolved = {**file_config, **taxonomy_args, **config.to_dict(), "backend": backend_kind}
    if backend_kind == "synthetic":
        backend = SyntheticBackend(world, dataset, taxonomy, config.rng_seed)
        resolved["synthetic_world"] = world.to_dict()
    elif backend_kind == "http":
        backend = HttpBackend(**http_args)
    else:
        raise InvalidConfigError([f"unknown backend {backend_kind!r}"])
    try:
        result = run(config=config, dataset=dataset, taxonomy=taxonomy, backend=backend,
                     seed_prompt=seed_prompt, out_dir=out_dir, resolved_config=resolved,
                     template_paths=template_paths)
    finally:
        if backend_kind == "http":
            backend.close()
    print(f"run complete: best val accuracy "
          f"{result.best.val_accuracy:.4f} after {len(result.outcomes)} rounds "
          f"({result.evaluator.metric_calls} metric calls)")
    branches = Counter(o.branch for o in result.outcomes)
    if branches:
        print("rounds by branch: " + ", ".join(
            f"{name}={count}" for name, count in sorted(branches.items())))
    if branches.get("skipped"):
        print(f"warning: {branches['skipped']} round(s) skipped "
              "(see the logs in rounds.jsonl)", file=sys.stderr)
    print(f"artifacts in {out_dir}")


def cmd_export_trace(run_dir: str, fmt: str = "dot") -> None:
    out_path = Path(run_dir) / f"trace.{fmt}"
    write_atomic(out_path, export_tree(read_run(run_dir)[0], fmt))
    print(f"wrote {out_path}")


def cmd_report(run_dir: str) -> None:
    run_config = read_artifact(run_dir, "config.json", json.loads)
    (taxonomy_args,) = check_config(run_config, [("", load_taxonomy_path)])
    write_report(run_dir, build_report(run_dir, load_taxonomy_path(**taxonomy_args)))
    print(f"wrote report.csv, attribution.csv, oscillations.json in {run_dir}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vistaopt",
        description="Prompt optimization with verified, labeled hypotheses.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run an optimization")
    p_opt.add_argument("config", help="path to the run config JSON file")
    p_opt.add_argument("seed_prompt",
                       help="seed prompt: a file path or a shipped name "
                            "(defective, repaired, minimal)")
    p_opt.add_argument("out_dir", help="run directory to create")
    p_opt.add_argument("--backend", choices=("synthetic", "http"),
                       default="synthetic")
    p_opt.add_argument("--mode", choices=("vista", "baseline"), default=None)
    p_opt.add_argument("--seed", type=int, default=None,
                       help="override the config rng_seed")

    p_exp = sub.add_parser("export-trace", help="export a run's trace")
    p_exp.add_argument("run_dir")
    p_exp.add_argument("--format", choices=("dot", "json"), default="dot")

    p_rep = sub.add_parser("report", help="emit plot-ready report files")
    p_rep.add_argument("run_dir")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "optimize":
            cmd_optimize(args.config, args.seed_prompt, args.out_dir,
                         backend_kind=args.backend, mode=args.mode, seed=args.seed)
        elif args.command == "export-trace":
            cmd_export_trace(args.run_dir, fmt=args.format)
        else:
            cmd_report(args.run_dir)
    except (VistaError, OSError, ValueError) as exc:
        code, prefix = next((code, prefix) for classes, code, prefix in ERROR_EXITS
                            if isinstance(exc, classes))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
