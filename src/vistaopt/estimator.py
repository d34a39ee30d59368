"""Estimator-style facade over the optimization engine.

``PromptOptimizer`` follows the scikit-learn parameter contract
(constructor-only hyperparameters, ``get_params``/``set_params``,
``fit`` returning self, trailing-underscore fitted attributes) so it
composes with ecosystem tooling such as ``sklearn.base.clone`` without
this package depending on scikit-learn itself.
"""

from __future__ import annotations

import inspect
from dataclasses import fields
from typing import Sequence

from .backends.base import Backend
from .backends.synthetic import SyntheticBackend, SyntheticWorldConfig, make_synthetic_dataset
from .domain import (
    RunConfig,
    TaskDataset,
    TaskItem,
    Taxonomy,
    default_taxonomy,
    load_seed_prompt,
    validate_config,
)
from .errors import NotFittedError
from .evaluation import EvaluationRecord, Evaluator
from .optimizer import RunResult, run


def check_is_fitted(estimator, attribute: str = "result_") -> None:
    if not hasattr(estimator, attribute):
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit() first")


class PromptOptimizer:
    """Optimize a prompt against a task dataset.

    Hyperparameters mirror the run configuration; ``fit`` runs the full
    optimization and exposes the outcome through fitted attributes
    (``best_prompt_``, ``best_score_``, ``pool_``, ``trace_``,
    ``ledger_``, ``outcomes_``).
    """

    def __init__(
        self,
        K: int = 3,
        p: float = 0.2,
        epsilon: float = 0.1,
        b: int = 8,
        budget: int = 500,
        rng_seed: int = 0,
        mode: str = "vista",
        max_parallel: int = 4,
        restart_lookahead_cap: int = 5,
        backend: Backend | None = None,
        taxonomy: Taxonomy | None = None,
        world: SyntheticWorldConfig | None = None,
        out_dir: str | None = None,
    ):
        self.K = K
        self.p = p
        self.epsilon = epsilon
        self.b = b
        self.budget = budget
        self.rng_seed = rng_seed
        self.mode = mode
        self.max_parallel = max_parallel
        self.restart_lookahead_cap = restart_lookahead_cap
        self.backend = backend
        self.taxonomy = taxonomy
        self.world = world
        self.out_dir = out_dir

    # ------------------------------------------------- parameter contract

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [name for name in signature.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "PromptOptimizer":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(RunConfig))
        return f"{type(self).__name__}({shown})"

    # -------------------------------------------------------------- fit

    def _resolve(self, dataset: TaskDataset | None):
        dataset = dataset if dataset is not None else make_synthetic_dataset()
        taxonomy = self.taxonomy if self.taxonomy is not None else default_taxonomy()
        config = RunConfig(**{f.name: getattr(self, f.name) for f in fields(RunConfig)})
        backend = self.backend
        if backend is None:
            world = self.world if self.world is not None else SyntheticWorldConfig()
            backend = SyntheticBackend(world, dataset, taxonomy, self.rng_seed)
        return config, dataset, taxonomy, backend

    def fit(self, dataset: TaskDataset | None = None,
            seed_prompt: str | None = None) -> "PromptOptimizer":
        """Run the optimization.  With no arguments, optimizes the shipped
        defective seed against the default synthetic world."""
        config, dataset, taxonomy, backend = self._resolve(dataset)
        validate_config(config, dataset)
        if seed_prompt is None:
            seed_prompt = load_seed_prompt("defective")
        result: RunResult = run(
            config=config,
            dataset=dataset,
            taxonomy=taxonomy,
            backend=backend,
            seed_prompt=seed_prompt,
            out_dir=self.out_dir,
        )
        self.result_ = result
        self.backend_ = backend
        self.best_prompt_ = result.best.text
        self.best_score_ = result.best.val_accuracy
        self.pool_ = result.pool
        self.trace_ = result.trace
        self.ledger_ = result.ledger
        self.outcomes_ = result.outcomes
        return self

    # ---------------------------------------------------------- predict

    def _evaluate(self, items: Sequence[TaskItem]) -> tuple[EvaluationRecord, ...]:
        """Run the optimized prompt over items on a fresh evaluator, so the
        fitted run's metric counters stay untouched."""
        check_is_fitted(self)
        evaluator = Evaluator(self.backend_, max_parallel=self.max_parallel)
        return evaluator.evaluate([self.best_prompt_], items, charged=False)[0]

    def predict(self, questions: Sequence[str]) -> list[str | None]:
        """Answer questions with the optimized prompt; None where the
        output does not parse."""
        items = [TaskItem(id=str(i), question=q, gold_answer="")
                 for i, q in enumerate(questions)]
        return [record.extracted_answer for record in self._evaluate(items)]

    def score(self, items: Sequence[TaskItem]) -> float:
        """Mean exact-match accuracy of the optimized prompt on items."""
        records = self._evaluate(items)
        return sum(r.score for r in records) / len(items) if items else 0.0
