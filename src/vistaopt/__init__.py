"""Prompt optimization with heuristic-guided hypotheses, parallel minibatch
verification, a Pareto candidate pool, and a semantically labeled trace."""

from .backends import (
    GenerationRequest,
    HttpBackend,
    RoleRouter,
    SyntheticBackend,
    SyntheticWorldConfig,
    extract_features,
    make_synthetic_dataset,
)
from .domain import (
    H_BLANK,
    Hypothesis,
    PromptCandidate,
    RunConfig,
    TaskDataset,
    TaskItem,
    Taxonomy,
    default_taxonomy,
    load_dataset,
    load_seed_prompt,
    load_taxonomy,
    validate_config,
)
from .estimator import PromptOptimizer
from .evaluation import exact_match, extract_final_answer, normalize_answer
from .optimizer import BudgetLedger, RoundOutcome, RunResult, run
from .pareto import ParetoPool, dominates
from .trace import SemanticTraceTree, TraceEdge, detect_oscillation, export_tree, import_tree

__version__ = "0.1.0"

__all__ = [
    "GenerationRequest",
    "HttpBackend",
    "RoleRouter",
    "SyntheticBackend",
    "SyntheticWorldConfig",
    "extract_features",
    "make_synthetic_dataset",
    "H_BLANK",
    "Hypothesis",
    "PromptCandidate",
    "RunConfig",
    "TaskDataset",
    "TaskItem",
    "Taxonomy",
    "default_taxonomy",
    "load_dataset",
    "load_seed_prompt",
    "load_taxonomy",
    "validate_config",
    "PromptOptimizer",
    "exact_match",
    "extract_final_answer",
    "normalize_answer",
    "BudgetLedger",
    "RoundOutcome",
    "RunResult",
    "run",
    "ParetoPool",
    "dominates",
    "SemanticTraceTree",
    "TraceEdge",
    "detect_oscillation",
    "export_tree",
    "import_tree",
    "__version__",
]
