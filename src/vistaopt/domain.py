"""Core data types shared by every module: prompts, hypotheses, taxonomy,
datasets, and run configuration.

All types are immutable after construction and safe to share across
concurrent evaluation workers; updated views are produced with
``dataclasses.replace``.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import asdict, dataclass, fields, replace
from importlib import resources
from pathlib import Path

import yaml

from .errors import (
    DuplicateIdError,
    EmptyTaxonomyError,
    InvalidConfigError,
    IoFailureError,
    MalformedLineError,
    MalformedRecordError,
    OverlappingIdsError,
)

# Reserved label and directive for the blank (restart) hypothesis.
BLANK_LABEL = "none"
RESTART_DIRECTIVE = "initialize from model output"

# Label used for single-mutation fallback edges; never a taxonomy member.
UNLABELED = "unlabeled"

# Taxonomy id reserved for out-of-taxonomy discoveries.
UNCLASSIFIED_ID = "unclassified_custom"

FREE_PREFIX = "free:"

VALID_MODES = ("vista", "baseline")


def slugify(text: str) -> str:
    """Lowercase and collapse non-alphanumerics to underscores."""
    slug = re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")
    return slug or "unnamed"


def free_label(tag: str) -> str:
    """Namespace a free-branch attribution so analytics can tell it apart
    from taxonomy ids."""
    return FREE_PREFIX + slugify(tag)


def strip_free_prefix(label: str) -> str:
    return label[len(FREE_PREFIX):] if label.startswith(FREE_PREFIX) else label


@dataclass(frozen=True)
class PromptCandidate:
    """A prompt and its validation scores; its parent, label, origin and
    round live only on the trace edge whose ``to_id`` is its id."""

    id: int
    text: str
    val_scores: tuple[int, ...] | None = None
    val_accuracy: float | None = None

    def with_val_scores(self, scores: list[int] | tuple[int, ...]) -> "PromptCandidate":
        scores = tuple(int(s) for s in scores)
        return replace(self, val_scores=scores, val_accuracy=sum(scores) / len(scores))


@dataclass(frozen=True)
class Hypothesis:
    label: str
    description: str
    fix: str
    origin: str  # heuristic | free | blank


H_BLANK = Hypothesis(
    label=BLANK_LABEL,
    description=RESTART_DIRECTIVE,
    fix="",
    origin="blank",
)


@dataclass(frozen=True)
class TaxonomyEntry:
    id: str
    name: str
    description: str


@dataclass(frozen=True)
class Taxonomy:
    entries: tuple[TaxonomyEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise EmptyTaxonomyError("taxonomy has no entries")
        seen: set[str] = set()
        for e in self.entries:
            if e.id in seen:
                raise DuplicateIdError(f"duplicate taxonomy id {e.id!r}")
            seen.add(e.id)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.entries)

    def __contains__(self, taxonomy_id: str) -> bool:
        return any(e.id == taxonomy_id for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def covers(self, label: str) -> bool:
        """Membership test including joint labels of the form ``a+b``."""
        if label in self:
            return True
        if "+" in label:
            parts = label.split("+")
            return len(parts) == 2 and all(p in self for p in parts)
        return False


def load_taxonomy(source: str) -> Taxonomy:
    """Parse a structured list of ``{id, name, description}`` records.

    Accepts YAML text (the shipped format); order is preserved and
    duplicate ids are rejected.
    """
    try:
        records = yaml.safe_load(source)
    except yaml.YAMLError as exc:
        raise MalformedRecordError(f"taxonomy does not parse: {exc}") from exc
    if records is None or records == []:
        raise EmptyTaxonomyError("taxonomy source is empty")
    if not isinstance(records, list):
        raise MalformedRecordError("taxonomy source must be a list of records")
    entries = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or not {"id", "name", "description"} <= set(rec):
            raise MalformedRecordError(f"record {i} missing id/name/description")
        entries.append(
            TaxonomyEntry(id=str(rec["id"]), name=str(rec["name"]), description=str(rec["description"]))
        )
    return Taxonomy(entries=tuple(entries))


def load_taxonomy_path(path: str | Path) -> Taxonomy:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailureError(f"cannot read taxonomy {path}: {exc}") from exc
    return load_taxonomy(text)


@functools.cache
def default_taxonomy() -> Taxonomy:
    text = resources.files("vistaopt.data").joinpath("taxonomy.yaml").read_text(encoding="utf-8")
    return load_taxonomy(text)


# --------------------------------------------------------------- datasets

@dataclass(frozen=True)
class TaskItem:
    id: str
    question: str
    gold_answer: str
    difficulty: float | None = None  # set for synthesized items only

    def __post_init__(self):  # hashed once: memo keys hash items on every lookup
        object.__setattr__(self, "_hash", hash(
            (self.id, self.question, self.gold_answer, self.difficulty)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt through __init__: str hashes, so ``_hash``, differ between processes.
        return TaskItem, (self.id, self.question, self.gold_answer, self.difficulty)


@dataclass(frozen=True)
class TaskDataset:
    train: tuple[TaskItem, ...]
    val: tuple[TaskItem, ...]

    def __post_init__(self):
        train_ids = {i.id for i in self.train}
        val_ids = {i.id for i in self.val}
        if len(train_ids) != len(self.train) or len(val_ids) != len(self.val):
            raise OverlappingIdsError("duplicate item ids within a split")
        overlap = train_ids & val_ids
        if overlap:
            raise OverlappingIdsError(f"train/val share ids: {sorted(overlap)[:5]}")
        object.__setattr__(self, "_by_id", {i.id: i for i in self.train + self.val})

    def item(self, item_id: str) -> TaskItem:
        return self._by_id[item_id]


def _parse_dataset_line(path: str, line_no: int, line: str) -> TaskItem:
    from .evaluation import normalize_answer

    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedLineError(path, line_no, f"not valid JSON: {exc}") from exc
    if not isinstance(rec, dict) or not {"id", "question", "answer"} <= set(rec):
        raise MalformedLineError(path, line_no, "record needs id/question/answer")
    answer = str(rec["answer"])
    # GSM8K-style rationales end with "#### <answer>"; keep only the answer.
    if "####" in answer:
        answer = answer.rsplit("####", 1)[1]
    return TaskItem(id=str(rec["id"]), question=str(rec["question"]), gold_answer=normalize_answer(answer))


def _load_split(path: str | Path) -> list[TaskItem]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise IoFailureError(f"cannot read dataset {path}: {exc}") from exc
    items = []
    for n, line in enumerate(lines, start=1):
        if line.strip():
            items.append(_parse_dataset_line(str(path), n, line))
    return items


def load_dataset(train_path: str | Path, val_path: str | Path) -> TaskDataset:
    """Load line-delimited train/val splits; gold answers are stored
    pre-normalized so the metric is a pure string/number comparison."""
    train = _load_split(train_path)
    val = _load_split(val_path)
    if not train:
        raise MalformedLineError(str(train_path), 0, "train split is empty")
    if not val:
        raise MalformedLineError(str(val_path), 0, "val split is empty")
    return TaskDataset(train=tuple(train), val=tuple(val))


# ------------------------------------------------------------ run config

@dataclass(frozen=True)
class RunConfig:
    K: int = 3
    p: float = 0.2
    epsilon: float = 0.1
    b: int = 8
    budget: int = 500
    rng_seed: int = 0
    mode: str = "vista"
    max_parallel: int = 4
    restart_lookahead_cap: int = 5

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Keys that are not fields (config-file sections) are ignored."""
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


def validate_config(cfg: RunConfig, ds: TaskDataset) -> RunConfig:
    """Check every RunConfig invariant against the dataset; raises
    InvalidConfigError carrying the full violation list."""
    violations = []
    if not isinstance(cfg.K, int) or cfg.K < 1:
        violations.append(f"K must be a positive integer, got {cfg.K!r}")
    if not 0.0 <= cfg.p <= 1.0:
        violations.append(f"p must be in [0, 1], got {cfg.p!r}")
    if not 0.0 <= cfg.epsilon <= 1.0:
        violations.append(f"epsilon must be in [0, 1], got {cfg.epsilon!r}")
    if not isinstance(cfg.b, int) or cfg.b < 1:
        violations.append(f"b must be a positive integer, got {cfg.b!r}")
    elif cfg.b > len(ds.train):
        violations.append(f"b={cfg.b} exceeds train size {len(ds.train)}")
    if not isinstance(cfg.budget, int) or cfg.budget < 0:
        violations.append(f"budget must be a non-negative integer, got {cfg.budget!r}")
    if not isinstance(cfg.rng_seed, int):
        violations.append(f"rng_seed must be an integer, got {cfg.rng_seed!r}")
    if cfg.mode not in VALID_MODES:
        violations.append(f"mode must be one of {VALID_MODES}, got {cfg.mode!r}")
    if not isinstance(cfg.max_parallel, int) or cfg.max_parallel < 1:
        violations.append(f"max_parallel must be a positive integer, got {cfg.max_parallel!r}")
    if not isinstance(cfg.restart_lookahead_cap, int) or cfg.restart_lookahead_cap < 0:
        violations.append(f"restart_lookahead_cap must be >= 0, got {cfg.restart_lookahead_cap!r}")
    if not ds.train or not ds.val:
        violations.append("dataset splits must both be non-empty")
    if violations:
        raise InvalidConfigError(violations)
    return cfg


def load_config_file(path: str | Path) -> dict:
    """Read the run config file: top-level keys mirror RunConfig exactly;
    extra sections (dataset, synthetic_world, http) ride alongside."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailureError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError([f"config does not parse as JSON: {exc}"]) from exc
    if not isinstance(data, dict):
        raise InvalidConfigError(["config must be a JSON object"])
    return data


def load_seed_prompt(name_or_path: str | Path) -> str:
    """Load a seed prompt: one of the shipped names (defective, repaired,
    minimal) or a path to a text file."""
    shipped = resources.files("vistaopt.data").joinpath(f"seeds/{name_or_path}.txt")
    if isinstance(name_or_path, str) and "/" not in name_or_path and shipped.is_file():
        return shipped.read_text(encoding="utf-8")
    try:
        return Path(name_or_path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailureError(f"cannot read seed prompt {name_or_path}: {exc}") from exc
