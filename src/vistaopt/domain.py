"""Core data types shared by every module: prompts, hypotheses, taxonomy,
datasets, and run configuration, with the checks that read the config and
the run files against their annotations.

All types are immutable after construction and safe to share across
concurrent evaluation workers; updated views are produced with
``dataclasses.replace``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import operator
import re
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from importlib import resources
from pathlib import Path
from types import NoneType, UnionType
from typing import Annotated, Mapping, Union, get_args, get_origin, get_type_hints

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
    ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _id_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entries:
            raise EmptyTaxonomyError("taxonomy has no entries")
        seen: set[str] = set()
        for e in self.entries:
            if e.id in seen:
                raise DuplicateIdError(f"duplicate taxonomy id {e.id!r}")
            seen.add(e.id)
        object.__setattr__(self, "ids", tuple(e.id for e in self.entries))
        object.__setattr__(self, "_id_set", frozenset(seen))

    def __contains__(self, taxonomy_id: str) -> bool:
        return taxonomy_id in self._id_set

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

    Accepts JSON text (the shipped format) or, with PyYAML installed (the
    ``vistaopt[yaml]`` extra), YAML text; order is preserved and duplicate
    ids are rejected.
    """
    try:
        records = json.loads(source) if source.strip() else None
    except ValueError:
        try:
            import yaml
        except ImportError as exc:
            raise InvalidConfigError(["taxonomy is not JSON, and reading it as YAML needs "
                                      "PyYAML: pip install 'vistaopt[yaml]'"]) from exc
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


def load_taxonomy_path(taxonomy_path: str | Path | None = None) -> Taxonomy:
    """The taxonomy file at ``taxonomy_path``, the run config key; the shipped
    taxonomy when it is absent or empty."""
    if not taxonomy_path:
        return default_taxonomy()
    try:
        text = Path(taxonomy_path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailureError(f"cannot read taxonomy {taxonomy_path}: {exc}") from exc
    return load_taxonomy(text)


@functools.cache
def default_taxonomy() -> Taxonomy:
    text = resources.files("vistaopt.data").joinpath("taxonomy.json").read_text(encoding="utf-8")
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
class Range:
    """JSON Schema 2020-12 keywords on an ``Annotated`` config field."""

    minimum: float | None = None
    exclusiveMinimum: float | None = None
    maximum: float | None = None
    enum: tuple | None = None


# How each Range keyword reads and tests a value, and how each annotated type
# reads in JSON.
_KEYWORDS = {"minimum": (">=", operator.ge), "exclusiveMinimum": (">", operator.gt),
             "maximum": ("<=", operator.le), "enum": ("in", lambda value, enum: value in enum)}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", Path: "a string",
               bool: "a boolean", NoneType: "null"}


def _violation(hint, value, ranged=True) -> str | None:
    """Why ``value`` lacks the type (or the ranges, if ``ranged``) that ``hint``
    annotates, or None; a bool is only a boolean, a number is finite, nothing is coerced."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        return _violation(args[0], value) or next(
            (f"{value!r} is not {_KEYWORDS[key][0]} {bound!r}" for r in args[1:] if ranged
             for key, bound in vars(r).items()
             if bound is not None and not _KEYWORDS[key][1](value, bound)), None)
    if origin in (Union, UnionType):
        reasons = [_violation(arm, value, ranged) for arm in args]
        return None if None in reasons else reasons[0]
    if origin is not None:  # Mapping[K, V] or dict[K, V]
        if not isinstance(value, Mapping):
            return f"{value!r} is not an object"
        return next(filter(None, (_violation(args[1], v, ranged) for v in value.values())), None)
    if (not isinstance(value, (int, float) if hint is float else hint)
            or isinstance(value, bool) and hint is not bool
            or hint is float and not -math.inf < value < math.inf):  # JSON has no NaN, Infinity
        return f"{value!r} is not {_TYPE_NAMES[hint]}"
    return None


def check_config(config, sections) -> list[dict]:
    """Check each section of ``config`` against the annotations of the code
    that consumes it and return that code's keyword arguments.  ``sections``
    pairs a dotted path ("" for the top level) with a dataclass or function,
    whose config keys are its annotated parameters that can be passed by
    position; a null section counts as absent and other keys are ignored.
    Raises one InvalidConfigError listing every violation."""
    violations, found = [], []
    for where, target in sections:
        section, path = config, ""
        for key in filter(None, where.split(".")):
            if isinstance(section, Mapping):
                section, path = section.get(key), f"{path}{key}."
        if section is not None and not isinstance(section, Mapping):
            violations.append(f"{path[:-1] or 'config'}: {section!r} is not an object")
            continue  # no arguments are returned once there is a violation
        section = section or {}
        hints = get_type_hints(target, include_extras=True)
        params = [p for p in inspect.signature(target).parameters.values()
                  if p.name in hints and p.kind is p.POSITIONAL_OR_KEYWORD]
        for p in params:
            if p.name in section and (reason := _violation(hints[p.name], section[p.name])):
                violations.append(f"{path}{p.name}: {reason}")
            elif p.name not in section and p.default is p.empty:
                violations.append(f"{path}{p.name} is required")
        found.append({p.name: section[p.name] for p in params if p.name in section})
    if violations:
        raise InvalidConfigError(violations)
    return found


def _exact(hint) -> dict:
    """What meets ``hint`` on sight, each with the least value it may take
    (None: any): the types int, bool, str and None that it names, the strings
    of an enum of strings, and int where its only Range keyword is a minimum."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):
        return {sight: low for arm in args for sight, low in _exact(arm).items()}
    if origin is Annotated and args[0] is str and args[1:] == (Range(enum=args[1].enum),):
        return dict.fromkeys(args[1].enum or ())
    if origin is Annotated and args[0] is int and args[1:] == (Range(minimum=args[1].minimum),):
        return {int: args[1].minimum}
    return dict.fromkeys({int, bool, str, NoneType} & {hint})


@functools.cache
def _record_fields(cls) -> tuple:
    """``(name, key, hint, exact)`` for each field of the record dataclass
    ``cls`` that its run file holds, under the key that the field's ``json``
    metadata names (None: kept in memory only) or its own name."""
    hints = get_type_hints(cls, include_extras=True)
    return tuple((f.name, key, hints[f.name], _exact(hints[f.name])) for f in fields(cls)
                 if (key := f.metadata.get("json", f.name)) is not None)


def record_dict(record) -> dict:
    """The JSON object that ``read_record`` reads ``record`` back from, with
    its arrays as tuples or lists and its records as dataclasses."""
    return {key: getattr(record, name) for name, key, _, _ in _record_fields(type(record))}


def _read(hint, value, key: str):
    """``value``, held under ``key``, in the form of a field annotated ``hint``:
    an array as a list or tuple, an object as a record.  A wrong type is a
    TypeError, and a value outside its ``Range`` a ValueError."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (list, tuple):  # list[T] or tuple[T, ...]
        if type(value) is not list:
            raise TypeError(f"{key} {value!r} is not an array")
        return origin(_read(args[0], item, key) for item in value)
    if is_dataclass(hint):
        return read_record(hint, value)
    if reason := _violation(hint, value):
        typed = _violation(hint, value, ranged=False) is None
        raise (ValueError if typed else TypeError)(f"{key} {reason}")
    return value


def read_record(cls, obj):
    """The record dataclass ``cls`` read from ``obj``, the JSON object that its
    run file holds: ``obj`` must hold the key of each field the file holds,
    and no other key, and each value is checked against its annotation."""
    if type(obj) is not dict:
        raise TypeError(f"{obj!r} is not an object")
    args = {}
    for name, key, hint, exact in _record_fields(cls):
        value = obj[key]
        sight = value if type(value) is str and str not in exact else type(value)
        args[name] = (value if sight in exact and (exact[sight] is None or value >= exact[sight])
                      else _read(hint, value, key))
    if len(args) < len(obj):
        raise ValueError(f"{sorted(set(obj) - {f[1] for f in _record_fields(cls)})} "
                         f"are not keys of a {cls.__name__}")
    return cls(**args)


@dataclass(frozen=True)
class RunConfig:
    K: Annotated[int, Range(minimum=1)] = 3
    p: Annotated[float, Range(minimum=0, maximum=1)] = 0.2
    epsilon: Annotated[float, Range(minimum=0, maximum=1)] = 0.1
    b: Annotated[int, Range(minimum=1)] = 8
    budget: Annotated[int, Range(minimum=0)] = 500
    rng_seed: int = 0
    mode: Annotated[str, Range(enum=("vista", "baseline"))] = "vista"
    max_parallel: Annotated[int, Range(minimum=1)] = 4
    restart_lookahead_cap: Annotated[int, Range(minimum=0)] = 5

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Keys that are not fields (config-file sections) are ignored."""
        return cls(**check_config(data, [("", cls)])[0])


def validate_config(cfg: RunConfig, ds: TaskDataset) -> RunConfig:
    """Check ``cfg``'s fields against their annotations, then the rules that
    span the dataset: ``b`` at most the train size, both splits non-empty."""
    check_config(vars(cfg), [("", RunConfig)])
    violations = []
    if cfg.b > len(ds.train):
        violations.append(f"b={cfg.b} exceeds train size {len(ds.train)}")
    if not ds.train or not ds.val:
        violations.append("dataset splits must both be non-empty")
    if violations:
        raise InvalidConfigError(violations)
    return cfg


def load_config_file(path: str | Path) -> dict:
    """Read the run config file, a JSON object; ``check_config`` checks it."""
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
