"""Deterministic synthetic world: a scripted base model, hypothesis agent,
and reflection agent behind the generation contract.

The base model answers by thresholding item difficulty against a skill
level computed from structural prompt features, so per-prompt accuracy is
exactly reproducible and accuracy-gain comparisons are noise-free at desk
scale.  An entire optimization run is a pure function of (config, dataset,
seed).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import asdict, dataclass, field
from typing import Annotated, Mapping

from ..domain import (
    BLANK_LABEL,
    UNCLASSIFIED_ID,
    UNLABELED,
    Range,
    TaskDataset,
    TaskItem,
    Taxonomy,
    check_config,
    strip_free_prefix,
)
from ..errors import InvalidConfigError
from .base import GenerationRequest

SOLUTION_FIELD = "solution_pad"
ANSWER_FIELD = "final_answer"

# Prompt the reflection agent emits for a blank-hypothesis restart; it
# models what the base model naturally produces, independent of any seed.
CANONICAL_RESTART_PROMPT = """You are a careful solver of math word problems. Reason through the problem first, then state the answer.

Respond with a JSON object in this format:
{
    "solution_pad": <your step-by-step reasoning>,
    "final_answer": <the answer>
}
"""

ORDER_FIX = "order_solution_first"

_LABEL_RE = re.compile(r"^Root cause label: (.*)$", re.MULTILINE)

_TAG_NOTES = {
    "cot_field_ordering": (
        "The output schema asks for the answer before the reasoning, so the reasoning "
        "cannot influence the answer.",
        "Reorder the output fields so the reasoning comes before the final answer.",
    ),
    "format_and_syntax": (
        "The prompt does not pin down the output object tightly enough.",
        "State the required keys and demand syntactically valid output.",
    ),
    "task_instruction_clarity": (
        "Some task constraints read as ambiguous or contradictory.",
        "Restate the task goal and remove the ambiguous wording.",
    ),
    "reasoning_strategy": (
        "The implied solution procedure skips intermediate steps.",
        "Ask for explicit intermediate calculations before the answer.",
    ),
    "missing_domain_knowledge": (
        "The prompt assumes facts the model may not surface on its own.",
        "Add the missing definitions or domain facts to the prompt.",
    ),
    "edge_case_handling": (
        "Boundary inputs are not covered by the current instructions.",
        "Add guidance for boundary and atypical cases.",
    ),
}


@dataclass(frozen=True)
class SyntheticWorldConfig:
    true_root_cause: str = "cot_field_ordering"
    base_accuracy: Annotated[float, Range(minimum=0, maximum=1)] = 0.24
    feature_weights: Mapping[str, Annotated[float, Range(minimum=0, maximum=1)]] = field(
        default_factory=lambda: {
            "solution_first": 0.63,
            "has_cot_directive": 0.0,
            "strict_format": 0.0,
        }
    )
    # The reflector's unconstrained attribution distribution; the planted
    # root cause getting zero mass models the attribution blindspot.
    free_prior: Mapping[str, Annotated[float, Range(minimum=0, maximum=1)]] = field(
        default_factory=lambda: {
            "task_instruction_clarity": 0.7,
            "missing_domain_knowledge": 0.2,
            "format_and_syntax": 0.1,
        }
    )
    # Probability per round that the taxonomy-guided slots include the true
    # root cause (when at least one heuristic slot exists).
    heuristic_success: Annotated[float, Range(minimum=0, maximum=1)] = 0.8
    fix_table: Mapping[str, str] = field(
        default_factory=lambda: {"cot_field_ordering": ORDER_FIX}
    )
    # Extra boolean features: name -> substring matched case-insensitively.
    extra_features: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        check_config(vars(self), [("", SyntheticWorldConfig)])
        total = sum(self.free_prior.values())
        if self.free_prior and abs(total - 1.0) > 1e-9:
            raise InvalidConfigError([f"free_prior must sum to 1, got {total}"])

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "SyntheticWorldConfig":
        return cls(**check_config(data, [("", cls)])[0])


def extract_features(prompt_text: str,
                     extra: Mapping[str, str] | None = None) -> dict[str, bool]:
    """Boolean structural features of a prompt.

    ``solution_first`` is false when either field name is absent, so the
    minimal seed (answer field only) reads as defective.
    """
    lower = prompt_text.lower()
    si = prompt_text.find(SOLUTION_FIELD)
    ai = prompt_text.find(ANSWER_FIELD)
    features = {
        "solution_first": si != -1 and ai != -1 and si < ai,
        "has_cot_directive": "step-by-step" in lower,
        "strict_format": "valid json" in lower,
    }
    for name, needle in (extra or {}).items():
        features[name] = needle.lower() in lower
    return features


def prompt_skill(features: Mapping[str, bool], world: SyntheticWorldConfig) -> float:
    total = world.base_accuracy
    for name, active in features.items():
        if active:
            total += world.feature_weights.get(name, 0.0)
    return min(1.0, max(0.0, total))


def item_difficulty(item: TaskItem) -> float:
    if item.difficulty is not None:
        return item.difficulty
    # Stable pseudo-difficulty for items loaded from files.
    digest = hashlib.sha256(item.id.encode()).digest()
    return int.from_bytes(digest[:4], "big") / 2**32


def _wrong_answer(gold: str) -> str:
    try:
        return str(int(gold) + 1)
    except ValueError:
        return gold + "0"


def synthetic_base_answer(features: Mapping[str, bool], item: TaskItem,
                          world: SyntheticWorldConfig) -> str:
    """Emit a well-formed object with the gold answer iff the item's
    difficulty is below the prompt's skill; field order mirrors the
    ``solution_first`` feature."""
    skill = prompt_skill(features, world)
    correct = item_difficulty(item) < skill
    answer = item.gold_answer if correct else _wrong_answer(item.gold_answer)
    solution = f"Worked solution for {item.id}."
    if features.get("solution_first"):
        payload = {SOLUTION_FIELD: solution, ANSWER_FIELD: answer}
    else:
        payload = {ANSWER_FIELD: answer, SOLUTION_FIELD: solution}
    return json.dumps(payload)


def make_synthetic_dataset(train_size: Annotated[int, Range(minimum=0)] = 50,
                           val_size: Annotated[int, Range(minimum=0)] = 50) -> TaskDataset:
    """Items with difficulties on the equally spaced grid i/(n-1), so val
    accuracy tracks the skill level to within 1/n."""

    def build(prefix: str, n: int) -> tuple[TaskItem, ...]:
        items = []
        for i in range(n):
            difficulty = i / (n - 1) if n > 1 else 0.0
            a, b = i + 2, i + 3
            items.append(
                TaskItem(
                    id=f"{prefix}-{i:03d}",
                    question=f"Problem {prefix}-{i:03d}: a crate holds {a} boxes of {b} parts each; how many parts in total?",
                    gold_answer=str(a * b),
                    difficulty=difficulty,
                )
            )
        return tuple(items)

    return TaskDataset(train=build("train", train_size), val=build("val", val_size))


def _cosmetic_mutation(parent_text: str, label: str) -> str:
    """Append an idempotent guidance line; structurally a no-op."""
    marker = f"\n\nAdditional guidance ({label}): double-check outputs for this failure mode before answering."
    if marker in parent_text:
        return parent_text
    return parent_text + marker


def _order_solution_first(text: str) -> str:
    features = extract_features(text)
    if features["solution_first"]:
        return text
    if ANSWER_FIELD not in text:
        return text + (
            "\n\nRespond with a JSON object:\n{\n"
            f'    "{SOLUTION_FIELD}": <your step-by-step reasoning>,\n'
            f'    "{ANSWER_FIELD}": <the answer>\n}}'
        )
    if SOLUTION_FIELD not in text:
        return text.replace(
            f'"{ANSWER_FIELD}"',
            f'"{SOLUTION_FIELD}": <your step-by-step reasoning>,\n    "{ANSWER_FIELD}"',
            1,
        )
    sentinel = "\x00"
    return (text.replace(ANSWER_FIELD, sentinel)
                .replace(SOLUTION_FIELD, ANSWER_FIELD)
                .replace(sentinel, SOLUTION_FIELD))


def synthetic_reflect(label: str, parent_text: str, world: SyntheticWorldConfig,
                      rng: random.Random | None) -> str:
    """Scripted reflection: apply the configured transformation for the
    label; blank restarts emit the canonical prompt; the label-free
    mutation draws its attribution from the unconstrained prior (``rng``)."""
    raw = strip_free_prefix(label)
    if raw == BLANK_LABEL:
        return CANONICAL_RESTART_PROMPT
    if raw == UNLABELED:
        labels = sorted(world.free_prior)
        if not labels:
            return _cosmetic_mutation(parent_text, UNLABELED)
        raw = rng.choices(labels, weights=[world.free_prior[l] for l in labels], k=1)[0]
    transforms = [world.fix_table.get(part) for part in raw.split("+")]
    if ORDER_FIX in transforms:
        return _order_solution_first(parent_text)
    return _cosmetic_mutation(parent_text, raw)


class SyntheticBackend:
    """Deterministic function of (request, world config, run seed)."""

    in_process = True  # microseconds of CPU per call: the evaluator never threads it
    deterministic = True  # output is a function of the request: the evaluator memoizes it

    def __init__(self, world: SyntheticWorldConfig, dataset: TaskDataset,
                 taxonomy: Taxonomy, run_seed: int):
        self.world = world
        self.dataset = dataset
        self.taxonomy = taxonomy
        self.run_seed = run_seed
        self._items_by_question = {it.question: it for it in dataset.train + dataset.val}
        self._decoys = [tid for tid in taxonomy.ids
                        if tid not in (world.true_root_cause, UNCLASSIFIED_ID)]
        self._feature_cache: dict[str, dict[str, bool]] = {}
        # Keyed on (feature values, item): cosmetic rewrites share features.
        self._answers: dict[tuple[tuple[bool, ...], TaskItem], str] = {}

    def _features(self, prompt_text: str) -> dict[str, bool]:
        cached = self._feature_cache.get(prompt_text)
        if cached is None:
            cached = extract_features(prompt_text, self.world.extra_features)
            self._feature_cache[prompt_text] = cached
        return cached

    def _rng(self, request: GenerationRequest) -> random.Random:
        digest = hashlib.sha256()
        digest.update(str(self.run_seed).encode())
        digest.update(request.role.encode())
        digest.update(request.text().encode())
        for origin in request.extras.get("slot_origins", ()):
            digest.update(str(origin).encode())
        return random.Random(int.from_bytes(digest.digest()[:8], "big"))

    def generate(self, request: GenerationRequest) -> str:
        if request.role == "base":
            return self._base(request)
        if request.role == "hypothesis_agent":
            return self._hypothesis(request)
        return self._reflection(request)

    # ------------------------------------------------------------- base

    def _base(self, request: GenerationRequest) -> str:
        system = request.messages[0][1]
        question = request.messages[-1][1]
        if ANSWER_FIELD not in system:
            # No recognizable schema: the model rambles and nothing parses.
            return f"I believe the answer relates to: {question[:40]} but I am not sure how to format it."
        item = self._items_by_question.get(question)
        if item is None:
            item = TaskItem(id=f"adhoc-{hashlib.sha256(question.encode()).hexdigest()[:8]}",
                            question=question, gold_answer="0")
        features = self._features(system)
        key = (tuple(features.values()), item)
        if key not in self._answers:
            self._answers[key] = synthetic_base_answer(features, item, self.world)
        return self._answers[key]

    # -------------------------------------------------------- hypothesis

    def _hypothesis(self, request: GenerationRequest) -> str:
        origins = list(request.extras.get("slot_origins", ()))
        if not origins:
            match = re.search(r"generate exactly (\d+) diverse", request.text())
            origins = ["heuristic"] * (int(match.group(1)) if match else 3)
        rng = self._rng(request)
        truth = self.world.true_root_cause
        heuristic_slots = [i for i, o in enumerate(origins) if o == "heuristic"]
        truth_slot = None
        if heuristic_slots and rng.random() < self.world.heuristic_success:
            truth_slot = heuristic_slots[0]
        free_labels = sorted(self.world.free_prior)
        free_weights = [self.world.free_prior[l] for l in free_labels]
        blocks = []
        for i, origin in enumerate(origins):
            if i == truth_slot:
                tag = truth
            elif origin == "free" and free_labels:
                tag = rng.choices(free_labels, weights=free_weights, k=1)[0]
            else:
                tag = rng.choice(self._decoys) if self._decoys else UNCLASSIFIED_ID
            note, fix = _TAG_NOTES.get(
                tag, (f"The prompt shows signs of {tag.replace('_', ' ')}.",
                      f"Rewrite the prompt to address {tag.replace('_', ' ')}."))
            blocks.append(f"[HYPOTHESIS {i + 1}]\nTAG: {tag}\nDESCRIPTION: {note}\nFIX: {fix}")
        return "\n\n".join(blocks)

    # -------------------------------------------------------- reflection

    def _reflection(self, request: GenerationRequest) -> str:
        text = request.text()
        label_match = _LABEL_RE.search(text)
        label = label_match.group(1).strip() if label_match else UNLABELED
        # The parent prompt sits between the reflection template's two anchors.
        parent, end, _ = text.partition("Current prompt:\n")[2].partition("\n\nFailure cases:")
        parent = parent if end else ""
        # Only the label-free mutation draws; its RNG hashes the whole request.
        rng = self._rng(request) if strip_free_prefix(label) == UNLABELED else None
        return synthetic_reflect(label, parent, self.world, rng)
