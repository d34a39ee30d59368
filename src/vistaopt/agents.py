"""Template rendering for the hypothesis and reflection agents, and strict
parsing of hypothesis-agent responses.

Template bodies ship as data files; the literal ``{taxonomy_id}`` markers
inside the response-format scaffold are part of the instructions shown to
the agent and survive rendering untouched.  The renderers only fill
templates: the caller builds each block once, where its value is fixed
(``render_taxonomy`` once per run, ``format_failures`` once per round), and
passes it in as text.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from .domain import UNCLASSIFIED_ID, Hypothesis, TaskItem, Taxonomy, free_label
from .errors import EmptyRewriteError, MissingBindingError, NoBlocksFoundError
from .evaluation import EvaluationRecord
from .trace import TraceEdge, trajectory_context_block

HYPOTHESIS_PLACEHOLDERS = frozenset(
    {"curr_instructions", "error_taxonomy", "failed_samples", "num_hypotheses",
     "optimization_history"})
REFLECTION_PLACEHOLDERS = frozenset(
    {"label", "hypothesis", "suggestion", "prompt", "failure_cases"})

RAW_OUTPUT_LIMIT = 2000
TRUNCATION_MARK = " ...[truncated]"

_HEADER_RE = re.compile(r"^\[HYPOTHESIS (\d+)\]\s*$", re.MULTILINE)
_BLOCK_SCAFFOLD_RE = re.compile(
    r"\[HYPOTHESIS \d+\]\nTAG: \{taxonomy_id\}\nDESCRIPTION: <[^>\n]*>\nFIX: <[^>\n]*>")
_TAG_RE = re.compile(r"^TAG:[ \t]*(.+)$", re.MULTILINE)
_DESCRIPTION_RE = re.compile(r"^DESCRIPTION:[ \t]*(.+)$", re.MULTILINE)
_FIX_RE = re.compile(r"^FIX:[ \t]*(.+)$", re.MULTILINE)
_PLACEHOLDER_RES = {names: re.compile(r"\{(" + "|".join(sorted(names)) + r")\}")
                    for names in (HYPOTHESIS_PLACEHOLDERS, REFLECTION_PLACEHOLDERS)}


@dataclass(frozen=True)
class PromptTemplate:
    name: str  # hypothesis | reflection
    body: str

    @property
    def placeholders(self) -> frozenset[str]:
        return HYPOTHESIS_PLACEHOLDERS if self.name == "hypothesis" else REFLECTION_PLACEHOLDERS

    def render(self, bindings: dict[str, str]) -> str:
        """One pass over the body substitutes its declared placeholders, never
        bound text; anything else in braces is literal template text."""
        parts = _PLACEHOLDER_RES[self.placeholders].split(self.body)
        for name in parts[1::2]:
            if name not in bindings:
                raise MissingBindingError(f"template {self.name}: no binding for {name!r}")
        parts[1::2] = [str(bindings[name]) for name in parts[1::2]]
        return "".join(parts)


@functools.cache
def _shipped_body(name: str) -> str:
    return resources.files("vistaopt.data").joinpath(f"templates/{name}.txt").read_text(
        encoding="utf-8")


def load_template(name: str, path: str | Path | None = None) -> PromptTemplate:
    """A shipped template body, read once per process, or an override file read per call."""
    body = _shipped_body(name) if path is None else Path(path).read_text(encoding="utf-8")
    return PromptTemplate(name=name, body=body)


def render_taxonomy(taxonomy: Taxonomy) -> str:
    return "\n".join(f"- id: {e.id}\n    name: {e.name}\n    description: {e.description}"
                     for e in taxonomy.entries)


def _truncate_raw(raw: str) -> str:
    if len(raw) > RAW_OUTPUT_LIMIT:
        return raw[:RAW_OUTPUT_LIMIT] + TRUNCATION_MARK
    return raw


def format_failures(failures: Sequence[tuple[TaskItem, EvaluationRecord]], *,
                    include_task_fields: bool = True) -> str:
    """Numbered failure blocks from ``(item, record)`` pairs; a restart
    reflection conditions only on the raw output and parse error, so its
    caller omits the task fields."""
    if not failures:
        return "(none)"
    blocks = []
    for n, (item, record) in enumerate(failures, start=1):
        lines = [f"[FAILURE {n}]"]
        if include_task_fields:
            lines.append(f"Question: {item.question}")
            lines.append(f"Gold answer: {item.gold_answer}")
        lines.append(f"Raw output: {_truncate_raw(record.raw_output)}")
        lines.append(f"Parse error: {record.parse_error if record.parse_error is not None else 'none'}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _reshape_blocks(body: str, k: int) -> str:
    """The shipped scaffold is three-block shaped; repeat it K times when a
    different K is configured."""
    matches = [] if k == 3 else list(_BLOCK_SCAFFOLD_RE.finditer(body))
    if len(matches) != 3:
        return body
    scaffold = matches[0].group(0)
    blocks = []
    for n in range(1, k + 1):
        blocks.append(re.sub(r"\[HYPOTHESIS \d+\]", f"[HYPOTHESIS {n}]", scaffold, count=1))
    return body[:matches[0].start()] + "\n\n".join(blocks) + body[matches[-1].end():]


def render_hypothesis_prompt(
    template: PromptTemplate,
    current_prompt: str,
    taxonomy_block: str,
    failure_block: str,
    k: int,
    trajectory: Sequence[TraceEdge] = (),
) -> str:
    if k < 1:
        raise ValueError("k must be >= 1")
    body = _reshape_blocks(template.body, k)
    history = trajectory_context_block(trajectory)
    if history:
        # The trajectory is context for the agent; the shipped scaffold has
        # no placeholder for it, so a section is spliced in after the
        # current prompt.
        body = body.replace(
            "{curr_instructions}\n\nERROR TAXONOMY:",
            "{curr_instructions}\n\nOPTIMIZATION HISTORY:\n{optimization_history}\n\nERROR TAXONOMY:",
            1,
        )
    template = PromptTemplate(name=template.name, body=body)
    return template.render(
        {
            "curr_instructions": current_prompt,
            "error_taxonomy": taxonomy_block,
            "failed_samples": failure_block,
            "num_hypotheses": str(k),
            "optimization_history": history,
        }
    )


def render_reflection_prompt(
    template: PromptTemplate,
    parent_prompt: str,
    hypothesis: Hypothesis,
    failure_block: str,
) -> str:
    return template.render(
        {
            "label": hypothesis.label,
            "hypothesis": hypothesis.description,
            "suggestion": hypothesis.fix,
            "prompt": parent_prompt,
            "failure_cases": failure_block,
        }
    )


def parse_hypotheses(
    response: str,
    k: int,
    taxonomy: Taxonomy,
    slot_origins: Sequence[str] | None = None,
) -> tuple[list[Hypothesis], int]:
    """Extract up to ``k`` hypothesis blocks of the exact TAG / DESCRIPTION
    / FIX shape.

    Returns the parsed list and the count of header blocks that yielded no
    hypothesis (malformed or beyond ``k``).  Heuristic-slot tags outside
    the taxonomy are remapped to the reserved discovery id; free-slot tags
    are namespaced so analytics can tell them apart.
    """
    headers = list(_HEADER_RE.finditer(response))
    if not headers:
        raise NoBlocksFoundError("response contains no [HYPOTHESIS n] blocks")
    parsed: list[Hypothesis] = []
    malformed = 0
    for idx, header in enumerate(headers):
        start = header.end()
        end = headers[idx + 1].start() if idx + 1 < len(headers) else len(response)
        segment = response[start:end]
        tag = _TAG_RE.search(segment)
        desc = _DESCRIPTION_RE.search(segment)
        fix = _FIX_RE.search(segment)
        if len(parsed) >= k or not (tag and desc and fix):
            malformed += 1
            continue
        origin = "heuristic"
        if slot_origins is not None:
            origin = slot_origins[min(idx, len(slot_origins) - 1)]
        raw_tag = tag.group(1).strip()
        if origin == "free":
            label = free_label(raw_tag)
        elif taxonomy.covers(raw_tag):
            label = raw_tag
        else:
            label = UNCLASSIFIED_ID
        parsed.append(
            Hypothesis(label=label, description=desc.group(1).strip(),
                       fix=fix.group(1).strip(), origin=origin)
        )
    return parsed, malformed


_FENCE_RE = re.compile(r"\A```[^\n]*\n(.*)\n?```\Z", re.DOTALL)


def extract_rewritten_prompt(response: str) -> str:
    """Trim whitespace and code-fence wrappers; empty rewrites are errors."""
    text = response.strip()
    fenced = _FENCE_RE.match(text)
    if fenced:
        text = fenced.group(1).strip()
    if not text:
        raise EmptyRewriteError("reflection returned an empty prompt")
    return text
