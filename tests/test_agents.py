import random
import re

import pytest

from vistaopt.agents import (
    extract_rewritten_prompt,
    format_failures,
    load_template,
    parse_hypotheses,
    render_hypothesis_prompt,
    render_reflection_prompt,
    render_taxonomy,
)
from vistaopt.domain import UNCLASSIFIED_ID, Hypothesis, TaskItem, free_label
from vistaopt.errors import EmptyRewriteError, MissingBindingError, NoBlocksFoundError
from vistaopt.evaluation import EvaluationRecord
from vistaopt.trace import TraceEdge

WELL_FORMED = """[HYPOTHESIS 1]
TAG: cot_field_ordering
DESCRIPTION: The answer field precedes the reasoning field.
FIX: Reorder the fields.

[HYPOTHESIS 2]
TAG: task_instruction_clarity
DESCRIPTION: The task framing is ambiguous.
FIX: Clarify the framing.

[HYPOTHESIS 3]
TAG: reasoning_strategy
DESCRIPTION: The implied procedure is too shallow.
FIX: Ask for intermediate steps.
"""


def failure(question, gold, raw_output, parse_error):
    """One ``(item, record)`` pair of a score-0 evaluation."""
    item = TaskItem(id=question, question=question, gold_answer=gold)
    extracted = None if parse_error else "0"
    return item, EvaluationRecord(item_id=item.id, raw_output=raw_output,
                                  parse_error=parse_error, extracted_answer=extracted, score=0)


def failure_block():
    return format_failures([
        failure("What is 2 + 2?", "4", '{"final_answer": "5"}', None),
        failure("What is 3 * 3?", "9", "nonsense", "NoObjectFound"),
    ])


def accepted_edge(iteration, label, pp):
    return TraceEdge(from_id=0, to_id=iteration, label=label, delta_minibatch=1,
                     status="accepted", iteration=iteration, origin="heuristic",
                     delta_val_pp=pp)


# ---------------------------------------------------------------- render

@pytest.fixture()
def taxonomy_block(taxonomy):
    return render_taxonomy(taxonomy)


def test_hypothesis_render_contains_exact_scaffold(taxonomy_block):
    template = load_template("hypothesis")
    text = render_hypothesis_prompt(template, "PROMPT", taxonomy_block, failure_block(), 3)
    for line in ("[HYPOTHESIS 1]", "[HYPOTHESIS 2]", "[HYPOTHESIS 3]",
                 "TAG: {taxonomy_id}", "generate exactly 3 diverse"):
        assert line in text
    assert "CURRENT SYSTEM PROMPT:\nPROMPT" in text
    assert "- id: cot_field_ordering" in text
    assert "[FAILURE 1]" in text and "[FAILURE 2]" in text
    assert "Parse error: NoObjectFound" in text


def test_hypothesis_render_deterministic(taxonomy_block):
    template = load_template("hypothesis")
    a = render_hypothesis_prompt(template, "P", taxonomy_block, failure_block(), 3)
    b = render_hypothesis_prompt(template, "P", taxonomy_block, failure_block(), 3)
    assert a == b


def test_hypothesis_render_reshapes_blocks_for_k(taxonomy_block):
    template = load_template("hypothesis")
    text = render_hypothesis_prompt(template, "P", taxonomy_block, failure_block(), 5)
    assert "[HYPOTHESIS 5]" in text and "generate exactly 5 diverse" in text
    assert text.count("TAG: {taxonomy_id}") == 5
    text1 = render_hypothesis_prompt(template, "P", taxonomy_block, failure_block(), 1)
    assert "[HYPOTHESIS 2]" not in text1


def test_hypothesis_render_history_section(taxonomy_block):
    template = load_template("hypothesis")
    trajectory = [accepted_edge(1, "cot_field_ordering", 48.0)]
    text = render_hypothesis_prompt(template, "P", taxonomy_block, failure_block(), 3, trajectory)
    assert "OPTIMIZATION HISTORY:\nround 1: cot_field_ordering (Δval=+48pp)" in text
    # the section sits between the current prompt and the taxonomy
    assert text.index("CURRENT SYSTEM PROMPT") < text.index("OPTIMIZATION HISTORY") \
        < text.index("ERROR TAXONOMY")
    without = render_hypothesis_prompt(template, "P", taxonomy_block, failure_block(), 3, [])
    assert "OPTIMIZATION HISTORY" not in without


def test_taxonomy_rendered_in_list_form(taxonomy):
    block = render_taxonomy(taxonomy)
    assert block.startswith("- id: cot_field_ordering\n    name: CoT / Output Field Ordering Defect")


def test_failure_blocks_truncate_long_outputs():
    long_raw = "x" * 5000
    text = format_failures([failure("q", "1", long_raw, None)])
    assert "...[truncated]" in text
    assert len(text) < 3000


def test_reflection_render_contains_label(taxonomy):
    template = load_template("reflection")
    hyp = Hypothesis(label="cot_field_ordering", description="d", fix="f", origin="heuristic")
    text = render_reflection_prompt(template, "SEED PROMPT", hyp, failure_block())
    assert "Root cause label: cot_field_ordering" in text
    assert "Current prompt:\nSEED PROMPT" in text
    assert "Question: What is 2 + 2?" in text


def test_reflection_render_deterministic():
    template = load_template("reflection")
    hyp = Hypothesis(label="x", description="d", fix="f", origin="free")
    a = render_reflection_prompt(template, "P", hyp, format_failures([]))
    b = render_reflection_prompt(template, "P", hyp, format_failures([]))
    assert a == b


def test_render_missing_binding():
    template = load_template("reflection")
    with pytest.raises(MissingBindingError):
        template.render({"label": "x"})


def test_render_never_substitutes_into_bound_text(taxonomy_block):
    """A prompt that names every placeholder is kept as it is: substituting
    into bound text would depend on the order of placeholder names, which
    str hashing sets, so on PYTHONHASHSEED."""
    from vistaopt.agents import HYPOTHESIS_PLACEHOLDERS, REFLECTION_PLACEHOLDERS

    def naming(placeholders):
        return "Keep " + " ".join("{" + name + "}" for name in sorted(placeholders))

    hyp = Hypothesis(label="x", description="d", fix="f", origin="heuristic")
    prompt = naming(REFLECTION_PLACEHOLDERS)
    assert prompt in render_reflection_prompt(load_template("reflection"), prompt, hyp, failure_block())
    prompt = naming(HYPOTHESIS_PLACEHOLDERS)
    assert prompt in render_hypothesis_prompt(load_template("hypothesis"), prompt, taxonomy_block,
                                              failure_block(), 3, [accepted_edge(1, "x", 2.0)])


# ----------------------------------------------------------------- parse

def test_parse_well_formed_blocks(taxonomy):
    parsed, malformed = parse_hypotheses(WELL_FORMED, 3, taxonomy)
    assert malformed == 0
    assert [h.label for h in parsed] == [
        "cot_field_ordering", "task_instruction_clarity", "reasoning_strategy"]
    assert all(h.origin == "heuristic" for h in parsed)


def test_parse_empty_response(taxonomy):
    with pytest.raises(NoBlocksFoundError):
        parse_hypotheses("", 3, taxonomy)


def test_parse_malformed_block_counted(taxonomy):
    response = WELL_FORMED.replace("TAG: reasoning_strategy\n", "")
    parsed, malformed = parse_hypotheses(response, 3, taxonomy)
    assert len(parsed) == 2 and malformed == 1


def test_parse_unknown_tag_remapped(taxonomy):
    response = WELL_FORMED.replace("TAG: task_instruction_clarity", "TAG: made_up_mode")
    parsed, _ = parse_hypotheses(response, 3, taxonomy)
    assert parsed[1].label == "unclassified_custom"


def test_parse_free_slot_namespaced(taxonomy):
    parsed, _ = parse_hypotheses(WELL_FORMED, 3, taxonomy,
                                 slot_origins=["heuristic", "free", "heuristic"])
    assert parsed[0].label == "cot_field_ordering"
    assert parsed[1].label == "free:task_instruction_clarity"
    assert parsed[1].origin == "free"


def test_parse_joint_tag_kept(taxonomy):
    response = WELL_FORMED.replace(
        "TAG: task_instruction_clarity", "TAG: cot_field_ordering+format_and_syntax")
    parsed, _ = parse_hypotheses(response, 3, taxonomy)
    assert parsed[1].label == "cot_field_ordering+format_and_syntax"


def test_parse_extra_blocks_beyond_k(taxonomy):
    parsed, malformed = parse_hypotheses(WELL_FORMED, 2, taxonomy)
    assert len(parsed) == 2 and malformed == 1


def reference_parse(response):
    """Independent line-oriented parser used as an oracle: returns
    (header_count, well_formed_count)."""
    headers = 0
    well_formed = 0
    current = None
    for line in response.splitlines() + ["[HYPOTHESIS END]"]:
        if re.fullmatch(r"\[HYPOTHESIS .*\]\s*", line):
            if current is not None and all(current.values()):
                well_formed += 1
            if line != "[HYPOTHESIS END]":
                headers += 1
                current = {"tag": False, "desc": False, "fix": False}
        elif current is not None:
            if re.match(r"TAG:\s*\S", line):
                current["tag"] = True
            elif re.match(r"DESCRIPTION:\s*\S", line):
                current["desc"] = True
            elif re.match(r"FIX:\s*\S", line):
                current["fix"] = True
    return headers, well_formed


def test_parse_accounting_invariant_fuzzed(taxonomy):
    rng = random.Random(5)
    pieces = [
        "[HYPOTHESIS 1]\n", "[HYPOTHESIS 2]\n", "[HYPOTHESIS 9]\n",
        "TAG: cot_field_ordering\n", "TAG: junk_tag\n",
        "DESCRIPTION: something specific.\n", "FIX: do something.\n",
        "random prose line\n", "\n",
    ]
    for _ in range(300):
        response = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 14)))
        headers, well_formed = reference_parse(response)
        if headers == 0:
            with pytest.raises(NoBlocksFoundError):
                parse_hypotheses(response, 3, taxonomy)
            continue
        parsed, malformed = parse_hypotheses(response, 3, taxonomy)
        assert len(parsed) + malformed == headers
        assert len(parsed) == min(3, well_formed)


# The regex parser that ``parse_hypotheses`` replaced, kept as its oracle:
# headers are found by a pattern anchored at every line start, and each field
# by its own search over the block.
ORACLE_HEADER_RE = re.compile(r"^\[HYPOTHESIS (\d+)\]\s*$", re.MULTILINE)
ORACLE_FIELD_RES = {name: re.compile(rf"^{name}:[ \t]*(.+)$", re.MULTILINE)
                    for name in ("TAG", "DESCRIPTION", "FIX")}


def oracle_parse_hypotheses(response, k, taxonomy, slot_origins=None):
    headers = list(ORACLE_HEADER_RE.finditer(response))
    if not headers:
        raise NoBlocksFoundError("response contains no [HYPOTHESIS n] blocks")
    parsed, malformed = [], 0
    for idx, header in enumerate(headers):
        end = headers[idx + 1].start() if idx + 1 < len(headers) else len(response)
        segment = response[header.end():end]
        tag, desc, fix = (ORACLE_FIELD_RES[name].search(segment)
                          for name in ("TAG", "DESCRIPTION", "FIX"))
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
        parsed.append(Hypothesis(label=label, description=desc.group(1).strip(),
                                 fix=fix.group(1).strip(), origin=origin))
    return parsed, malformed


def parse_outcome(parse, *args):
    """The parser's result, or NoBlocksFoundError when it raises that."""
    try:
        return parse(*args)
    except NoBlocksFoundError:
        return NoBlocksFoundError


def test_parse_matches_regex_oracle_fuzzed(taxonomy):
    """Full output, the malformed count and NoBlocksFoundError equal the
    regex parser's on seeded random responses, including carriage returns,
    tabs, blanks after a header, bare or whitespace-only fields and headers
    that do not start a line."""
    rng = random.Random(27)
    headers = ["[HYPOTHESIS 1]\n", "[HYPOTHESIS 2]\n", "[HYPOTHESIS 9]\n", "[HYPOTHESIS 3]\r\n",
               "[HYPOTHESIS 4] \t \n", "[HYPOTHESIS 5]\n\n  \n", "[HYPOTHESIS 6]",
               "[HYPOTHESIS x]\n", "[HYPOTHESIS 7] trailing prose\n", "see [HYPOTHESIS 8]\n",
               "  [HYPOTHESIS 1]\n"]
    fields = [
        ["TAG: cot_field_ordering\n", "TAG: junk_tag\n", "TAG:\tformat_and_syntax\r\n",
         "TAG: cot_field_ordering+format_and_syntax\n", "TAG: Free Form Tag!\n", "TAG:\n",
         "TAG:", "TAG: \t \n", " TAG: reasoning_strategy\n"],
        ["DESCRIPTION: something specific.\n", "DESCRIPTION:\t tabbed text\t\n",
         "DESCRIPTION:   \n", "DESCRIPTION:\r\n", "DESCRIPTION: a: b\n"],
        ["FIX: do something.\n", "FIX:\n", "FIX: \t\n", "FIX:do it\r\n"],
    ]
    noise = ["random prose line\n", "prose without newline ", "\n", "\r", "\t", "  \n", "\r\n"]
    origins = [None, ["heuristic"], ["free"], ["heuristic", "free", "heuristic"],
               ["free", "heuristic", "free", "heuristic"]]
    counts = {"parsed": 0, "malformed": 0, "no blocks": 0}
    for _ in range(3000):
        # Blocks of a header and its fields in any order, some missing or repeated,
        # with noise anywhere.
        chunks = []
        for _ in range(rng.randint(0, 6)):
            chunks.append(rng.choice(headers))
            chunks.extend(rng.choice(rng.choice(fields)) for _ in range(rng.randint(0, 5)))
        chunks.extend(rng.choice(noise) for _ in range(rng.randint(0, 4)))
        if rng.random() < 0.5:
            rng.shuffle(chunks)
        response = "".join(chunks)
        args = (response, rng.randint(1, 4), taxonomy, rng.choice(origins))
        result = parse_outcome(parse_hypotheses, *args)
        assert result == parse_outcome(oracle_parse_hypotheses, *args), repr(response)
        if result is NoBlocksFoundError:
            counts["no blocks"] += 1
        else:
            counts["parsed"] += len(result[0])
            counts["malformed"] += result[1]
    assert min(counts.values()) > 300, counts


def numbered_header_variant(n):
    return f"[HYPOTHESIS {n}]\nTAG: cot_field_ordering\nDESCRIPTION: d.\nFIX: f.\n"


def test_parse_round_trip_of_rendered_shape(taxonomy):
    # parse(render-shaped fixture) recovers exactly the tags written
    response = "".join(numbered_header_variant(i) for i in range(1, 4))
    parsed, malformed = parse_hypotheses(response, 3, taxonomy)
    assert malformed == 0
    assert [h.label for h in parsed] == ["cot_field_ordering"] * 3


# --------------------------------------------------------------- rewrite

def test_extract_rewritten_identity():
    assert extract_rewritten_prompt("  a prompt body \n") == "a prompt body"


def test_extract_rewritten_fenced():
    assert extract_rewritten_prompt("```\ninner text\n```") == "inner text"
    assert extract_rewritten_prompt("```text\ninner text\n```") == "inner text"


def test_extract_rewritten_empty():
    with pytest.raises(EmptyRewriteError):
        extract_rewritten_prompt("   \n  ")
    with pytest.raises(EmptyRewriteError):
        extract_rewritten_prompt("```\n\n```")


# ------------------------------------------------------------- templates

def make_run(synthetic_backend, dataset_50, taxonomy, seed_prompt, template_paths=None):
    from vistaopt.domain import RunConfig
    from vistaopt.optimizer import OptimizationRun

    return OptimizationRun(RunConfig(budget=0), dataset_50, taxonomy, synthetic_backend,
                           seed_prompt, template_paths=template_paths)


def test_override_template_edited_between_runs_is_read_again(
        tmp_path, synthetic_backend, dataset_50, taxonomy, defective_seed):
    path = tmp_path / "reflection.txt"
    bodies = []
    for marker in ("first", "second"):
        path.write_text(load_template("reflection").body + marker, encoding="utf-8")
        engine = make_run(synthetic_backend, dataset_50, taxonomy, defective_seed,
                          {"reflection": str(path)})
        bodies.append(engine.reflection_template.body)
    assert bodies[0].endswith("first") and bodies[1].endswith("second")
    assert engine.hypothesis_template == load_template("hypothesis")


def test_shipped_templates_are_read_once_per_process(
        monkeypatch, synthetic_backend, dataset_50, taxonomy, defective_seed):
    from importlib import resources
    from types import SimpleNamespace

    from vistaopt import agents

    shipped = {name: load_template(name).body for name in ("hypothesis", "reflection")}
    reads = []

    def files(package):
        reads.append(package)
        return resources.files(package)

    monkeypatch.setattr(agents, "resources", SimpleNamespace(files=files))
    for _ in range(2):
        engine = make_run(synthetic_backend, dataset_50, taxonomy, defective_seed)
        assert engine.hypothesis_template.body == shipped["hypothesis"]
        assert engine.reflection_template.body == shipped["reflection"]
    assert reads == []
