import json
import sys
from dataclasses import dataclass, fields
from importlib import resources
from typing import Annotated, get_type_hints

import pytest
import yaml

from vistaopt.domain import (
    PromptCandidate,
    Range,
    RunConfig,
    TaskDataset,
    TaskItem,
    check_config,
    default_taxonomy,
    load_dataset,
    load_taxonomy,
    load_taxonomy_path,
    read_record,
    validate_config,
)
from vistaopt.domain import _violation
from vistaopt.errors import (
    DuplicateIdError,
    EmptyTaxonomyError,
    InvalidConfigError,
    IoFailureError,
    MalformedLineError,
    MalformedRecordError,
    OverlappingIdsError,
)


def test_default_taxonomy_shape(taxonomy):
    assert len(taxonomy) == 7
    assert taxonomy.ids[0] == "cot_field_ordering"
    assert taxonomy.ids[-1] == "unclassified_custom"


def test_load_taxonomy_empty(monkeypatch):
    with pytest.raises(EmptyTaxonomyError):
        load_taxonomy("[]")
    monkeypatch.setitem(sys.modules, "yaml", None)  # blank text is empty, not YAML
    with pytest.raises(EmptyTaxonomyError):
        load_taxonomy(" \n")


def test_load_taxonomy_duplicate_ids():
    source = """
- id: a
  name: A
  description: first
- id: a
  name: A2
  description: second
"""
    with pytest.raises(DuplicateIdError):
        load_taxonomy(source)


def test_load_taxonomy_malformed_record():
    with pytest.raises(MalformedRecordError):
        load_taxonomy("- id: a\n  name: missing description\n")


def test_taxonomy_round_trip(taxonomy, tmp_path):
    """The shipped JSON taxonomy, written out as a YAML file, loads back equal."""
    records = [{"id": e.id, "name": e.name, "description": e.description}
               for e in taxonomy.entries]
    (tmp_path / "tax.yaml").write_text(yaml.safe_dump(records, sort_keys=False))
    assert load_taxonomy_path(tmp_path / "tax.yaml") == taxonomy


@pytest.mark.parametrize("source", ["[{", "- id: a\n  name: [unclosed\n"])
def test_load_taxonomy_neither_json_nor_yaml(source):
    with pytest.raises(MalformedRecordError, match="does not parse"):
        load_taxonomy(source)


def test_default_taxonomy_is_parsed_once():
    assert default_taxonomy() is default_taxonomy()


def test_load_taxonomy_path_returns_a_separate_equal_taxonomy():
    with resources.as_file(resources.files("vistaopt.data") / "taxonomy.json") as path:
        loaded = load_taxonomy_path(path)
    assert loaded == default_taxonomy()
    assert loaded is not default_taxonomy()
    assert loaded is not load_taxonomy_path(path)


def test_taxonomy_membership_and_joint(taxonomy):
    assert "cot_field_ordering" in taxonomy
    assert "nonsense" not in taxonomy
    assert taxonomy.covers("cot_field_ordering+format_and_syntax")
    assert not taxonomy.covers("cot_field_ordering+nonsense")
    assert not taxonomy.covers("a+b+c")


def test_load_dataset_gsm8k_style_answer(dataset_files):
    train, val = dataset_files
    ds = load_dataset(train, val)
    assert len(ds.train) == 50 and len(ds.val) == 50
    # rationale suffix "#### 6" keeps only the normalized answer
    assert ds.train[3].gold_answer == "6"


def test_load_dataset_empty_train(tmp_path, dataset_files):
    _train, val = dataset_files
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(MalformedLineError):
        load_dataset(empty, val)


def test_load_dataset_missing_file(dataset_files):
    _train, val = dataset_files
    with pytest.raises(IoFailureError):
        load_dataset("/nonexistent/train.jsonl", val)


def test_load_dataset_malformed_line(tmp_path, dataset_files):
    _train, val = dataset_files
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x", "question": "q", "answer": "1"}\nnot json\n', encoding="utf-8")
    with pytest.raises(MalformedLineError) as excinfo:
        load_dataset(bad, val)
    assert excinfo.value.line_no == 2


def test_load_dataset_overlapping_ids(tmp_path):
    line = json.dumps({"id": "same", "question": "q", "answer": "1"})
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    a.write_text(line + "\n", encoding="utf-8")
    b.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(OverlappingIdsError):
        load_dataset(a, b)


def test_validate_config_defaults_ok(dataset_50):
    cfg = RunConfig()
    assert validate_config(cfg, dataset_50) is cfg
    assert (cfg.K, cfg.p, cfg.epsilon, cfg.b) == (3, 0.2, 0.1, 8)
    assert cfg.budget == 500 and cfg.max_parallel == 4


def test_validate_config_minibatch_too_large(dataset_50):
    with pytest.raises(InvalidConfigError) as excinfo:
        validate_config(RunConfig(b=100), dataset_50)
    assert any("b=100" in v for v in excinfo.value.violations)


def test_validate_config_p_boundary(dataset_50):
    # restart-only runs are legal
    validate_config(RunConfig(p=1.0), dataset_50)
    validate_config(RunConfig(p=0.0), dataset_50)
    with pytest.raises(InvalidConfigError):
        validate_config(RunConfig(p=1.5), dataset_50)


def test_validate_config_collects_all_violations(dataset_50):
    with pytest.raises(InvalidConfigError) as excinfo:
        validate_config(RunConfig(K=0, p=-1, b=0, mode="nope"), dataset_50)
    assert len(excinfo.value.violations) >= 4


def test_check_config_returns_each_sections_arguments():
    config = {"K": 2, "p": 1, "notes": [1], "absent": None,
              "dataset": {"train_path": "t", "val_path": "v", "x": 5}}
    sections = [("", RunConfig), ("dataset", load_dataset), ("absent", RunConfig)]
    assert check_config(config, sections) == [{"K": 2, "p": 1},
                                              {"train_path": "t", "val_path": "v"}, {}]


@pytest.mark.parametrize("config, where, target, violations", [
    ({"K": True, "epsilon": 1.5}, "", RunConfig,
     ["K: True is not an integer", "epsilon: 1.5 is not <= 1"]),
    ({"p": float("nan")}, "", RunConfig, ["p: nan is not a number"]),
    ({"mode": "nope"}, "", RunConfig, ["mode: 'nope' is not in ('vista', 'baseline')"]),
    ({"dataset": {"train_path": 5}}, "dataset", load_dataset,
     ["dataset.train_path: 5 is not a string", "dataset.val_path is required"]),
    ({"dataset": [1]}, "dataset.synthetic", load_dataset, ["dataset: [1] is not an object"]),
    ([1], "", RunConfig, ["config: [1] is not an object"]),
])
def test_check_config_lists_every_violation(config, where, target, violations):
    with pytest.raises(InvalidConfigError) as excinfo:
        check_config(config, [(where, target)])
    assert excinfo.value.violations == violations


@dataclass(frozen=True)
class Sighted:
    count: Annotated[int, Range(minimum=0)] | None
    status: Annotated[str, Range(enum=("a", "b"))]
    name: str
    flag: bool
    share: Annotated[float, Range(minimum=0, maximum=1)] | None


def test_read_record_accepts_on_sight_only_what_the_annotation_allows():
    """The reader's on-sight shortcut (types, enum strings, an int's minimum)
    agrees with ``_violation`` on every value."""
    hints = get_type_hints(Sighted, include_extras=True)
    valid = {"count": 0, "status": "a", "name": "n", "flag": False, "share": None}
    for field in fields(Sighted):
        for value in (0, 5, -1, True, False, 0.5, 1.0, 2.0, "a", "b", "c", None, [], {}):
            allowed = _violation(hints[field.name], value) is None
            try:
                read = read_record(Sighted, {**valid, field.name: value})
            except (TypeError, ValueError):
                read = None
            assert (read is not None) == allowed, (field.name, value)
            assert read is None or getattr(read, field.name) is value


def test_run_config_round_trip():
    cfg = RunConfig(K=5, p=0.3, epsilon=0.25, b=4, budget=100, rng_seed=7,
                    mode="baseline", max_parallel=2, restart_lookahead_cap=1)
    assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def check_candidate_invariants(candidate: PromptCandidate) -> None:
    """A scored candidate's accuracy is the mean of its validation scores."""
    if candidate.val_scores is not None:
        assert candidate.val_accuracy == sum(candidate.val_scores) / len(candidate.val_scores), (
            f"candidate {candidate.id}: val_accuracy out of sync")


def test_candidate_val_accuracy_consistency():
    cand = PromptCandidate(id=0, text="p").with_val_scores([1, 0, 1, 1])
    assert cand.val_accuracy == 3 / 4
    check_candidate_invariants(cand)


def test_dataset_rejects_duplicates_within_split():
    item = TaskItem(id="x", question="q", gold_answer="1")
    with pytest.raises(OverlappingIdsError):
        TaskDataset(train=(item, item), val=(TaskItem(id="y", question="q", gold_answer="1"),))
