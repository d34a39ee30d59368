import json

import pytest

from vistaopt.backends.base import GenerationRequest, RoleRouter
from vistaopt.backends.synthetic import (
    CANONICAL_RESTART_PROMPT,
    SyntheticBackend,
    SyntheticWorldConfig,
    extract_features,
    item_difficulty,
    make_synthetic_dataset,
    prompt_skill,
    synthetic_base_answer,
    synthetic_reflect,
)
from vistaopt.domain import TaskItem
from vistaopt.errors import InvalidConfigError


def base_request(system, user):
    return GenerationRequest(role="base", messages=(("system", system), ("user", user)))


# --------------------------------------------------------------- features

def test_features_defective_seed(defective_seed):
    feats = extract_features(defective_seed)
    assert feats["solution_first"] is False
    assert feats["has_cot_directive"] is True
    assert feats["strict_format"] is True


def test_features_repaired_seed(repaired_seed):
    assert extract_features(repaired_seed)["solution_first"] is True


def test_features_minimal_seed(minimal_seed):
    feats = extract_features(minimal_seed)
    assert feats == {"solution_first": False, "has_cot_directive": False,
                     "strict_format": False}


def test_features_empty_prompt():
    assert extract_features("") == {
        "solution_first": False, "has_cot_directive": False, "strict_format": False}


def test_features_extensible_via_config():
    feats = extract_features("Please verify twice.", extra={"verifies": "verify"})
    assert feats["verifies"] is True


def test_skill_regimes(world, defective_seed, repaired_seed):
    assert prompt_skill(extract_features(defective_seed), world) == pytest.approx(0.24)
    assert prompt_skill(extract_features(repaired_seed), world) == pytest.approx(0.87)


# -------------------------------------------------------------- base model

def test_base_answer_threshold(world, defective_seed):
    feats = extract_features(defective_seed)
    item = TaskItem(id="t", question="q", gold_answer="6", difficulty=0.5)
    raw = synthetic_base_answer(feats, item, world)
    assert json.loads(raw)["final_answer"] != "6"  # skill 0.24 < difficulty 0.5


def test_base_answer_difficulty_zero_always_correct(world, repaired_seed):
    feats = extract_features(repaired_seed)
    item = TaskItem(id="t", question="q", gold_answer="6", difficulty=0.0)
    assert json.loads(synthetic_base_answer(feats, item, world))["final_answer"] == "6"


def test_base_answer_deterministic(world, defective_seed):
    feats = extract_features(defective_seed)
    item = TaskItem(id="t", question="q", gold_answer="6", difficulty=0.3)
    assert synthetic_base_answer(feats, item, world) == synthetic_base_answer(feats, item, world)


def test_base_answer_field_order_mirrors_feature(world, defective_seed, repaired_seed):
    item = TaskItem(id="t", question="q", gold_answer="6", difficulty=0.0)
    defective = synthetic_base_answer(extract_features(defective_seed), item, world)
    repaired = synthetic_base_answer(extract_features(repaired_seed), item, world)
    assert defective.index("final_answer") < defective.index("solution_pad")
    assert repaired.index("solution_pad") < repaired.index("final_answer")


def test_backend_base_identical_requests(synthetic_backend, dataset_50, defective_seed):
    req = base_request(defective_seed, dataset_50.train[0].question)
    assert synthetic_backend.generate(req) == synthetic_backend.generate(req)


def test_backend_base_prose_without_schema(synthetic_backend):
    raw = synthetic_backend.generate(base_request("no schema here", "some question"))
    assert "{" not in raw


# ---------------------------------------------------------------- dataset

def test_synthetic_dataset_difficulty_grid():
    ds = make_synthetic_dataset(50, 50)
    assert len(ds.train) == len(ds.val) == 50
    assert ds.train[0].difficulty == 0.0
    assert ds.train[-1].difficulty == 1.0
    assert ds.val[10].difficulty == pytest.approx(10 / 49)


def test_item_difficulty_fallback_stable():
    item = TaskItem(id="abc", question="q", gold_answer="1")
    assert item_difficulty(item) == item_difficulty(item)
    assert 0.0 <= item_difficulty(item) < 1.0


# --------------------------------------------------------------- reflect

def test_reflect_order_fix_flips_defective_seed(world, defective_seed):
    import random
    fixed = synthetic_reflect("cot_field_ordering", defective_seed, world, random.Random(0))
    assert extract_features(fixed)["solution_first"] is True


def test_reflect_order_fix_idempotent_on_fixed(world, repaired_seed):
    import random
    out = synthetic_reflect("cot_field_ordering", repaired_seed, world, random.Random(0))
    assert out == repaired_seed


def test_reflect_order_fix_on_minimal_seed(world, minimal_seed):
    import random
    fixed = synthetic_reflect("cot_field_ordering", minimal_seed, world, random.Random(0))
    assert extract_features(fixed)["solution_first"] is True


def test_reflect_cosmetic_noop_idempotent(world, defective_seed):
    import random
    once = synthetic_reflect("edge_case_handling", defective_seed, world, random.Random(0))
    twice = synthetic_reflect("edge_case_handling", once, world, random.Random(0))
    assert once == twice
    assert extract_features(once) == extract_features(defective_seed)


def test_reflect_blank_is_canonical_and_parent_independent(world, defective_seed, minimal_seed):
    import random
    a = synthetic_reflect("none", defective_seed, world, random.Random(0))
    b = synthetic_reflect("none", minimal_seed, world, random.Random(1))
    assert a == b == CANONICAL_RESTART_PROMPT
    assert extract_features(a)["solution_first"] is True


def test_reflect_joint_label_applies_order_fix(world, defective_seed):
    import random
    fixed = synthetic_reflect("cot_field_ordering+format_and_syntax", defective_seed,
                              world, random.Random(0))
    assert extract_features(fixed)["solution_first"] is True


# ---------------------------------------------------------- agent scripts

def test_hypothesis_shape_three_blocks(synthetic_backend):
    request = GenerationRequest(
        role="hypothesis_agent",
        messages=(("user", "generate exactly 3 diverse root-cause hypotheses"),),
        extras={"slot_origins": ("heuristic", "heuristic", "heuristic")},
    )
    text = synthetic_backend.generate(request)
    for n in (1, 2, 3):
        assert f"[HYPOTHESIS {n}]" in text
    assert text.count("TAG:") == 3


def test_alpha_zero_free_slots_never_carry_root_cause(world, dataset_50, taxonomy):
    assert world.free_prior.get(world.true_root_cause, 0.0) == 0.0
    backend = SyntheticBackend(world, dataset_50, taxonomy, run_seed=0)
    for i in range(200):
        request = GenerationRequest(
            role="hypothesis_agent",
            messages=(("user", f"probe {i}: generate exactly 3 diverse"),),
            extras={"slot_origins": ("free", "free", "free")},
        )
        text = backend.generate(request)
        assert "cot_field_ordering" not in text


def test_heuristic_success_zero_never_proposes_root_cause(dataset_50, taxonomy):
    world = SyntheticWorldConfig(heuristic_success=0.0)
    backend = SyntheticBackend(world, dataset_50, taxonomy, run_seed=0)
    for i in range(100):
        request = GenerationRequest(
            role="hypothesis_agent",
            messages=(("user", f"probe {i}: generate exactly 3 diverse"),),
            extras={"slot_origins": ("heuristic", "heuristic", "heuristic")},
        )
        assert "cot_field_ordering" not in backend.generate(request)


def test_reflection_role_round_trip(synthetic_backend, taxonomy, defective_seed):
    from vistaopt.agents import format_failures, load_template, render_reflection_prompt
    from vistaopt.domain import Hypothesis

    hyp = Hypothesis(label="cot_field_ordering", description="d", fix="f", origin="heuristic")
    prompt = render_reflection_prompt(load_template("reflection"), defective_seed, hyp,
                                      format_failures([]))
    request = GenerationRequest(role="reflection_agent", messages=(("user", prompt),))
    rewritten = synthetic_backend.generate(request)
    assert extract_features(rewritten)["solution_first"] is True


# ------------------------------------------------------------ world config

def test_world_config_validation():
    with pytest.raises(InvalidConfigError):
        SyntheticWorldConfig(free_prior={"a": 0.5, "b": 0.4})
    with pytest.raises(InvalidConfigError):
        SyntheticWorldConfig(base_accuracy=1.5)
    with pytest.raises(InvalidConfigError):
        SyntheticWorldConfig(feature_weights={"solution_first": 2.0})
    with pytest.raises(InvalidConfigError):
        SyntheticWorldConfig(base_accuracy=True)


def test_world_config_round_trip(world):
    assert SyntheticWorldConfig.from_dict(world.to_dict()) == world


# ----------------------------------------------------------------- router

def test_role_router_dispatch(synthetic_backend):
    class Canned:
        def generate(self, request):
            return "canned"

    router = RoleRouter(default=synthetic_backend, hypothesis_agent=Canned())
    hyp = GenerationRequest(role="hypothesis_agent", messages=(("user", "x"),))
    assert router.generate(hyp) == "canned"
    base = base_request("no schema", "q")
    assert "canned" not in router.generate(base)


def test_request_validation():
    with pytest.raises(ValueError):
        GenerationRequest(role="nope", messages=(("user", "x"),))
    with pytest.raises(ValueError):
        GenerationRequest(role="base", messages=())
