from dataclasses import fields

import pytest

from vistaopt import estimator
from vistaopt.backends.synthetic import SyntheticWorldConfig, make_synthetic_dataset
from vistaopt.domain import RunConfig
from vistaopt.errors import NotFittedError
from vistaopt.estimator import PromptOptimizer


def test_get_params_round_trip():
    opt = PromptOptimizer(K=4, p=0.3, budget=50)
    params = opt.get_params()
    assert params["K"] == 4 and params["p"] == 0.3 and params["budget"] == 50
    clone = PromptOptimizer(**params)
    assert clone.get_params() == params


def test_every_run_config_field_is_an_estimator_parameter(monkeypatch):
    params = PromptOptimizer().get_params()
    assert {f.name for f in fields(RunConfig)} <= set(params)

    class Captured(Exception):
        pass

    def capture(config, **_):
        raise Captured(config)

    monkeypatch.setattr(estimator, "run", capture)
    opt = PromptOptimizer(K=2, p=0.5, epsilon=0.3, b=4, budget=40, rng_seed=3,
                          mode="baseline", max_parallel=2, restart_lookahead_cap=1)
    with pytest.raises(Captured) as excinfo:
        opt.fit()
    assert excinfo.value.args[0] == RunConfig.from_dict(opt.get_params())
    assert excinfo.value.args[0] != RunConfig()


def test_estimator_defaults_are_the_run_configs():
    params = PromptOptimizer().get_params()
    assert RunConfig(**{f.name: params[f.name] for f in fields(RunConfig)}) == RunConfig()


def test_repr_names_every_run_config_field():
    opt = PromptOptimizer(max_parallel=2, restart_lookahead_cap=1)
    shown = repr(opt)
    assert shown.startswith("PromptOptimizer(")
    for f in fields(RunConfig):
        assert f"{f.name}={getattr(opt, f.name)!r}" in shown


def test_set_params_validates_names():
    opt = PromptOptimizer()
    opt.set_params(K=5, epsilon=0.2)
    assert opt.K == 5 and opt.epsilon == 0.2
    with pytest.raises(ValueError):
        opt.set_params(unknown_param=1)


def test_sklearn_clone_compatibility():
    sklearn_base = pytest.importorskip("sklearn.base")
    opt = PromptOptimizer(K=2, budget=64, rng_seed=9)
    cloned = sklearn_base.clone(opt)
    assert cloned is not opt
    assert cloned.get_params() == opt.get_params()


def test_not_fitted_errors():
    opt = PromptOptimizer()
    with pytest.raises(NotFittedError):
        opt.predict(["q"])
    with pytest.raises(NotFittedError):
        opt.score([])


def test_fit_exposes_results(defective_seed):
    opt = PromptOptimizer(budget=200, rng_seed=0, max_parallel=1)
    fitted = opt.fit(seed_prompt=defective_seed)
    assert fitted is opt
    assert opt.best_prompt_ and 0.0 <= opt.best_score_ <= 1.0
    assert opt.best_score_ >= 0.24
    assert opt.ledger_.remaining <= 0
    assert opt.trace_.nodes and opt.outcomes_


def test_fit_deterministic_across_instances(defective_seed):
    a = PromptOptimizer(budget=150, rng_seed=3, max_parallel=1).fit(seed_prompt=defective_seed)
    b = PromptOptimizer(budget=150, rng_seed=3, max_parallel=1).fit(seed_prompt=defective_seed)
    assert a.best_prompt_ == b.best_prompt_
    assert a.best_score_ == b.best_score_


def test_predict_and_score(defective_seed):
    dataset = make_synthetic_dataset(30, 20)
    opt = PromptOptimizer(budget=200, rng_seed=0, b=6, max_parallel=1)
    opt.fit(dataset, defective_seed)
    counters = (opt.result_.evaluator.metric_calls, opt.result_.evaluator.uncharged_calls)
    answers = opt.predict([item.question for item in dataset.val[:5]])
    assert len(answers) == 5
    accuracy = opt.score(dataset.val)
    assert accuracy == pytest.approx(opt.best_score_, abs=0.001)
    opt.set_params(max_parallel=4)
    assert opt.predict([item.question for item in dataset.val[:5]]) == answers
    assert opt.score(dataset.val) == accuracy
    assert (opt.result_.evaluator.metric_calls, opt.result_.evaluator.uncharged_calls) == counters


def test_custom_world_threaded_through():
    world = SyntheticWorldConfig(heuristic_success=0.0)
    opt = PromptOptimizer(budget=150, rng_seed=0, p=0.0, epsilon=0.0,
                          world=world, max_parallel=1).fit()
    labels = {e.label for e in opt.trace_.accepted_edges()}
    assert "cot_field_ordering" not in labels
