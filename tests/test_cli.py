import json
from itertools import accumulate
from pathlib import Path

import pytest

from vistaopt.backends.http import HttpBackend
from vistaopt.backends.synthetic import SyntheticBackend, SyntheticWorldConfig, make_synthetic_dataset
from vistaopt.cli import (
    ERROR_EXITS,
    EXIT_INVALID_CONFIG,
    EXIT_IO_FAILURE,
    EXIT_MISSING_ARTIFACTS,
    EXIT_OK,
    EXIT_TRANSPORT_FAILURE,
    main,
)
from vistaopt.domain import default_taxonomy
from vistaopt.errors import TransportFailureError


CLOSED_PORT = "http://127.0.0.1:9"


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "K": 3, "p": 0.2, "epsilon": 0.1, "b": 8, "budget": 200,
        "rng_seed": 0, "mode": "vista", "max_parallel": 1,
        "restart_lookahead_cap": 5,
        "dataset": {"synthetic": {"train_size": 50, "val_size": 50}},
    }), encoding="utf-8")
    return path


def run_dir_files(run_dir):
    return {p.name for p in Path(run_dir).iterdir()}


def read_journal(run_dir):
    text = (Path(run_dir) / "rounds.jsonl").read_text(encoding="utf-8")
    assert text.endswith("\n")
    return [json.loads(line) for line in text.splitlines()]


def test_optimize_writes_run_directory(config_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["optimize", str(config_file), "defective", str(out)])
    assert code == EXIT_OK
    assert run_dir_files(out) == {"config.json", "trace.json", "trace.dot", "pool.json",
                                  "ledger.json", "best_prompt.txt", "rounds.jsonl"}
    assert "run complete" in capsys.readouterr().out
    rounds = read_journal(out)
    assert rounds and [r["iteration"] for r in rounds] == list(range(1, len(rounds) + 1))


def test_optimize_missing_config(tmp_path):
    code = main(["optimize", str(tmp_path / "absent.json"), "defective",
                 str(tmp_path / "run")])
    assert code == EXIT_IO_FAILURE
    assert not (tmp_path / "run").exists()


def test_optimize_invalid_config(tmp_path, config_file):
    data = json.loads(config_file.read_text())
    data["b"] = 100
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    code = main(["optimize", str(bad), "defective", str(tmp_path / "run")])
    assert code == EXIT_INVALID_CONFIG


@pytest.mark.parametrize("override, flags", [
    ({"p": "0.2"}, []),
    ({"epsilon": None}, []),
    ({"max_parallel": True}, []),
    ({"dataset": {"train_path": "x"}}, []),
    ({"templates": "x"}, []),
    ({"templates": {"hypothesis": 5}}, []),
    ({"taxonomy_path": 5}, []),
    ({"synthetic_world": {"feature_weights": "x"}}, []),
    ({"synthetic_world": {"base_accuracy": 2}}, []),
    ({"http": []}, ["--backend", "http"]),
    ({"dataset": {"synthetic": {"train_size": "x"}}}, []),
    ({"synthetic_world": {"extra_features": "x"}}, []),
    ({"synthetic_world": {"fix_table": "x"}}, []),
    ({"synthetic_world": {"true_root_cause": 5}}, []),
    ({"synthetic_world": {"base_accuracy": True}}, []),
    ({"synthetic_world": {"feature_weights": {"solution_first": True}}}, []),
    ({"http": {"base_url": CLOSED_PORT, "timeout": "x"}}, ["--backend", "http"]),
    ({"http": {"base_url": 5}}, ["--backend", "http"]),
    ({"http": {"base_url": CLOSED_PORT, "model": 5}}, ["--backend", "http"]),
    ({"http": {"base_url": CLOSED_PORT, "max_retries": "x"}}, ["--backend", "http"]),
    ({"http": {"base_url": CLOSED_PORT, "role_models": "x"}}, ["--backend", "http"]),
    ({"http": {"base_url": CLOSED_PORT, "max_retries": -1}}, ["--backend", "http"]),
    ({"http": {"base_url": CLOSED_PORT, "timeout": 0, "max_retries": 0}}, ["--backend", "http"]),
    ({"http": {"base_url": CLOSED_PORT, "timeout": float("nan"), "max_retries": 0}},
     ["--backend", "http"]),
    ({"http": {"base_url": CLOSED_PORT, "timeout": float("inf"), "max_retries": 0}},
     ["--backend", "http"]),
    ({"http": {"base_url": CLOSED_PORT, "timeout": 1e300, "max_retries": 0}},
     ["--backend", "http"]),
    ({"http": {"base_url": "ftp://x"}}, ["--backend", "http"]),
    ({"http": {"base_url": "http://"}}, ["--backend", "http"]),
    ({"http": {"timeout": "x"}}, []),
], ids=["p-string", "epsilon-null", "max_parallel-bool", "dataset-no-val_path", "templates-string",
        "template-path-int", "taxonomy_path-int", "feature_weights-string", "base_accuracy-2",
        "http-list", "train_size-string", "extra_features-string", "fix_table-string",
        "true_root_cause-int", "base_accuracy-bool", "feature_weight-bool", "timeout-string",
        "base_url-int", "model-int", "max_retries-string", "role_models-string",
        "max_retries-negative", "timeout-0", "timeout-nan", "timeout-infinity",
        "timeout-1e300", "base_url-ftp", "base_url-no-host", "http-under-synthetic-backend"])
def test_optimize_malformed_config_value_exits_invalid_config(override, flags, tmp_path,
                                                              config_file, capsys):
    data = {**json.loads(config_file.read_text()), **override}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    code = main(["optimize", str(bad), "defective", str(tmp_path / "run"), *flags])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID_CONFIG
    assert err.startswith("invalid configuration:") and "Traceback" not in err


def test_optimize_seed_override_changes_run(config_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["optimize", str(config_file), "defective", str(out_a), "--seed", "1"]) == EXIT_OK
    assert main(["optimize", str(config_file), "defective", str(out_b), "--seed", "1"]) == EXIT_OK
    assert (out_a / "trace.json").read_bytes() == (out_b / "trace.json").read_bytes()
    assert json.loads((out_a / "config.json").read_text())["rng_seed"] == 1


def test_optimize_baseline_mode_all_unlabeled(config_file, tmp_path):
    out = tmp_path / "baseline"
    code = main(["optimize", str(config_file), "defective", str(out),
                 "--mode", "baseline"])
    assert code == EXIT_OK
    trace = json.loads((out / "trace.json").read_text())
    assert trace["edges"], "baseline run should still record proposals"
    assert all(e["label"] == "unlabeled" for e in trace["edges"])


def test_export_trace_and_report_round_trip(config_file, tmp_path):
    out = tmp_path / "run"
    assert main(["optimize", str(config_file), "defective", str(out)]) == EXIT_OK
    assert main(["export-trace", str(out), "--format", "dot"]) == EXIT_OK
    dot = (out / "trace.dot").read_text()
    assert dot.startswith("digraph trace {")
    assert "style=dashed" in dot

    assert main(["report", str(out)]) == EXIT_OK
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "metric_calls,best_val_accuracy"
    assert report[1].startswith("0,")
    attribution = (out / "attribution.csv").read_text()
    cot_row = [l for l in attribution.splitlines() if l.startswith("cot_field_ordering,")]
    assert cot_row and int(cot_row[0].split(",")[1]) >= 1  # accepted at least once
    assert (out / "oscillations.json").exists()

    # re-exporting json and re-running the report leaves outputs unchanged
    before = (out / "report.csv").read_bytes(), (out / "attribution.csv").read_bytes()
    trace = (out / "trace.json").read_bytes()
    assert main(["export-trace", str(out), "--format", "json"]) == EXIT_OK
    assert (out / "trace.json").read_bytes() == trace
    assert main(["report", str(out)]) == EXIT_OK
    after = (out / "report.csv").read_bytes(), (out / "attribution.csv").read_bytes()
    assert before == after


def test_export_trace_missing_run(tmp_path):
    assert main(["export-trace", str(tmp_path)]) == EXIT_MISSING_ARTIFACTS


def test_report_missing_artifacts(tmp_path):
    assert main(["report", str(tmp_path)]) == EXIT_MISSING_ARTIFACTS


@pytest.mark.parametrize("missing", ["ledger.json", "rounds.jsonl", "config.json"])
def test_report_missing_ledger_or_journal_exit_code(missing, config_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["optimize", str(config_file), "defective", str(out)]) == EXIT_OK
    (out / missing).unlink()
    capsys.readouterr()
    assert main(["report", str(out)]) == EXIT_MISSING_ARTIFACTS
    err = capsys.readouterr().err
    assert err.startswith("missing artifacts:") and missing in err
    assert not (out / "report.csv").exists()


def test_report_config_not_an_object_exits_error(config_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["optimize", str(config_file), "defective", str(out)]) == EXIT_OK
    (out / "config.json").write_text("[1]", encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(out)]) == EXIT_INVALID_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and "Traceback" not in err
    assert not (out / "report.csv").exists()


def test_report_config_failing_the_check_exits_invalid_config(config_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["optimize", str(config_file), "defective", str(out)]) == EXIT_OK
    (out / "config.json").write_text('{"taxonomy_path": 5}', encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(out)]) == EXIT_INVALID_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: taxonomy_path") and "Traceback" not in err
    assert not (out / "report.csv").exists()


def cut_last_line(text):
    """The text with its last line cut halfway, as a killed writer leaves it."""
    return text[:len(text) - 1 - len(text.splitlines()[-1]) // 2]


def root_not_a_node(text):
    return json.dumps({**json.loads(text), "root": 99})


def first_record(records, key, value):
    """An edit that sets ``key`` to ``value`` in the first of a JSON run
    file's ``records`` list, or in the first line of a JSON-lines file when
    ``records`` is None."""
    def edit(text):
        if records is None:
            first, rest = text.split("\n", 1)
            return json.dumps({**json.loads(first), key: value}) + "\n" + rest
        data = json.loads(text)
        data[records][0][key] = value
        return json.dumps(data)
    edit.__name__ = f"{key}={json.dumps(value)}"
    return edit


def top_level(key, value):
    """An edit that sets ``key`` to ``value`` in a JSON run file's object."""
    def edit(text):
        return json.dumps({**json.loads(text), key: value})
    edit.__name__ = f"{key}={json.dumps(value)}"
    return edit


def first_target(key, value, rejected=False):
    """An edit that sets ``key`` to ``value`` in the node that the first edge
    of a ``trace.json``, or its first rejected edge, leads to."""
    def edit(text):
        data = json.loads(text)
        target = next(e["to"] for e in data["edges"] if e["status"] == "rejected" or not rejected)
        next(n for n in data["nodes"] if n["id"] == target)[key] = value
        return json.dumps(data)
    edit.__name__ = f"{'rejected-' * rejected}target-{key}={json.dumps(value)}"
    return edit


def first_proposal(key, value):
    """An edit that sets ``key`` to ``value`` in the first proposal of a
    ``rounds.jsonl``."""
    def edit(text):
        rounds = [json.loads(line) for line in text.splitlines()]
        next(r for r in rounds if r["proposals"])["proposals"][0][key] = value
        return "".join(json.dumps(r) + "\n" for r in rounds)
    edit.__name__ = f"proposal-{key}={json.dumps(value)}"
    return edit


def first_accepted_edge(key, value):
    """An edit that sets ``key`` to ``value`` in the first accepted edge of a
    ``trace.json``."""
    def edit(text):
        data = json.loads(text)
        next(e for e in data["edges"] if e["status"] == "accepted")[key] = value
        return json.dumps(data)
    edit.__name__ = f"accepted-{key}={json.dumps(value)}"
    return edit


def first_round(key, value, won):
    """An edit that sets ``key`` to ``value`` in the first round of a
    ``rounds.jsonl`` that has a winner, or that has proposals but no winner."""
    def edit(text):
        rounds = [json.loads(line) for line in text.splitlines()]
        next(r for r in rounds if r["proposals"] and (r["winner"] is not None) == won)[key] = value
        return "".join(json.dumps(r) + "\n" for r in rounds)
    edit.__name__ = f"{'won' if won else 'lost'}-round-{key}={json.dumps(value)}"
    return edit


def rejected_target_drawn_40_of_50(text):
    """The first rejected target of a ``trace.json`` edited to 40 correct
    answers on a minibatch of 50, which its round in the journal does not say."""
    return first_target("minibatch_size", 50, rejected=True)(
        first_target("correct_count", 40, rejected=True)(text))


MALFORMED_RUN_FILES = [
    *[("report", name, content) for name in ("trace.json", "ledger.json", "rounds.jsonl")
      for content in ("{}", "[]", "nope")],
    *[("export-trace", "trace.json", content) for content in ("{}", "[]", "nope")],
    ("report", "rounds.jsonl", cut_last_line),
    ("report", "trace.json", root_not_a_node),
    ("export-trace", "trace.json", root_not_a_node),
    ("report", "config.json", "nope"),
    # Well-formed keys holding a value of the wrong type.
    *[("report", "ledger.json", first_record("charges", key, value))
      for key, value in (("amount", "x"), ("amount", True), ("iteration", "1"))],
    *[("report", "rounds.jsonl", first_record(None, key, value))
      for key, value in (("iteration", 1.0), ("best_updated", 1), ("winner", "1"))],
    *[(command, "trace.json", first_record("nodes", "val_accuracy", value))
      for command in ("report", "export-trace") for value in ("x", True)],
    *[(command, "trace.json", edit) for command in ("report", "export-trace")
      for edit in (first_target("correct_count", "x", rejected=True),
                   first_target("minibatch_size", [1], rejected=True), first_target("id", True))],
    *[("report", "rounds.jsonl", first_record(None, key, value))
      for key, value in (("proposals", "junk"), ("minibatch", 7), ("log", None))],
    ("report", "rounds.jsonl", first_proposal("slot", "0")),
    # Well-typed values that no run writes.
    ("report", "ledger.json", first_record("charges", "amount", -50)),
    ("report", "ledger.json", top_level("remaining", 12345)),
    *[(command, "trace.json", edit) for command in ("report", "export-trace")
      for edit in (first_record("edges", "from", 12345), first_accepted_edge("delta_val_pp", "x"),
                   first_target("correct_count", 99, rejected=True),
                   first_target("val_accuracy", 5.0, rejected=True),
                   first_target("val_accuracy", 0.5, rejected=True))],
    # Well-typed files that disagree with the fold of the journal.
    *[(command, name, edit) for command in ("report", "export-trace")
      for name, edit in (("trace.json", rejected_target_drawn_40_of_50),
                         ("rounds.jsonl", first_round("winner_label", "format_and_syntax", True)),
                         ("rounds.jsonl", first_round("winner", None, True)),
                         ("rounds.jsonl", first_round("best_updated", False, True)),
                         ("rounds.jsonl", first_round("best_updated", True, False)),
                         ("rounds.jsonl", first_round("pool_accepted", True, False)),
                         ("rounds.jsonl", first_round("winner", 1, False)))],
    *[("export-trace", "ledger.json", edit)
      for edit in (first_record("charges", "amount", -50), top_level("remaining", 12345))],
]


@pytest.mark.parametrize("command, name, content", MALFORMED_RUN_FILES, ids=[
    f"{command}-{name}-{getattr(content, '__name__', content)}"
    for command, name, content in MALFORMED_RUN_FILES])
def test_malformed_run_file_exits_missing_artifacts(command, name, content, config_file,
                                                    tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["optimize", str(config_file), "defective", str(out)]) == EXIT_OK
    path = out / name
    path.write_text(content if isinstance(content, str) else content(path.read_text()),
                    encoding="utf-8")
    capsys.readouterr()
    assert main([command, str(out)]) == EXIT_MISSING_ARTIFACTS
    err = capsys.readouterr().err
    assert err.startswith("missing artifacts:") and name in err and "Traceback" not in err
    assert not (out / "report.csv").exists()


def appended_charge(text):
    """A second iteration-1 charge of 999 appended to a ``ledger.json``."""
    data = json.loads(text)
    data["charges"].append({**data["charges"][0], "amount": 999})
    return json.dumps(data)


def first_charge_plus_one(text):
    data = json.loads(text)
    data["charges"][0]["amount"] += 1
    return json.dumps(data)


@pytest.mark.parametrize("name, edit", [
    ("ledger.json", appended_charge), ("ledger.json", first_charge_plus_one),
    ("rounds.jsonl", first_record(None, "charge", 999))], ids=lambda e: getattr(e, "__name__", e))
def test_report_rejects_a_ledger_that_is_not_the_journals_charges(name, edit, config_file,
                                                                   tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["optimize", str(config_file), "defective", str(out), "--seed", "1"]) == EXIT_OK
    (out / name).write_text(edit((out / name).read_text()), encoding="utf-8")
    capsys.readouterr()
    for command in ("report", "export-trace"):
        assert main([command, str(out)]) == EXIT_MISSING_ARTIFACTS
        err = capsys.readouterr().err
        assert err.startswith("missing artifacts:") and "Traceback" not in err
        assert "ledger.json" in err and "rounds.jsonl" in err
    assert not (out / "report.csv").exists()


def test_every_row_of_the_exit_table_can_be_reached():
    for index, (classes, _, _) in enumerate(ERROR_EXITS):
        earlier = tuple(cls for row in ERROR_EXITS[:index] for cls in row[0])
        assert not [cls for cls in classes if issubclass(cls, earlier)], ERROR_EXITS[index]


def test_optimize_transport_failure_exit_code(tmp_path, config_file):
    data = json.loads(config_file.read_text())
    # closed port, no retries: fails fast with the transport exit code
    data["http"] = {"base_url": CLOSED_PORT, "max_retries": 0,
                    "backoff_base": 0.0, "timeout": 0.5}
    cfg = tmp_path / "http.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    code = main(["optimize", str(cfg), "defective", str(tmp_path / "run"),
                 "--backend", "http"])
    assert code == EXIT_TRANSPORT_FAILURE


@pytest.mark.parametrize("fails, exit_code", [(False, EXIT_OK), (True, EXIT_TRANSPORT_FAILURE)])
def test_optimize_closes_the_http_backend(fails, exit_code, tmp_path, config_file, monkeypatch):
    synthetic = SyntheticBackend(SyntheticWorldConfig(), make_synthetic_dataset(50, 50),
                                 default_taxonomy(), 0)

    def generate(self, request):
        if fails:
            raise TransportFailureError("injected")
        return synthetic.generate(request)

    close = HttpBackend.close
    closed = []
    monkeypatch.setattr(HttpBackend, "generate", generate)
    monkeypatch.setattr(HttpBackend, "close", lambda self: closed.append(self) or close(self))
    data = json.loads(config_file.read_text())
    data["http"] = {"base_url": CLOSED_PORT}
    cfg = tmp_path / "http.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    code = main(["optimize", str(cfg), "defective", str(tmp_path / "run"), "--backend", "http"])
    assert code == exit_code
    assert len(closed) == 1 and isinstance(closed[0], HttpBackend)


def test_report_metric_calls_match_ledger(config_file, tmp_path):
    out = tmp_path / "run"
    main(["optimize", str(config_file), "defective", str(out)])
    main(["report", str(out)])
    ledger = json.loads((out / "ledger.json").read_text())
    total = sum(c["amount"] for c in ledger["charges"])
    last_line = (out / "report.csv").read_text().splitlines()[-1]
    assert int(last_line.split(",")[0]) == total


def test_report_lists_the_runs_own_taxonomy(tmp_path, config_file, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ids = ["alpha_mode", "beta_mode"]
    Path("tax.yaml").write_text("".join(f"- id: {i}\n  name: {i}\n  description: {i}\n"
                                        for i in ids), encoding="utf-8")
    data = {**json.loads(config_file.read_text()), "taxonomy_path": "tax.yaml"}
    Path("tax.json").write_text(json.dumps(data), encoding="utf-8")
    assert main(["optimize", "tax.json", "defective", "run"]) == EXIT_OK
    assert main(["report", "run"]) == EXIT_OK
    rows = Path("run/attribution.csv").read_text(encoding="utf-8").splitlines()[1:]
    labels = [row.split(",")[0] for row in rows]
    assert labels[:2] == ids
    carried = {edge["label"] for edge in json.loads(Path("run/trace.json").read_text())["edges"]}
    assert set(labels[2:]) == carried - set(ids)
    assert not set(default_taxonomy().ids) & set(labels) - carried


def test_relative_config_paths_resolve_against_the_config_file(tmp_path, dataset_files,
                                                               monkeypatch):
    configs, elsewhere = tmp_path / "configs", tmp_path / "elsewhere"
    configs.mkdir()
    elsewhere.mkdir()
    (configs / "tax.yaml").write_text("- id: alpha_mode\n  name: a\n  description: a\n",
                                      encoding="utf-8")
    (configs / "hypothesis.txt").write_text(
        "CURRENT SYSTEM PROMPT:\n{curr_instructions}\n\nERROR TAXONOMY:\n{error_taxonomy}\n\n"
        "FAILED SAMPLES:\n{failed_samples}\n\nOutput {num_hypotheses} blocks.\n",
        encoding="utf-8")
    data = {"budget": 30, "max_parallel": 1, "taxonomy_path": "tax.yaml",
            "templates": {"hypothesis": "hypothesis.txt"},
            "dataset": {"train_path": "../train.jsonl", "val_path": "../val.jsonl"}}
    (configs / "run.json").write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.chdir(elsewhere)
    assert main(["optimize", "../configs/run.json", "defective", "../run"]) == EXIT_OK
    recorded = json.loads((tmp_path / "run" / "config.json").read_text(encoding="utf-8"))
    taxonomy = Path(recorded["taxonomy_path"])
    assert taxonomy.is_absolute() and taxonomy.samefile(configs / "tax.yaml")
    monkeypatch.chdir(tmp_path / "run")
    assert main(["report", "."]) == EXIT_OK
    # Absolute paths are recorded as written.
    absolute = {**data, "taxonomy_path": str(configs / "tax.yaml"),
                "templates": {"hypothesis": str(configs / "hypothesis.txt")},
                "dataset": {"train_path": str(dataset_files[0]),
                            "val_path": str(dataset_files[1])}}
    (configs / "absolute.json").write_text(json.dumps(absolute), encoding="utf-8")
    assert main(["optimize", str(configs / "absolute.json"), "defective", "../abs"]) == EXIT_OK
    recorded = json.loads((tmp_path / "abs" / "config.json").read_text(encoding="utf-8"))
    assert {key: recorded[key] for key in absolute} == absolute


def test_report_unreadable_taxonomy_exits_io_failure(tmp_path, config_file, capsys):
    taxonomy = tmp_path / "tax.yaml"
    taxonomy.write_text("- id: alpha_mode\n  name: a\n  description: a\n", encoding="utf-8")
    data = {**json.loads(config_file.read_text()), "taxonomy_path": str(taxonomy)}
    cfg = tmp_path / "tax.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["optimize", str(cfg), "defective", str(out)]) == EXIT_OK
    taxonomy.unlink()
    capsys.readouterr()
    assert main(["report", str(out)]) == EXIT_IO_FAILURE
    assert capsys.readouterr().err.startswith("io failure:")
    assert not (out / "attribution.csv").exists()


def test_optimize_with_template_override(tmp_path, config_file):
    override = tmp_path / "hypothesis.txt"
    override.write_text(
        "OVERRIDDEN TEMPLATE\n\nCURRENT SYSTEM PROMPT:\n{curr_instructions}\n\n"
        "ERROR TAXONOMY:\n{error_taxonomy}\n\nFAILED SAMPLES:\n{failed_samples}\n\n"
        "Just output exactly {num_hypotheses} blocks.\n",
        encoding="utf-8")
    data = json.loads(config_file.read_text())
    data["templates"] = {"hypothesis": str(override)}
    data["budget"] = 50
    cfg = tmp_path / "templated.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "run_t"
    assert main(["optimize", str(cfg), "defective", str(out)]) == EXIT_OK


def test_optimize_unwritable_out_dir_exit_code(tmp_path, config_file, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    code = main(["optimize", str(config_file), "defective", str(blocker / "run")])
    assert code == EXIT_IO_FAILURE
    assert "io failure:" in capsys.readouterr().err


def test_optimize_missing_template_override_exit_code(tmp_path, config_file, capsys):
    data = json.loads(config_file.read_text())
    data["templates"] = {"hypothesis": str(tmp_path / "absent.txt")}
    cfg = tmp_path / "templated.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    code = main(["optimize", str(cfg), "defective", str(tmp_path / "run")])
    assert code == EXIT_IO_FAILURE
    assert "io failure:" in capsys.readouterr().err


def test_report_best_curve_zero_budget(tmp_path, config_file):
    data = json.loads(config_file.read_text())
    data["budget"] = 0
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "run0"
    assert main(["optimize", str(cfg), "defective", str(out)]) == EXIT_OK
    assert main(["report", str(out)]) == EXIT_OK
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus the single seed point
    assert lines[1] == "0,0.240000"


def test_report_orders_rounds_past_999(tmp_path):
    # 1,092 rounds: the journal's line order is iteration order past 999.
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({
        "K": 1, "p": 0.3, "b": 1, "budget": 1400, "rng_seed": 0, "max_parallel": 1,
        "dataset": {"synthetic": {"train_size": 20, "val_size": 4}},
    }), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["optimize", str(cfg), "defective", str(out)]) == EXIT_OK
    assert [r["iteration"] for r in read_journal(out)] == list(range(1, 1093))
    assert main(["report", str(out)]) == EXIT_OK
    ledger = json.loads((out / "ledger.json").read_text())
    cumulative = list(accumulate(c["amount"] for c in ledger["charges"] if c["amount"]))
    rows = (out / "report.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == [0] + cumulative


def crash_writes_halfway(monkeypatch):
    """Make every ``Path.write_text`` write half its data, then fail."""
    write_text = Path.write_text

    def crash_halfway(path, data, *args, **kwargs):
        write_text(path, data[:len(data) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", crash_halfway)


def test_export_trace_failed_write_leaves_trace_intact(config_file, tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    assert main(["optimize", str(config_file), "defective", str(out)]) == EXIT_OK
    before = (out / "trace.json").read_bytes()
    crash_writes_halfway(monkeypatch)
    assert main(["export-trace", str(out), "--format", "json"]) == EXIT_IO_FAILURE
    monkeypatch.undo()
    assert "io failure: disk full" in capsys.readouterr().err
    assert (out / "trace.json").read_bytes() == before
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


def test_export_trace_unreadable_trace_exits_io_failure(config_file, tmp_path, monkeypatch,
                                                       capsys):
    out = tmp_path / "run"
    assert main(["optimize", str(config_file), "defective", str(out)]) == EXIT_OK
    before = (out / "trace.dot").read_bytes()
    read_text = Path.read_text

    def unreadable_trace(path, *args, **kwargs):
        if path.name == "trace.json":
            raise PermissionError(13, "Permission denied", str(path))
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", unreadable_trace)
    assert main(["export-trace", str(out)]) == EXIT_IO_FAILURE
    assert "io failure: [Errno 13] Permission denied" in capsys.readouterr().err
    assert main(["report", str(out)]) == EXIT_IO_FAILURE
    monkeypatch.undo()
    assert (out / "trace.dot").read_bytes() == before


def test_report_failed_write_leaves_report_intact(config_file, tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    assert main(["optimize", str(config_file), "defective", str(out)]) == EXIT_OK
    assert main(["report", str(out)]) == EXIT_OK
    before = (out / "report.csv").read_bytes()
    crash_writes_halfway(monkeypatch)
    assert main(["report", str(out)]) == EXIT_IO_FAILURE
    monkeypatch.undo()
    assert "io failure: disk full" in capsys.readouterr().err
    assert (out / "report.csv").read_bytes() == before
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
