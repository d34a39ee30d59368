"""The run-file encoders: ``json_text`` and ``json_line`` write the bytes of
``json.dumps`` on the C encoder, and a persisted run reaches the pure-Python
encoder only for the files that take the fallback."""

import json
import random
from collections import Counter
from dataclasses import dataclass, field

import pytest

from vistaopt import optimizer, run
from vistaopt.artifacts import json_line, json_text
from vistaopt.backends.synthetic import SyntheticBackend, SyntheticWorldConfig, make_synthetic_dataset
from vistaopt.domain import RunConfig, default_taxonomy, flat_fields, load_seed_prompt, record_dict
from vistaopt.optimizer import Charge
from vistaopt.trace import TraceEdge, TraceNode

from test_golden_runs import CONFIGS


def dumps_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True, default=record_dict) + "\n"


def dumps_line(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"), default=record_dict) + "\n"


@dataclass(frozen=True)
class Flat:
    text: str
    number: float | None
    count: int
    flag: bool
    renamed: str = field(default="", metadata={"json": "}, {%s%"})
    hidden: tuple = field(default=(), metadata={"json": None})


@dataclass(frozen=True)
class Empty:
    hidden: int = field(default=0, metadata={"json": None})


@dataclass(frozen=True)
class Nested:
    name: str
    items: list[Flat]


# Pieces of strings: separators and record breaks, escapes, control and non-ASCII text.
PIECES = ["},\n      {", "},", "{", ",\n", ",\n      ", ": ", "%s", "%", "\n", "\r\n", '"', "\\",
          "\\n", "\x00", "\x1f", "\x7f", "\t", "\u00a0", "\u2028", "é", "漢字", "😀", "\ud800", "a"]
NUMBERS = [-0.0, 0.0, 1e-7, 1e16, 1e17, 0.1, -2.5, 1 / 3, 123456789.125, 2 ** 70, -7, 0, True,
           False, None]


def text(rng) -> str:
    return "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 4)))


def flat(rng) -> Flat:
    return Flat(text(rng), rng.choice([None, rng.uniform(-1e6, 1e6), -0.0, 1e-7, 1e16]),
                rng.choice([0, -1, 2 ** 70, rng.randint(-9, 9)]), rng.random() < 0.5, text(rng),
                (rng.random(),))


def charge(rng) -> Charge:
    return Charge(rng.randint(0, 500), text(rng), rng.randint(0, 50))


def node(rng) -> TraceNode:
    return TraceNode(rng.randint(0, 9999), rng.choice([None, 0.0, 0.86, 1 / 3]),
                     rng.choice([None, 0, 3]), rng.choice([None, 8]))


def edge(rng) -> TraceEdge:
    accepted = rng.random() < 0.5
    return TraceEdge(rng.choice([None, rng.randint(0, 99)]), rng.randint(0, 99), text(rng),
                     rng.randint(-8, 8), "accepted" if accepted else "rejected",
                     rng.randint(1, 300), text(rng),
                     rng.choice([-0.0, 1e-7, 12.5, -4.0]) if accepted else None)


RECORDS = [flat, charge, node, edge]


def value(rng, depth=0):
    """A value of the top-level object: mostly lists of one flat record class,
    of any length, and values that must take the fallback."""
    kind = rng.randrange(10)
    if kind < 4:
        make = rng.choice(RECORDS)
        return [make(rng) for _ in range(rng.choice([0, 1, 1, 2, 5]))]
    if kind == 4:  # a flat record, then a record of another class or another value
        return [rng.choice(RECORDS)(rng), rng.choice([charge(rng), Nested("n", [flat(rng)]),
                                                      {"a": [1]}, [2], None])]
    if kind == 5:
        return rng.choice([[Empty()], Empty(), Nested(text(rng), [flat(rng)]), [Nested("n", [])],
                           [record_dict(flat(rng))]])
    if kind == 6 and depth < 2:
        return {text(rng): value(rng, depth + 1) for _ in range(rng.randint(0, 3))}
    if kind == 7 and depth < 2:
        return [value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    if kind == 8:
        return text(rng)
    return rng.choice(NUMBERS)


def document(rng):
    shape = rng.randrange(6)
    if shape == 0:
        return Nested(text(rng), [flat(rng) for _ in range(rng.randint(0, 3))])
    if shape == 1:
        return value(rng)
    return {text(rng): value(rng) for _ in range(rng.randint(0, 5))}


def test_flat_fields_classes():
    assert all(map(flat_fields, (Flat, Charge, TraceNode, TraceEdge)))
    assert not any(map(flat_fields, (Empty, Nested, optimizer.BudgetLedger, dict, int)))


def test_json_text_and_line_match_json_dumps_fuzzed():
    """Byte for byte on seeded documents, whatever their strings and numbers
    hold; both flat-record lists and the fallback are taken."""
    rng = random.Random(33)
    for _ in range(2000):
        data = document(rng)
        assert json_text(data) == dumps_text(data), data
        assert json_line(data) == dumps_line(data), data


@pytest.mark.parametrize("name", list(CONFIGS))
def test_json_text_matches_json_dumps_on_golden_run_data(name):
    """The data of each golden run's trace.json, ledger.json, pool.json and
    config.json, and its journal lines."""
    dataset = make_synthetic_dataset(50, 50)
    taxonomy = default_taxonomy()
    result = run(RunConfig(rng_seed=0, **CONFIGS[name]), dataset, taxonomy,
                 SyntheticBackend(SyntheticWorldConfig(), dataset, taxonomy, run_seed=0),
                 load_seed_prompt("defective"))
    trace = {"root": result.trace.root, "nodes": list(result.trace.nodes.values()),
             "edges": result.trace.edges}
    for data in (trace, result.ledger, result.pool.snapshot(), result.resolved_config):
        assert json_text(data) == dumps_text(data)
    assert [json_line(o) for o in result.outcomes] == [dumps_line(o) for o in result.outcomes]


def test_persisted_run_reaches_the_python_encoder_only_for_the_fallback(tmp_path, monkeypatch):
    """Count the calls into ``json.encoder._make_iterencode``, the pure-Python
    encoder, made while each file of a budget-5000 run is encoded."""
    pending = Counter()
    reached = Counter()
    make_iterencode = json.encoder._make_iterencode

    def counting(*args, **kwargs):
        pending["calls"] += 1
        return make_iterencode(*args, **kwargs)

    def attributed(name, write):
        def wrapper(*args):
            result = write(*args)
            reached[name(*args)] += pending.pop("calls", 0)
            return result
        return wrapper

    monkeypatch.setattr(json.encoder, "_make_iterencode", counting)
    # A snapshot is encoded before write_atomic is called with it.
    monkeypatch.setattr(optimizer, "write_atomic", attributed(lambda path, text: path.name,
                                                                optimizer.write_atomic))
    monkeypatch.setattr(optimizer, "json_line", attributed(lambda data: "rounds.jsonl",
                                                            optimizer.json_line))
    dataset = make_synthetic_dataset(50, 50)
    taxonomy = default_taxonomy()
    run(RunConfig(rng_seed=1, budget=5000, max_parallel=1), dataset, taxonomy,
        SyntheticBackend(SyntheticWorldConfig(), dataset, taxonomy, run_seed=1),
        load_seed_prompt("defective"), out_dir=tmp_path)
    assert reached["pool.json"] > 0  # the counter sees the fallback: lists of ints
    slow = sorted(name for name, calls in reached.items()
                  if calls and name not in ("config.json", "pool.json"))
    assert not slow, f"the pure-Python JSON encoder wrote {slow}"
