"""``docs/cli.md`` against the code it documents: each "Config keys" table
lists the keys and defaults of the code that consumes its section, and the
exit-code table and the stderr prefixes are those of ``cli.ERROR_EXITS``."""

import inspect
import json
import re
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_type_hints

import pytest

from vistaopt.backends.http import HttpBackend
from vistaopt.backends.synthetic import SyntheticWorldConfig, make_synthetic_dataset
from vistaopt.cli import ERROR_EXITS, EXIT_OK, _template_paths
from vistaopt.domain import RunConfig, load_dataset, load_taxonomy_path

DOC = (Path(__file__).resolve().parents[1] / "docs" / "cli.md").read_text(encoding="utf-8")
REQUIRED = "required"

# The "Config keys" tables in their order in the docs: the name that the text
# before each one gives its consumer, and the code whose keys it lists.
CONFIG_TABLES = [
    ("RunConfig", [RunConfig, load_taxonomy_path]),
    ("make_synthetic_dataset", [make_synthetic_dataset]),
    ("load_dataset", [load_dataset]),
    ("SyntheticWorldConfig", [SyntheticWorldConfig]),
    ("HttpBackend.__init__", [HttpBackend.__init__]),
    ("cli._template_paths", [_template_paths]),
]


def tables(section: str) -> list[tuple[str, list[list[str]]]]:
    """Each table of the docs section headed ``section``: the text before it
    and its body rows, split into cells."""
    text = DOC.split(section + "\n", 1)[1].split("\n#", 1)[0]
    found = []
    for before, table in re.findall(r"((?:[^|\n].*\n)*)\n((?:\|.*\n)+)", text):
        rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
                for line in table.splitlines()[2:]]
        found.append((before, rows))
    return found


def doc_default(cell: str):
    """A default cell read back: REQUIRED, or its first code span as JSON (a
    bare word is a string)."""
    if cell == REQUIRED:
        return REQUIRED
    span = re.match(r"`([^`]*)`", cell).group(1)
    try:
        return json.loads(span)
    except ValueError:
        return span


def code_keys(target) -> list[tuple[str, object]]:
    """``(key, default)`` for each config key of ``target``: its annotated
    parameters that can be passed by position, as ``check_config`` reads them."""
    hints = get_type_hints(target, include_extras=True)
    defaults = vars(target()) if is_dataclass(target) else {}
    return [(p.name, defaults.get(p.name, REQUIRED if p.default is p.empty else p.default))
            for p in inspect.signature(target).parameters.values()
            if p.name in hints and p.kind is p.POSITIONAL_OR_KEYWORD]


@pytest.mark.parametrize("index", range(len(CONFIG_TABLES)),
                         ids=[name for name, _ in CONFIG_TABLES])
def test_config_table_lists_the_consumers_keys_and_defaults(index):
    found = tables("#### Config keys")
    assert len(found) == len(CONFIG_TABLES)
    name, targets = CONFIG_TABLES[index]
    before, rows = found[index]
    assert f"`{name}`" in before
    documented = [(row[0].strip("`"), doc_default(row[-1])) for row in rows]
    assert documented == [key for target in targets for key in code_keys(target)]


def test_exit_codes_and_prefixes_are_the_error_table():
    ((_, rows),) = tables("## Exit codes")
    assert [int(row[0]) for row in rows] == sorted(
        {EXIT_OK, *(code for _, code, _ in ERROR_EXITS)})
    listed = DOC.split("starts with the row's prefix:", 1)[1].split(".\n", 1)[0]
    assert re.findall(r"`([^`]*):`", " ".join(listed.split())) == [
        prefix for _, _, prefix in ERROR_EXITS]
