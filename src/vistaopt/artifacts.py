"""The two ways run-directory files are written, both key-sorted so that
identical data gives identical bytes: a snapshot is indented JSON (or text)
renamed over its target from a temporary file, and the round journal gets
one compact JSON line per round, appended with one write and flushed.  A
record dataclass is written as the object that ``domain.record_dict`` makes.

Both write ``json.dumps``'s bytes from encoders built once, on C where it
can; C never indents.  So a snapshot object is written key by key: a list of
one class with flat fields (``trace.json``'s nodes and edges,
``ledger.json``'s charges) one C call per field, one value per line (an
encoded value holds no raw newline), into an indented record template; a
scalar needs no indent; other values, and other snapshots, take
``json.dumps(indent=2)``'s encoder."""

from __future__ import annotations

import functools
import json
import os
from dataclasses import is_dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import attrgetter
from pathlib import Path

from .domain import JSON_SCALARS, flat_fields, record_dict


def _encoder(item_separator: str, key_separator: str):
    """A key-sorted encoder without indent, on C when CPython has it."""
    if c_make_encoder is None:
        return json.JSONEncoder(sort_keys=True, separators=(item_separator, key_separator),
                                default=record_dict).encode
    encode = c_make_encoder(None, record_dict, encode_basestring_ascii, None, key_separator,
                            item_separator, True, False, True)
    return lambda data: "".join(encode(data, 0))


_indented = json.JSONEncoder(indent=2, sort_keys=True, default=record_dict).encode
_line = _encoder(",", ":")
_column = _encoder(",\n", ":")


@functools.cache
def _layout(cls) -> tuple:
    """A ``cls`` record as an item of a list at depth 1, with ``%s`` for each
    value, and the getter of each value; empty unless ``cls`` has flat fields."""
    held = flat_fields(cls)
    keys = (encode_basestring_ascii(key).replace("%", "%%") for key, _ in held)
    return held and ("{" + ",".join(f"\n      {key}: %s" for key in keys) + "\n    }",
                     tuple(attrgetter(name) for _, name in held))


def _value_text(value) -> str:
    """``value`` indented as the value of a key of the top-level object."""
    if type(value) in JSON_SCALARS:
        return _line(value)
    layout = type(value) is list and value and _layout(cls := type(value[0]))
    if layout and all(type(item) is cls for item in value):
        template, getters = layout
        columns = [_column(list(map(get, value)))[1:-1].split(",\n") for get in getters]
        records = map(template.__mod__, zip(*columns, strict=True))
        return "[\n    " + ",\n    ".join(records) + "\n  ]"
    return _indented(value).replace("\n", "\n  ")


def json_text(data) -> str:
    """Indented, key-sorted JSON with a trailing newline: one snapshot."""
    top = record_dict(data) if is_dataclass(data) and not isinstance(data, type) else data
    if type(top) is not dict or not top or any(type(key) is not str for key in top):
        return _indented(data) + "\n"
    return "{\n  " + ",\n  ".join(f"{encode_basestring_ascii(key)}: {_value_text(top[key])}"
                                  for key in sorted(top)) + "\n}\n"


def json_line(data) -> str:
    """Compact, key-sorted JSON on one line, newline-terminated: one record."""
    return _line(data) + "\n"


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it
    over ``path``: a crash leaves the old file or the new one, never a
    truncated one, and no temporary file."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
