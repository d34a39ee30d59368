"""The two ways run-directory files are written, both key-sorted so that
identical data gives identical bytes: a snapshot is indented JSON (or text)
renamed over its target from a temporary file, and the round journal gets
one compact JSON line per round, appended with one write and flushed.  A
record dataclass is written as the object that ``domain.record_dict`` makes."""

from __future__ import annotations

import json
import os
from pathlib import Path

from .domain import record_dict


def json_text(data) -> str:
    """Indented, key-sorted JSON with a trailing newline: one snapshot."""
    return json.dumps(data, indent=2, sort_keys=True, default=record_dict) + "\n"


def json_line(data) -> str:
    """Compact, key-sorted JSON on one line, newline-terminated: one record."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), default=record_dict) + "\n"


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
