"""The one way run-directory files are written: JSON in a fixed format, and
every file through a temporary file renamed over its target."""

from __future__ import annotations

import json
import os
from pathlib import Path


def json_text(data) -> str:
    """Indented, key-sorted JSON with a trailing newline, so identical data
    gives identical bytes."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


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
