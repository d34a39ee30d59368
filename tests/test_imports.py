"""The default path loads only modules it executes: importing the package
and running it on the synthetic world load neither the HTTP stack
(``requests`` and what it brings), PyYAML, nor the thread pool, and a JSON
taxonomy needs no PyYAML at all."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vistaopt
import vistaopt.backends
import vistaopt.backends.http

SRC = Path(__file__).resolve().parents[1] / "src"
HTTP_STACK = ("requests", "urllib3", "charset_normalizer", "idna", "http.client", "ssl",
              "vistaopt.backends.http")
UNUSED_BY_SYNTHETIC_RUNS = HTTP_STACK + ("yaml", "concurrent.futures")

SYNTHETIC_RUN = """
from vistaopt.cli import main
config = {"K": 3, "budget": 60, "max_parallel": 2,
          "dataset": {"synthetic": {"train_size": 50, "val_size": 50}}}
with open("config.json", "w") as f:
    json.dump(config, f)
assert main(["optimize", "config.json", "defective", "run"]) == 0
assert main(["report", "run"]) == 0
"""


def run_python(code, cwd):
    """``code`` run by a fresh interpreter in ``cwd``, with ``src`` on its path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("code", ["import vistaopt", "import vistaopt.cli", SYNTHETIC_RUN],
                         ids=["import-vistaopt", "import-cli", "optimize-and-report"])
def test_http_stack_is_not_loaded(code, tmp_path):
    """Nor PyYAML and the thread pool, though the run allows two workers."""
    done = run_python(f"import json, sys\n{code}\n"
                      f"print(json.dumps([m for m in {UNUSED_BY_SYNTHETIC_RUNS!r} "
                      f"if m in sys.modules]))", tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


@pytest.mark.parametrize("suffix, taxonomy, exit_code", [
    (".json", '[{"id": "a", "name": "A", "description": "first"}]', 0),
    (".yaml", "- id: a\n  name: A\n  description: first\n", 2)], ids=["json", "yaml"])
def test_only_a_yaml_taxonomy_needs_pyyaml(suffix, taxonomy, exit_code, tmp_path):
    (tmp_path / f"tax{suffix}").write_text(taxonomy, encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps({
        "K": 3, "budget": 60, "max_parallel": 1, "taxonomy_path": f"tax{suffix}",
        "dataset": {"synthetic": {"train_size": 50, "val_size": 50}}}), encoding="utf-8")
    done = run_python('import sys\nsys.modules["yaml"] = None  # as if PyYAML were absent\n'
                      "from vistaopt.cli import main\n"
                      'sys.exit(main(["optimize", "config.json", "defective", "run"]))', tmp_path)
    assert done.returncode == exit_code, done.stderr
    if exit_code:
        assert done.stderr.startswith("invalid configuration:") and "vistaopt[yaml]" in done.stderr
        assert "Traceback" not in done.stderr
    else:
        assert (tmp_path / "run" / "best_prompt.txt").is_file()


def test_http_backend_is_one_class_under_every_name():
    assert vistaopt.HttpBackend is vistaopt.backends.http.HttpBackend
    assert vistaopt.backends.HttpBackend is vistaopt.backends.http.HttpBackend
    assert "HttpBackend" in vistaopt.__all__ and "HttpBackend" in vistaopt.backends.__all__
    assert {"HttpBackend", "run", "__version__"} <= set(dir(vistaopt))
    assert {"HttpBackend", "SyntheticBackend"} <= set(dir(vistaopt.backends))
    namespace = {}
    exec("from vistaopt import *", namespace)
    assert namespace["HttpBackend"] is vistaopt.backends.http.HttpBackend


@pytest.mark.parametrize("module", [vistaopt, vistaopt.backends], ids=lambda m: m.__name__)
def test_unknown_attribute_is_named(module):
    with pytest.raises(AttributeError, match=f"{module.__name__!r} has no attribute 'NoSuch'"):
        module.NoSuch
