"""The HTTP stack (``requests`` and what it brings) loads only when an HTTP
backend is used: importing the package and running it on the synthetic
world never load it."""

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

SYNTHETIC_RUN = """
from vistaopt.cli import main
config = {"K": 3, "budget": 60, "max_parallel": 1,
          "dataset": {"synthetic": {"train_size": 50, "val_size": 50}}}
with open("config.json", "w") as f:
    json.dump(config, f)
assert main(["optimize", "config.json", "defective", "run"]) == 0
assert main(["report", "run"]) == 0
"""


@pytest.mark.parametrize("code", ["import vistaopt", "import vistaopt.cli", SYNTHETIC_RUN],
                         ids=["import-vistaopt", "import-cli", "optimize-and-report"])
def test_http_stack_is_not_loaded(code, tmp_path):
    probe = (f"import json, sys\n{code}\n"
             f"print(json.dumps([m for m in {HTTP_STACK!r} if m in sys.modules]))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


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
