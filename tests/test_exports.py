import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hofkit

MODULES = [name for _, name, _ in pkgutil.iter_modules(hofkit.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_exists(module_name):
    # tracing tools look up each exported name, so a stale entry breaks them
    module = importlib.import_module(f"hofkit.{module_name}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


# every module that ``import hofkit.cli`` loads beyond the interpreter and NumPy:
# each costs every command's start-up, so one more must be added here on purpose
CLI_IMPORTS = """
__future__ _blake2 _csv _decimal _hashlib _json argparse copy csv dataclasses decimal gettext
hashlib hofkit hofkit.baselines hofkit.cli hofkit.cnn hofkit.corpus hofkit.embedding
hofkit.fileio hofkit.layers hofkit.metrics hofkit.preprocess hofkit.seeding json json.decoder
json.encoder json.scanner unicodedata
""".split()

_NEW_MODULES = """
import sys
import numpy
before = set(sys.modules)
import hofkit.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_imports_only_the_pinned_modules_beyond_numpy():
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == CLI_IMPORTS
