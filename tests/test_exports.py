import importlib
import pkgutil

import pytest

import hofkit

MODULES = [name for _, name, _ in pkgutil.iter_modules(hofkit.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_exists(module_name):
    # tracing tools look up each exported name, so a stale entry breaks them
    module = importlib.import_module(f"hofkit.{module_name}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []

