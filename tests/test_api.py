"""Public API surface: every exported name resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import hyperteam

SUBMODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(hyperteam.__path__) if name != "__main__"
)


def test_package_exports_resolve():
    missing = [name for name in hyperteam.__all__ if not hasattr(hyperteam, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"hyperteam.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
