"""Public API surface: exports resolve, and no module reads another's private names."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hyperteam

SUBMODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(hyperteam.__path__) if name != "__main__"
)
SOURCES = sorted(Path(hyperteam.__file__).parent.glob("*.py"))


def test_package_exports_resolve():
    missing = [name for name in hyperteam.__all__ if not hasattr(hyperteam, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"hyperteam.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(source: str) -> list[str]:
    """Underscore names a module imports or reads from other hyperteam modules.

    Relative imports and ``hyperteam.*`` imports count. A module bound by
    ``from . import spectral``, ``from hyperteam import spectral`` or
    ``import hyperteam.spectral as spectral``
    is followed through attribute reads such as ``spectral._helper``.
    """
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").partition(".")[0] == "hyperteam"
        ):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.module or '.'}.{alias.name}")
                elif alias.name in SUBMODULES and node.module in (None, "hyperteam"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("hyperteam.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_private_reads_sees_imports_and_attributes():
    source = (
        "from . import spectral, __version__\n"
        "from .spectral import _irreducible, laplacian\n"
        "import hyperteam.csa as csa\n"
        "from hyperteam import greedy\n"
        "x = spectral._DENSE_LIMIT + csa._evaluate_full + greedy._mu2 + spectral.mu2_batch\n"
    )
    assert sorted(private_reads(source)) == [
        "csa._evaluate_full",
        "greedy._mu2",
        "spectral._DENSE_LIMIT",
        "spectral._irreducible",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []
