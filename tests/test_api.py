"""Public API surface: exports resolve, and no module reads another's private names."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hyperteam
from conftest import subprocess_env
from hyperteam import bipartite, spectral

SUBMODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(hyperteam.__path__) if name != "__main__"
)
# every submodule but the command line and the data files re-exports its __all__
REEXPORTED = [name for name in SUBMODULES if name not in ("cli", "data")]
SOURCES = sorted(Path(hyperteam.__file__).parent.glob("*.py"))


def test_package_exports_resolve():
    missing = [name for name in hyperteam.__all__ if not hasattr(hyperteam, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"hyperteam.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _top_level(module) -> tuple[set[str], set[str]]:
    """Public functions and classes a module defines, and its public constants."""
    body = ast.parse(inspect.getsource(module)).body
    defined = {n.name for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    targets = [t for n in body if isinstance(n, ast.Assign) for t in n.targets]
    targets += [n.target for n in body if isinstance(n, ast.AnnAssign)]
    constants = {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in defined if not _private(n)}, {n for n in constants if not n.startswith("_")}


@pytest.mark.parametrize("name", REEXPORTED)
def test_submodule_all_lists_its_public_definitions(name):
    module = importlib.import_module(f"hyperteam.{name}")
    listed = getattr(module, "__all__", None)
    assert listed is not None, f"hyperteam.{name} defines no __all__"
    defined, constants = _top_level(module)
    assert len(set(listed)) == len(listed)
    assert defined <= set(listed) <= defined | constants


def test_package_all_is_the_union_of_the_submodule_lists():
    assert len(set(hyperteam.__all__)) == len(hyperteam.__all__)
    union = {n for name in REEXPORTED for n in importlib.import_module(f"hyperteam.{name}").__all__}
    assert set(hyperteam.__all__) == union | {"__version__"}


def test_package_mu2_of_assignment_is_the_hypergraph_objective():
    assert hyperteam.mu2_of_assignment is spectral.mu2_of_assignment
    assert bipartite.mu2_of_assignment is not spectral.mu2_of_assignment


def test_package_import_leaves_the_command_line_unloaded():
    probe = "import sys, hyperteam; print('hyperteam.cli' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=subprocess_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


# numpy's symmetric eigen solvers. greedy's non-symmetric eig, its tie
# re-score's reference pi, is exempt: on coauthor_small it solves chains of at
# most 52 agents, below the 65 from which OpenBLAS threads an eigen solve.
SYMMETRIC_EIGEN = {"eigh", "eigvalsh"}

# The stationary solvers, by the modules allowed to read each: one linear
# solve in spectral, and greedy's eig until its tie rule goes (ROADMAP item 1).
STATIONARY = {"solve", "eig"}
STATIONARY_READS = {"spectral.py": ["np.linalg.solve"], "greedy.py": ["np.linalg.eig"]}


def linalg_reads(source: str, names: set[str]) -> list[str]:
    """The functions in ``names`` that a module imports or reads as an attribute.

    ``np.linalg.eigh``, ``linalg.eigvalsh`` and ``from numpy.linalg import
    eigh`` all count; a read counts as a call, since the function can be
    passed on and called elsewhere.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [f"{node.module}.{a.name}" for a in node.names if a.name in names]
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append(ast.unparse(node))
    return found


def test_symmetric_eigen_reads_sees_imports_and_attributes():
    source = (
        "import numpy as np\n"
        "from numpy import linalg\n"
        "from numpy.linalg import eigh as dense_eigh, eig\n"
        "x = np.linalg.eigvalsh(L), linalg.eigh(L), np.linalg.eig(L), eig(L)\n"
        "spectrum(L).eigvals\n"
        "from scipy.linalg import solve\n"
        "pi = np.linalg.solve(A, b), solve_stationary(P)\n"
    )
    assert sorted(linalg_reads(source, SYMMETRIC_EIGEN)) == [
        "linalg.eigh",
        "np.linalg.eigvalsh",
        "numpy.linalg.eigh",
    ]
    assert sorted(linalg_reads(source, STATIONARY)) == [
        "np.linalg.eig",
        "np.linalg.solve",
        "numpy.linalg.eig",
        "scipy.linalg.solve",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_symmetric_eigen_solves_go_through_the_thread_rule(path):
    """Only spectral calls eigh or eigvalsh, each through ``_serial_solve``.

    ``_serial_solve`` runs the solves that OpenBLAS would thread at a loss
    on one thread, so a caller elsewhere would bypass that rule.
    """
    source = path.read_text(encoding="utf-8")
    if path.name != "spectral.py":
        assert linalg_reads(source, SYMMETRIC_EIGEN) == []
        return
    through_rule = [
        ast.unparse(node.args[0])
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_serial_solve"
    ]
    assert sorted(linalg_reads(source, SYMMETRIC_EIGEN)) == sorted(through_rule) == [
        "np.linalg.eigh",
        "np.linalg.eigvalsh",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_stationary_solver(path):
    """Only spectral solves a linear system; greedy's eig is the one exemption."""
    found = linalg_reads(path.read_text(encoding="utf-8"), STATIONARY)
    assert found == STATIONARY_READS.get(path.name, [])
