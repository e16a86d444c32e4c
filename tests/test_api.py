"""Public API surface: exports resolve, and no module reads another's private names."""

from __future__ import annotations

import ast
import collections
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    """Only spectral solves a symmetric eigenproblem, each solve through ``_serial_solve``.

    ``_serial_solve`` runs the solves that OpenBLAS would thread at a loss
    on one thread, so a caller elsewhere would bypass that rule. A solve is
    an ``eigh`` or ``eigvalsh`` read or import or a read of the LAPACK
    binding ``_dsyevr``. It goes through the rule when it is an argument of
    ``_serial_solve``, or when it is read inside a function of spectral's
    own that is read nowhere but as such an argument.
    """
    source = path.read_text(encoding="utf-8")
    if path.name != "spectral.py":
        assert linalg_reads(source, SYMMETRIC_EIGEN) == []
        return
    tree = ast.parse(source)
    rule_args = [
        node.args[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_serial_solve"
    ]
    reads = collections.Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    wrapped = {arg.id for arg in rule_args if isinstance(arg, ast.Name) and reads[arg.id] == 1}
    direct, within, bypassing = [], [], []
    for top in tree.body:
        for node in ast.walk(top):
            if not (
                (isinstance(node, ast.Attribute) and node.attr in SYMMETRIC_EIGEN)
                or (isinstance(node, ast.Name) and node.id in SYMMETRIC_EIGEN | {"_dsyevr"})
            ):
                continue
            if any(node is arg for arg in rule_args):
                direct.append(ast.unparse(node))
            elif isinstance(top, ast.FunctionDef) and top.name in wrapped:
                within.append(ast.unparse(node))
            else:
                bypassing.append(ast.unparse(node))
    assert bypassing == []
    assert sorted(direct) == ["np.linalg.eigh", "np.linalg.eigvalsh"]
    assert sorted(within) == ["_dsyevr", "np.linalg.eigvalsh"]
    # every read linalg_reads sees, imports included, is one of those above
    assert sorted(linalg_reads(source, SYMMETRIC_EIGEN)) == sorted(
        direct + [read for read in within if read != "_dsyevr"]
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_stationary_solver(path):
    """Only spectral solves a linear system; greedy's eig is the one exemption.

    spectral's LAPACK binding ``_dgesv`` counts too: it is read once, inside
    the stationary solve ``_solve_stationary``, and nowhere else.
    """
    source = path.read_text(encoding="utf-8")
    found = linalg_reads(source, STATIONARY)
    assert found == STATIONARY_READS.get(path.name, [])
    assert _readers(source, "_dgesv") == (["_solve_stationary"] if path.name == "spectral.py" else [])


def _readers(source: str, name: str) -> list[str | None]:
    """The top-level definition around each read of ``name``, None at module level."""
    return [
        getattr(top, "name", None)
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == name)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_two_lapack_calls_take_kept_sets(path):
    """Only ``_scratch`` reads the thread's kept sets, and only the two LAPACK calls take one.

    The stationary solve and the eigen kernel own their workspaces; a caller
    that wrote into them would score by another route once an earlier score
    had left a set behind.
    """
    source = path.read_text(encoding="utf-8")
    spectral_py = path.name == "spectral.py"
    assert set(_readers(source, "_kept")) == ({"_scratch"} if spectral_py else set())
    takers = sorted(_readers(source, "_scratch"))
    assert takers == (["_second_eigenvalues", "_solve_stationary"] if spectral_py else [])


def test_both_lapack_exports_bind_on_numpys_openblas():
    # a renamed export would silently send every score to the numpy solvers
    if spectral._openblas() is None:
        pytest.skip("numpy's OpenBLAS is not found")
    if np.lib.NumpyVersion(np.__version__) < "2.0.0":
        pytest.skip("the ILP64 LAPACKE exports were checked on numpy 2.x's OpenBLAS only")
    assert spectral._dgesv() is not None
    assert spectral._dsyevr() is not None
