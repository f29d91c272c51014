"""Import guard: the package loads no SciPy module outside scipy.sparse,
and not scipy.sparse.linalg either.

scipy.optimize, scipy.special, scipy.spatial and scipy.integrate cost about
0.3 s of start-up per process, which every `robinsym` command pays.  The
package has numpy replacements for them, and this guard keeps them out:
both of the modules a command loads and of the package's source, so that
the cost cannot come back as an import inside a function body either.
scipy.sparse.linalg cost 53-89 ms and 10.3 MB of RSS per process; the
package takes nothing from it: its CG and LOBPCG are its own, and its
multigrid ends in a dense numpy Cholesky, not a sparse LU.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import robinsym

PACKAGE = Path(robinsym.__file__).resolve().parent
UNWANTED = ("scipy.optimize", "scipy.special", "scipy.spatial", "scipy.integrate",
            "scipy.sparse.linalg")


def _allowed(module: str) -> bool:
    return not (module == "scipy" or module.startswith("scipy.")) \
        or module == "scipy.sparse" or module.startswith("scipy.sparse.")


def test_cli_import_loads_no_unwanted_scipy_module():
    code = "import json, sys; import robinsym.cli; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    res = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    loaded = json.loads(res.stdout)
    assert "robinsym.cli" in loaded and "scipy.sparse" in loaded
    assert [m for m in loaded if m.startswith(UNWANTED)] == []


def test_source_imports_only_scipy_sparse():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
                names = ["scipy." + alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            else:
                continue
            found += [(path.name, node.lineno, n) for n in names if not _allowed(n)]
    assert found == []


def test_the_guard_rejects_what_it_should():
    assert _allowed("numpy") and _allowed("scipy.sparse") and _allowed("scipy.sparse.linalg")
    assert not any(_allowed(m) for m in ("scipy", "scipy.special", "scipy.sparsetools"))


def _sparse_linalg_uses(tree):
    """(line, name) for each name the module takes from scipy.sparse.linalg:
    the names of a `from scipy.sparse.linalg import ...`, the whole module
    for any other import of it, and each `linalg` attribute of a name
    `sparse` (scipy.sparse imported as a module)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.sparse.linalg":
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy.sparse":
            yield from ((node.lineno, "scipy.sparse.linalg") for alias in node.names
                        if alias.name == "linalg")
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names
                        if alias.name.startswith("scipy.sparse.linalg"))
        elif (isinstance(node, ast.Attribute) and node.attr == "linalg"
              and isinstance(node.value, ast.Name) and node.value.id == "sparse"):
            yield node.lineno, "sparse.linalg"


def test_source_takes_nothing_from_scipy_sparse_linalg():
    found = [(path.name, line, name) for path in sorted(PACKAGE.glob("*.py"))
             for line, name in _sparse_linalg_uses(ast.parse(path.read_text()))]
    assert found == []


def test_the_sparse_linalg_guard_rejects_what_it_should():
    code = ("from scipy.sparse.linalg import cg, splu\n"
            "import scipy.sparse.linalg\n"
            "from scipy.sparse import csr_matrix, linalg\n"
            "from scipy import sparse\n"
            "x = sparse.linalg.LinearOperator\n")
    assert list(_sparse_linalg_uses(ast.parse(code))) == [
        (1, "cg"), (1, "splu"), (2, "scipy.sparse.linalg"), (3, "scipy.sparse.linalg"),
        (5, "sparse.linalg")]
