"""Every eigendecomposition in the package runs in a known place.

np.linalg.eigvalsh runs only in states._spectrum, which computes the
spectrum each DensityMatrix stores; np.linalg.eigh runs only where
eigenvectors are needed: the repair of a marginally negative spectrum in
DensityMatrix.__post_init__ and the eigenbasis of a non-diagonal sigma in
coherence.relative_entropy. Any other numpy.linalg eigensolver is refused.
"""

import ast
from pathlib import Path

import cohfreeze

PACKAGE = Path(cohfreeze.__file__).resolve().parent
EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}
EXPECTED = {
    ("coherence.py", "relative_entropy", "eigh"),
    ("states.py", "DensityMatrix.__post_init__", "eigh"),
    ("states.py", "_spectrum", "eigvalsh"),
}


def eigensolver_uses(source: str) -> list[tuple[str, str]]:
    """(enclosing qualified name, solver) of each reference to a numpy.linalg
    eigensolver, by attribute (np.linalg.eigh) or by import (from
    numpy.linalg import eigh); "<module>" outside any function or class."""
    uses = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        where = ".".join(scope) or "<module>"
        if isinstance(node, ast.Attribute) and node.attr in EIGENSOLVERS:
            uses.append((where, node.attr))
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            uses.extend((where, a.name) for a in node.names if a.name in EIGENSOLVERS)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return uses


def test_eigensolvers_run_in_their_homes():
    found = {
        (path.name, where, solver)
        for path in PACKAGE.glob("*.py")
        for where, solver in eigensolver_uses(path.read_text())
    }
    assert found == EXPECTED


def test_detector_finds_each_reference():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import eigvals\n"
        "class C:\n"
        "    def f(self, m):\n"
        "        return np.linalg.eigh(m)\n"
        "def g(m):\n"
        "    solve = np.linalg.eigvalsh\n"
        "    return solve(m), np.linalg.norm(m)\n"
    )
    assert eigensolver_uses(source) == [
        ("<module>", "eigvals"),
        ("C.f", "eigh"),
        ("g", "eigvalsh"),
    ]
