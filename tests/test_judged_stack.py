"""The Kraus zero rule runs in one place.

Which Kraus entries count as nonzero (|K| > zero_tol) is decided only in
channels._judged_entries: classify and the recovery both read the entries
it returns. Any other comparison of an np.abs(...) with zero_tol or ZERO_TOL
would judge the stack a second way.
"""

import ast
from pathlib import Path

import cohfreeze

PACKAGE = Path(cohfreeze.__file__).resolve().parent
TOLERANCES = {"zero_tol", "ZERO_TOL"}
EXPECTED = [
    ("channels.py", "_judged_entries"),  # the recorded form's gains
    ("channels.py", "_judged_entries"),  # the whole stack
]


def _is_abs(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "abs"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
    )


def _is_tolerance(node: ast.AST) -> bool:
    """A name (zero_tol) or an attribute (channels.ZERO_TOL) in TOLERANCES."""
    return getattr(node, "id", getattr(node, "attr", None)) in TOLERANCES


def zero_rule_uses(source: str) -> list[str]:
    """The enclosing qualified name of each comparison of an np.abs(...)
    with zero_tol or ZERO_TOL (a bare name or an attribute such as
    channels.ZERO_TOL); "<module>" outside any function or class."""
    uses = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_abs, operands)) and any(map(_is_tolerance, operands)):
                uses.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return uses


def test_zero_rule_lives_in_judged_entries():
    found = sorted(
        (path.name, where)
        for path in PACKAGE.glob("*.py")
        for where in zero_rule_uses(path.read_text())
    )
    assert found == EXPECTED


def test_detector_finds_each_comparison():
    source = (
        "import numpy as np\n"
        "from cohfreeze import channels\n"
        "ZERO_TOL = 1e-12\n"
        "mask = np.abs(x) > ZERO_TOL\n"
        "class C:\n"
        "    def f(self, ops, zero_tol):\n"
        "        return zero_tol < np.abs(ops)\n"
        "def g(ops, zero_tol):\n"
        "    kept = np.abs(ops) <= channels.ZERO_TOL\n"
        "    return kept, np.abs(ops) > 0.5, abs(ops) > zero_tol, ops > zero_tol\n"
    )
    assert zero_rule_uses(source) == ["<module>", "C.f", "g"]
