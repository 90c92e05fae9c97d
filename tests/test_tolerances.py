"""Every tolerance in the package is a named module constant, and every
range rule is checked in one place.

A float literal below 1e-3 in magnitude is a tolerance, a cutoff or a
trigger. It may appear only as the value of a module-level UPPER_CASE
assignment, so that each has one home and one name.

A value is checked against [0, 1] by linalg.check_unit_interval and against
(0, inf) by linalg.check_tolerance; a chained comparison with literal 0, 1
or infinite bounds anywhere else would state the rule a second time.
"""

import ast
import math
from pathlib import Path

import pytest

import cohfreeze

PACKAGE = Path(cohfreeze.__file__).resolve().parent
SMALL = 1e-3


def _is_constant_definition(node: ast.stmt) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return False
    return all(isinstance(t, ast.Name) and t.id.isupper() for t in targets)


def bare_tolerances(source: str) -> list[tuple[int, float]]:
    """(line, value) of each small float literal outside a module-level
    UPPER_CASE assignment."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for statement in tree.body
        if _is_constant_definition(statement)
        for node in ast.walk(statement)
    }
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0.0 < abs(node.value) < SMALL
        and id(node) not in allowed
    )


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py")), ids=str
)
def test_no_bare_tolerance(module):
    assert bare_tolerances((PACKAGE / module).read_text()) == []


def test_detector_flags_a_bare_literal():
    source = (
        "ZERO_TOL = 1e-12\n"
        "LIMITS: tuple = (1e-9, 0.5)\n"
        "def f(x, tol=1e-8):\n"
        "    return abs(x) > 1e-12 or x < -2.5e-4 or x > 0.001\n"
        "class C:\n"
        "    EPS = 1e-15\n"
    )
    assert bare_tolerances(source) == [(3, 1e-8), (4, 1e-12), (4, 2.5e-4), (6, 1e-15)]


# Where a value is checked against literal bounds, one of them 0, 1 or
# math.inf: the two shared range checks, and the two ranges no other input
# shares.
RANGE_CHECKS = [
    ("channels.py", "classify"),  # zero_tol is finite and non-negative
    ("linalg.py", "check_tolerance"),  # finite and positive
    ("linalg.py", "check_unit_interval"),  # [0, 1]
    ("states.py", "bromley_spec"),  # c1 in [-1, 1]
    ("states.py", "bromley_spec"),  # c3 in [-1, 1]
]


def _literal_bound(node: ast.AST) -> float | None:
    """The value of a number literal, its negation or math.inf (np.inf),
    else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _literal_bound(node.operand)
        return None if value is None else -value
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Attribute) and node.attr == "inf":
        return math.inf if getattr(node.value, "id", None) in ("math", "np") else None
    return None


def range_checks(source: str) -> list[str]:
    """The enclosing qualified name of each chained comparison a < x < b
    (any of <, <=) whose two bounds are literals, one of them 0, 1 or
    infinity; "<module>" outside any function or class."""
    uses = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Compare) and len(node.ops) == 2:
            bounds = (_literal_bound(node.left), _literal_bound(node.comparators[1]))
            if None not in bounds and any(b in (0, 1, math.inf) for b in bounds):
                uses.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return uses


def test_range_rules_live_in_the_linalg_checks():
    found = sorted(
        (path.name, where)
        for path in PACKAGE.glob("*.py")
        for where in range_checks(path.read_text())
    )
    assert found == RANGE_CHECKS


def test_range_detector_flags_each_literal_range():
    source = (
        "import math\n"
        "ok = 0.0 <= p <= 1.0\n"
        "class C:\n"
        "    def f(self, tol, q):\n"
        "        return 0 < tol < math.inf, not -1 <= q <= 1, 0. < q < np.inf\n"
        "def g(index, dim, x):\n"
        "    return 0 <= index < dim, 2 < x < 3, 0 < x, 1 <= x <= dim\n"
    )
    assert range_checks(source) == ["<module>", "C.f", "C.f", "C.f"]
