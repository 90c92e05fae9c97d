"""Every tolerance in the package is a named module constant.

A float literal below 1e-3 in magnitude is a tolerance, a cutoff or a
trigger. It may appear only as the value of a module-level UPPER_CASE
assignment, so that each has one home and one name.
"""

import ast
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
