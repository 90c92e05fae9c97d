"""A local channel has one kernel.

LocalChannel._blocks, the table of its factors' 2 x 2 parity blocks, is
written by LocalChannel.__post_init__ and read only by
LocalChannel._contract_lines, the line kernel that apply_channel and the
certificate's round trip both go through. Any other reader of the table
would be a second way to apply a local channel.
"""

import ast
from pathlib import Path

import cohfreeze

PACKAGE = Path(cohfreeze.__file__).resolve().parent
EXPECTED = [
    ("channels.py", "LocalChannel.__post_init__"),  # the table is written
    ("channels.py", "LocalChannel._contract_lines"),  # the one kernel
]


def block_uses(source: str) -> list[str]:
    """The enclosing qualified name of each use of _blocks: an attribute
    (x._blocks) or the string "_blocks", as setattr and getattr take it;
    "<module>" outside any function or class."""
    uses = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if getattr(node, "attr", None) == "_blocks" or (
            isinstance(node, ast.Constant) and node.value == "_blocks"
        ):
            uses.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return uses


def test_blocks_are_read_by_the_line_kernel_alone():
    found = sorted(
        (path.name, where)
        for path in PACKAGE.glob("*.py")
        for where in block_uses(path.read_text())
    )
    assert found == EXPECTED


def test_detector_finds_each_use():
    source = (
        "table = channel._blocks\n"
        "class LocalChannel:\n"
        "    _blocks: int = 0\n"
        "    def apply(self, x):\n"
        "        return getattr(self, '_blocks') @ x\n"
        "def superoperator(channel):\n"
        "    '''reads LocalChannel._blocks'''\n"
        "    return channel._blocks[0], blocks, channel.blocks\n"
    )
    assert block_uses(source) == ["<module>", "LocalChannel.apply", "superoperator"]
