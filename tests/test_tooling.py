import ast
from pathlib import Path

import superhilb


def _raises_assertion_error(node) -> bool:
    return (isinstance(node, ast.Raise) and node.exc is not None
            and any(isinstance(n, ast.Name) and n.id == "AssertionError"
                    for n in ast.walk(node.exc)))


def test_no_assert_statements_in_package():
    """Every check in the package must still run under python -O, which
    strips assert statements, and must raise a documented error of the
    package, never a bare AssertionError."""
    package = Path(superhilb.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert not found, found
