import ast
from pathlib import Path

import superhilb


def test_no_assert_statements_in_package():
    """Every check in the package must still run under python -O, which
    strips assert statements."""
    package = Path(superhilb.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
