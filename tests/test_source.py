import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "splithc"


def test_package_has_no_assert_statements():
    # ``python -O`` strips asserts, so a check in the package must raise.
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [f"{f.name}:{node.lineno}"
             for f in files
             for node in ast.walk(ast.parse(f.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found
