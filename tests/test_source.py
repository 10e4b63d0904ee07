import ast
from pathlib import Path

import monorank


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a correctness check written
    # as one would vanish; the library raises instead
    paths = sorted(Path(monorank.__file__).parent.rglob("*.py"))
    assert len(paths) >= 10
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
