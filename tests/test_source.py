import ast
import os
import subprocess
import sys
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


def test_import_loads_no_scipy():
    # scipy is most of the import time; only the LP tope search and
    # hadamard use it, and they import it when first called
    code = (
        "import sys, monorank, monorank.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(monorank.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert out.stdout.strip() == "[]"
