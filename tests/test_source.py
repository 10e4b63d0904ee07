import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import monorank
from monorank import (
    AllowableSequence,
    HyperplaneArrangement,
    MonotoneDistortion,
    PointArrangement,
    SignVector,
    SignVectorSet,
    check_generic,
    validate_allowable,
)

_SIMPLE_SWEEP = [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1), (3, 1, 2), (1, 3, 2)]


def _library_sources():
    paths = sorted(Path(monorank.__file__).parent.rglob("*.py"))
    assert len(paths) >= 10
    for path in paths:
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a correctness check written
    # as one would vanish; the library raises instead
    found = []
    for path, tree in _library_sources():
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr == "dataclass"
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _defined_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return {stmt.name}
    targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
    return {t.id for t in targets if isinstance(t, ast.Name)}


def test_value_types_are_frozen_slotted_dataclasses():
    # one idiom for immutable values: the dataclass derives __eq__, __hash__
    # and __slots__ from the declared fields, so they cannot drift apart
    hand_written = {"__setattr__", "__eq__", "__hash__", "__slots__"}
    found, checked = [], set()
    for path, tree in _library_sources():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for stmt in cls.body:
                for name in sorted(_defined_names(stmt) & hand_written):
                    found.append(f"{path.name}:{stmt.lineno} {cls.name}.{name}")
            for dec in filter(_is_dataclass_decorator, cls.decorator_list):
                checked.add(cls.name)
                flags = {
                    kw.arg: kw.value.value
                    for kw in getattr(dec, "keywords", [])
                    if isinstance(kw.value, ast.Constant)
                }
                if not (flags.get("frozen") is True and flags.get("slots") is True):
                    found.append(f"{path.name}:{dec.lineno} {cls.name} not frozen+slots")
    assert found == []
    assert {
        "SignVector",
        "SignVectorSet",
        "AllowableSequence",
        "TieReport",
        "ValidationReport",
        "PointArrangement",
        "HyperplaneArrangement",
        "MonotoneDistortion",
        "RankReport",
        "CompletionResult",
    } <= checked


VALUE_TYPES = {
    "SignVector": (lambda: SignVector.from_string("+-0"), "pos"),
    "SignVectorSet": (lambda: SignVectorSet.from_strings(["+-", "-+"]), "ground_size"),
    "AllowableSequence": (lambda: AllowableSequence(_SIMPLE_SWEEP), "permutations"),
    "TieReport": (lambda: check_generic(np.array([[1.0], [1.0]])), "ties"),
    "ValidationReport": (lambda: validate_allowable(_SIMPLE_SWEEP), "valid"),
    "PointArrangement": (
        lambda: PointArrangement(2, [[0, 0], [1, 0], [0, 1]]),
        "points",
    ),
    "HyperplaneArrangement": (
        lambda: HyperplaneArrangement(2, [[1, 0], [0, 1]]),
        "normals",
    ),
    "MonotoneDistortion": (
        lambda: MonotoneDistortion.piecewise_linear([0.0, 1.0], [0.0, 2.0]),
        "params",
    ),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_type_is_slotted_frozen_and_compares_by_fields(name):
    make, field = VALUE_TYPES[name]
    value = make()
    assert type(value).__name__ == name
    assert not hasattr(value, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))
    if name.endswith("Arrangement"):
        return  # numpy fields have no truth value, so == cannot compare them
    other = make()
    assert other is not value
    assert other == value and hash(other) == hash(value)


def test_import_loads_no_scipy():
    # scipy is most of the import time; only the LP tope search uses it,
    # and it imports it when first called
    code = (
        "import sys, monorank, monorank.cli; monorank.hadamard(3); "
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
