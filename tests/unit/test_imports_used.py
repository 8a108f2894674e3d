"""Every name a module under src/repro imports is used.

Each non-``__init__`` module is parsed, and every name its imports bind
must be referenced somewhere in it: read as a name (an attribute chain
counts through its base), listed in ``__all__``, or named inside a
string annotation. ``from __future__`` imports are compiler directives,
not names. (``__init__`` modules import to re-export.)
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _names(expr: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(expr) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name ``source`` never references."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    annotations: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name)
                      and target.id == "__all__"
                      for target in node.targets)):
            used.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_sees_all_and_string_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import TYPE_CHECKING, Mapping\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "from json import dumps\n"
        "def f(x: 'OrderedDict[str, int]') -> None:\n"
        "    return os.path.join(x)\n"
        "__all__ = ['dumps']\n"
    )
    assert unused_imports(source) == [(2, "sys"), (3, "Mapping")]


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text("utf-8"))]
    assert found == [], "unused imports:\n" + "\n".join(found)
