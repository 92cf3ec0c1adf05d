"""Every name a module of estagg imports is read in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "estagg"


def unused_imports(source: str) -> list[str]:
    """The names `source` binds by import and never reads, each with its
    line; `from __future__` features and names listed in `__all__` count as
    read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Optional\n"
        "from itertools import chain, repeat\n"
        "from .aggregate import ModeConfig\n"
        "__all__ = ['ModeConfig']\n"
        "def f(x: Optional[int]) -> list:\n"
        "    return list(repeat(x, 2))\n"
    )
    assert unused_imports(source) == ["os (line 2)", "np (line 3)", "chain (line 5)"]
