"""Every name a module of estagg imports is read in that module, and every
function and class estagg defines is referenced within estagg. The data
layer imports no ledger: bias imports no estagg module, and ingest only
features and periods. Start-up builds no dataclass and loads no module only
another command needs."""

import ast
import json
import os
import subprocess
import sys
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
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def exported(tree: ast.AST) -> set[str]:
    """The names a module's `__all__` lists."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """The functions and classes the modules `sources` (file name -> text)
    define that none of them references, each with its file and line. A
    name, an attribute, an imported name or an `__all__` entry references
    every definition of its name; dunder methods count as referenced."""
    defined, referenced = [], set()
    for name, source in sources.items():
        tree = ast.parse(source)
        referenced |= exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{name}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                referenced.update(alias.name for alias in node.names)
    return [
        f"{what} ({where})"
        for what, where in defined
        if what not in referenced and not (what.startswith("__") and what.endswith("__"))
    ]


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


def test_every_definition_is_referenced():
    assert unreferenced_definitions({path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}) == []


def test_finds_unreferenced_definitions():
    sources = {
        "a.py": (
            "__all__ = ['public']\n"
            "def public(): pass\n"
            "def helper(): pass\n"
            "def test_only(): pass\n"
            "class Table:\n"
            "    def __len__(self): return 0\n"
            "    def take(self): return helper()\n"
            "    def from_rows(self): pass\n"
        ),
        "b.py": "from .a import Table\ndef main(t: Table):\n    return t.take()\nmain(Table())\n",
    }
    assert unreferenced_definitions(sources) == ["test_only (a.py:4)", "from_rows (a.py:8)"]


def estagg_imports(source: str) -> set[str]:
    """The modules of estagg that `source`, a module of estagg, imports, by
    file stem, `__init__` for the package itself: `from .x import`, `from .
    import x` and `import estagg.x` alike."""
    modules = {path.stem for path in SRC.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = f"estagg.{node.module or ''}" if node.level else node.module
            dotted = [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in dotted:
            package, _, rest = name.partition(".")
            if package == "estagg":
                stem = rest.partition(".")[0]
                found.add(stem if stem in modules else "__init__")
    return found


# each module's estagg imports, at most: the ledgers stand alone, and the
# data layer, which builds the stream's key index, imports no ledger
LAYERS = {"bias.py": set(), "ingest.py": {"features", "periods"}}


@pytest.mark.parametrize("name, allowed", LAYERS.items(), ids=LAYERS)
def test_layering(name, allowed):
    assert estagg_imports((SRC / name).read_text(encoding="utf-8")) <= allowed


def test_finds_estagg_imports():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import estagg.model\n"
        "from . import __version__, synth\n"
        "from .bias import BiasTracker\n"
        "from estagg.periods import parse_ts\n"
        "def f():\n"
        "    from .features import normalize\n"
    )
    assert estagg_imports(source) == {"model", "__init__", "synth", "bias", "periods", "features"}


# run in a fresh interpreter: what the set-up of every command loads and
# builds, then the names the package gives on first use
START_UP = """
import json, sys
from estagg.cli import build_parser
build_parser()
dataclasses = sorted(
    f"{name}.{cls}"
    for name, module in list(sys.modules.items())
    if name == "estagg" or name.startswith("estagg.")
    for cls, value in vars(module).items()
    if isinstance(value, type) and hasattr(value, "__dataclass_fields__")
)
loaded = [name for name in ("estagg.synth", "dataclasses") if name in sys.modules]
import estagg
names = {}
exec("from estagg import *", names)
from estagg.synth import SynthSpec, generate
resolved = estagg.SynthSpec is SynthSpec and estagg.generate is generate and set(estagg.__all__) <= set(names)
print(json.dumps([dataclasses, loaded, resolved]))
"""


def test_start_up_builds_no_dataclass_and_skips_synth():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", START_UP], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    dataclasses, loaded, resolved = json.loads(child.stdout)
    assert dataclasses == []
    assert loaded == []
    assert resolved
