"""Every name a module of estagg imports is read in that module, and every
function and class estagg defines is referenced within estagg. The data
layer imports no ledger: bias imports no estagg module, and ingest only
features and periods; report, which writes a run's files and reads them
back, imports no command module. No module reads an environment variable.
Start-up builds no dataclass and no `typing.NamedTuple`, and loads neither
logging nor a module only another command needs; `run` and `report` do not
load logging either."""

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


# the names through which Python code reads environment variables
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """Each name, attribute or imported name of ENVIRONMENT in `source`,
    with its line, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.alias):
            found.append((node.lineno, node.name.rpartition(".")[2]))
    return [f"{name} (line {line})" for line, name in sorted(found) if name in ENVIRONMENT]


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


def test_no_module_reads_the_environment():
    # so a run's manifest.json records everything it reads besides its input files
    found = [
        f"{path.name}: {read}"
        for path in sorted(SRC.glob("*.py"))
        for read in environment_reads(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_finds_environment_reads():
    source = (
        "import os\n"
        "from os import getenv as get, sep\n"
        "level = os.environ.get('LEVEL', sep)\n"
        "def f(environ):\n"
        "    return get('X'), environ\n"
    )
    assert environment_reads(source) == ["getenv (line 2)", "environ (line 3)", "environ (line 5)"]


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


# each module's estagg imports, at most: the ledgers stand alone, the
# data layer, which builds the stream's key index, imports no ledger, and
# the run directory's files are written and read below the command layer
LAYERS = {
    "bias.py": set(),
    "ingest.py": {"features", "periods"},
    "report.py": {"aggregate", "evaluate", "ingest", "model", "replay"},
}


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
import json, sys, typing
built = []  # the classes typing.NamedTupleMeta builds, by module and name
make = typing.NamedTupleMeta.__new__
def watching(cls, name, bases, ns):
    built.append(f"{ns['__module__']}.{name}")
    return make(cls, name, bases, ns)
typing.NamedTupleMeta.__new__ = watching
from estagg.cli import build_parser
build_parser()
named_tuples = [name for name in built if name == "estagg" or name.startswith("estagg.")]
dataclasses = sorted(
    f"{name}.{cls}"
    for name, module in list(sys.modules.items())
    if name == "estagg" or name.startswith("estagg.")
    for cls, value in vars(module).items()
    if isinstance(value, type) and hasattr(value, "__dataclass_fields__")
)
loaded = [name for name in ("estagg.synth", "estagg.report", "dataclasses", "logging") if name in sys.modules]
import estagg
names = {}
exec("from estagg import *", names)
from estagg.synth import SynthSpec, generate
resolved = estagg.SynthSpec is SynthSpec and estagg.generate is generate and set(estagg.__all__) <= set(names)
print(json.dumps([dataclasses, named_tuples, loaded, resolved]))
"""


def test_start_up_builds_no_dataclass_and_skips_synth():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", START_UP], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    dataclasses, named_tuples, loaded, resolved = json.loads(child.stdout)
    assert dataclasses == []
    assert named_tuples == []
    assert loaded == []
    assert resolved


# run in a fresh interpreter as `python -m estagg.cli` runs: the command's
# exit code, then whether estagg.cli, estagg.report and logging were imported
AS_MAIN = """
import json, runpy, sys
sys.argv[0] = "estagg"
try:
    runpy.run_module("estagg.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, *(name in sys.modules for name in ("estagg.cli", "estagg.report", "logging"))]))
"""


def test_run_and_report_load_report_but_not_cli_again(tmp_path):
    from estagg.synth import SynthSpec, generate

    paths = generate(SynthSpec(n_firms=3, n_analysts=12, n_quarters=4, analysts_per_event=4), str(tmp_path / "in"))
    out = str(tmp_path / "run")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    env["ESTAGG_LOG"] = "INFO"  # a run writes nothing but its files, whatever the environment holds
    seen = {}
    for argv in (
        ["run", "--estimates", paths["estimates"], "--actuals", paths["actuals"], "--out", out, "--burn-in", "1"],
        ["report", "--run-dir", out],
    ):
        child = subprocess.run(
            [sys.executable, "-c", AS_MAIN, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert child.returncode == 0, child.stderr
        assert child.stderr == ""
        seen[argv[0]] = json.loads(child.stdout.splitlines()[-1])
    assert seen == {"run": [0, False, True, False], "report": [0, False, True, False]}
