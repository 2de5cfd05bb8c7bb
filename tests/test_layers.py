"""The package's import graph, read from its sources with ast: no module
imports one that imports it back, and data_io's private names stay in
data_io. Imports inside functions count as much as those at the top."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wavepower"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}


def imported(tree):
    """The wavepower modules that `tree` imports anywhere: `from . import
    x`, `from .x import y`, `import wavepower.x` and `from wavepower.x
    import y`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "wavepower":
                    continue
                module = module[len("wavepower."):]
            found.update([module.split(".")[0]] if module
                         else (alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("wavepower."))
    return found & set(MODULES)


GRAPH = {name: imported(tree) - {name} for name, tree in MODULES.items()}


def reachable(start):
    """Every module that `start` imports, directly or through others."""
    seen, todo = set(), list(GRAPH[start])
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(GRAPH[name])
    return seen


def test_the_graph_reads_function_level_imports():
    # cli imports pipeline only inside the stages that run it
    assert "pipeline" in GRAPH["cli"]
    assert "spectral" in GRAPH["data_io"]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_module_imports_itself_back(name):
    back = sorted(other for other in GRAPH[name] if name in reachable(other))
    assert not back, f"{name} imports {back}, which import {name} back"


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"data_io"}))
def test_private_data_io_names_stay_in_data_io(name):
    used = set()
    for node in ast.walk(MODULES[name]):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id == "data_io"):
            used.add(node.attr)
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").endswith("data_io")):
            used.update(alias.name for alias in node.names
                        if alias.name.startswith("_"))
    assert not used, f"{name} uses data_io's {sorted(used)}"
