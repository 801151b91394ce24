"""Source hygiene, read with `ast` alone: every function the benchmark's
tracer names still exists, and no jck module imports a name it never uses."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "jck").glob("*.py"))


def _traced_targets() -> list[tuple[str, str, str]]:
    """(layer, module, name) of every `Target(...)` in `perfbench/layers.py`,
    read from its syntax tree: the file itself imports benchmark modules."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Target"):
            out.append(tuple(ast.literal_eval(arg) for arg in node.args[:3]))
    return out


def test_layers_file_names_targets():
    assert len(_traced_targets()) > 20


@pytest.mark.parametrize("layer, module, name", _traced_targets())
def test_traced_function_exists(layer, module, name):
    assert module.startswith("jck.")
    assert callable(getattr(importlib.import_module(module), name, None)), \
        f"{layer}: {module}.{name} is gone"


def _unused_imports(path: Path) -> list[str]:
    """Names `path` imports and never reads, skipping imports whose lines
    say `noqa: F401`."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
