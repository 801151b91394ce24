"""Source hygiene, read with `ast` alone: every function the benchmark's
tracer names still exists, no jck module imports a name it never uses,
every module-level definition is used, and files are read in one place."""

import ast
import importlib
import re
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


def _unread_definitions() -> list[str]:
    """Module-level functions, classes and assigned names of `src/jck` that
    no jck module reads and the benchmark's tracer does not name; dunders
    are exempt.  A name counts as read where a jck module loads it, takes it
    as an attribute or imports it, or where a string other than a docstring
    spells it (source text a module compiles)."""
    read = {name for _, _, name in _traced_targets()}
    defined = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.name, node.lineno, n.id) for target in targets
                            for n in ast.walk(target) if isinstance(n, ast.Name)]
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and ast.get_docstring(node, clean=False) is not None}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings):
                read.update(re.findall(r"\w+", node.value))
    return [f"{module}:{line}: {name}" for module, line, name in defined
            if name not in read and not (name.startswith("__") and name.endswith("__"))]


def test_no_unread_module_level_definitions():
    assert _unread_definitions() == []


def _file_reads() -> list[tuple[str, str]]:
    """(module, function) of every call in `src/jck` that opens or reads a
    file by name: `open(...)`, `x.open(...)`, `x.read_text(...)` and
    `x.read_bytes(...)`; "<module>" for a call outside any function."""
    out = []
    for path in SOURCES:
        for outer in ast.walk(ast.parse(path.read_text())):
            if not isinstance(outer, (ast.FunctionDef, ast.Module)):
                continue
            where = getattr(outer, "name", "<module>")
            # the calls in this body, not in the functions it defines
            stack = list(ast.iter_child_nodes(outer))
            while stack:
                node = stack.pop()
                if isinstance(node, ast.FunctionDef):
                    continue
                stack += ast.iter_child_nodes(node)
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in ("open", "read_text", "read_bytes"):
                        out.append((path.stem, where))
    return out


def test_files_are_read_in_one_place():
    # every file the command line reads is decoded the one way
    assert _file_reads() == [("cli", "_read_text")]
