"""Every name a `tsgan` module imports is used in that module, and the
CLI's start-up loads no module it needs only for synthesis."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "tsgan").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """The names `tree` binds by import and never reads; `__future__`
    imports and the names in a module's `__all__` count as used."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from itertools import chain, compress\nchain()\n")
    assert unused_imports(tree) == ["line 1: compress"]


def test_cli_import_loads_no_thread_pool():
    # gan._conditioned imports its thread pool when it runs: the pool
    # loads `logging`, which every command's start-up would pay for
    code = ("import sys, tsgan.cli; print(sorted({'concurrent.futures', "
            "'logging'} & set(sys.modules)))")
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout == "[]\n"
