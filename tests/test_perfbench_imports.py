"""The benchmark harness imports names from vckb inside the functions that
use them, so a deleted name fails only when the benchmark runs. This reads
every `from vckb... import name` under perfbench/ and checks that it
resolves."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _vckb_imports():
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module == "vckb" or node.module.startswith("vckb.")
            ):
                found.extend((path.name, node.module, alias.name) for alias in node.names)
    return found


_IMPORTS = _vckb_imports()


def test_perfbench_imports_from_vckb():
    assert _IMPORTS


@pytest.mark.parametrize(
    "source, module, name", _IMPORTS, ids=[f"{f}:{m}.{n}" for f, m, n in _IMPORTS]
)
def test_perfbench_import_resolves(source, module, name):
    assert hasattr(importlib.import_module(module), name), f"{source}: from {module} import {name}"


@pytest.mark.parametrize("name", ["load_kb", "load_scene_corpus"])
def test_cli_calls_the_loaders_the_benchmark_times(name):
    """child.py counts a loader in setup_s by replacing it under its name in
    every loaded vckb module; the CLI must call the ingest function itself
    by that name, or set-up time stops counting it."""
    import vckb.cli
    import vckb.ingest

    assert getattr(vckb.cli, name) is getattr(vckb.ingest, name)
