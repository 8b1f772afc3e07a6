"""No test runs README's library examples, so a name deleted or renamed in
vckb would leave them wrong without failing anything. This reads every
`from vckb... import name` in a ```python block of README.md and checks
that it resolves."""

import ast
import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _vckb_imports():
    found = []
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    for number, block in enumerate(blocks, 1):
        for node in ast.walk(ast.parse(block, f"README.md block {number}")):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module == "vckb" or node.module.startswith("vckb.")
            ):
                found.extend((number, node.module, alias.name) for alias in node.names)
    return found


_IMPORTS = _vckb_imports()


def test_readme_imports_from_vckb():
    assert _IMPORTS


@pytest.mark.parametrize(
    "block, module, name", _IMPORTS, ids=[f"block{b}:{m}.{n}" for b, m, n in _IMPORTS]
)
def test_readme_import_resolves(block, module, name):
    assert hasattr(importlib.import_module(module), name), (
        f"README.md block {block}: from {module} import {name}"
    )
