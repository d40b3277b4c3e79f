"""Every module-level import in src/smoothdio is read by its module.

A stand-in for a linter's unused-import rule, with the standard library
alone: a removal that leaves its `from math import exp` behind fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "smoothdio"


def unused_imports(source: str) -> list:
    """The names bound by the module's top-level imports that no expression
    in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_module_level_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_unused_imports_finds_a_leftover():
    assert unused_imports("import warnings\nfrom math import exp, log\n\nprint(log(2))\n") == ["warnings", "exp"]
    assert unused_imports("import numpy as np\n\nx = np.zeros(3)\n") == []
