"""Every module-level import in src/smoothdio is read by its module, and
every public name the library defines is read by something that runs.

Stand-ins for a linter's unused-import and dead-code rules, with the
standard library alone: a removal that leaves its `from math import exp`
behind fails here, and so does a function or method that only unit tests
call.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "smoothdio"


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


def read_names(source: str) -> set:
    """The names the source loads, as `name` or as `obj.name`, or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(alias.name.split(".")[-1] for alias in node.names)
    return read


def public_names(source: str):
    """Each public top-level def or class, then each public method of a
    public class as `Class.method`."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}"


def unread_names(modules: dict, readers: list, traced: set) -> list:
    """The public names of `modules` (module name → source), as
    `module.name`, that no module and no reader source loads and `traced`
    (the tracer's "module.function" strings) does not name."""
    read = set().union(*(read_names(source) for source in [*modules.values(), *readers]))
    return [f"{module}.{name}" for module, source in modules.items() for name in public_names(source)
            if name.split(".")[-1] not in read and f"{module}.{name}" not in traced]


def test_every_public_name_is_read():
    # read means run by a command (src), an acceptance criterion or a tracer span
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))
               if path.stem != "__init__"}
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    traced = {node.value for node in ast.walk(tracing)
              if isinstance(node, ast.Constant) and re.fullmatch(r"\w+\.\w+", str(node.value))}
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    assert unread_names(modules, [acceptance], traced) == []


def test_unread_names_finds_a_leftover():
    module = (
        "class C:\n    def used(self):\n        pass\n\n    def spare(self):\n        pass\n\n\n"
        "def spare_fn():\n    return C().used()\n\n\ndef traced_fn():\n    pass\n\n\ndef _private():\n    pass\n"
    )
    assert unread_names({"m": module}, ["from m import spare_fn\n"], {"m.traced_fn"}) == ["m.C.spare"]
    # a docstring is not a read
    assert unread_names({"m": module}, ['"""spare_fn, traced_fn"""\n'], set()) == [
        "m.C.spare", "m.spare_fn", "m.traced_fn"]


def private_names(tree: ast.Module) -> list:
    """The private top-level names the parsed module binds by def, class or
    assignment (dunder names excepted)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def imported_or_attribute_names(tree: ast.Module) -> set:
    """The names the parsed source imports, or loads as `obj.name`."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(alias.name.split(".")[-1] for alias in node.names)
    return read


def unread_private_names(modules: dict, readers: list) -> list:
    """The private top-level names of `modules` (module name → source), as
    `module.name`, that their own module never loads and that no other
    module and no reader source imports or loads as an attribute.  Each
    source is parsed once."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    attrs = {module: imported_or_attribute_names(tree) for module, tree in trees.items()}
    from_readers = set().union(*(imported_or_attribute_names(ast.parse(text)) for text in readers))
    unread = []
    for module, tree in trees.items():
        own = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read = own.union(from_readers, *(names for name, names in attrs.items() if name != module))
        unread += [f"{module}.{name}" for name in private_names(tree) if name not in read]
    return unread


def test_every_private_name_is_read():
    # a test may read a private name (an oracle, a patched cap); src must read the rest itself
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    tests = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "tests").glob("*.py"))]
    assert unread_private_names(modules, tests) == []


def test_unread_private_names_finds_a_leftover():
    module = "_USED = 1\n_SPARE = 2.0\n_A, _B = 3, 4\n\n\ndef _helper():\n    return _USED + _A\n\n\nclass _Oracle:\n    pass\n"
    assert unread_private_names({"m": module}, []) == ["m._SPARE", "m._B", "m._helper", "m._Oracle"]
    assert unread_private_names({"m": module}, ["from m import _helper\nimport m\nm._Oracle\n"]) == [
        "m._SPARE", "m._B"]
    # the module's own attribute loads (self._SPARE) and a reader's docstring are not reads
    assert unread_private_names({"m": module + "x = object()._SPARE\n"}, ['"""_B"""\n']) == [
        "m._SPARE", "m._B", "m._helper", "m._Oracle"]
