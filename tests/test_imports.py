"""Every module-level import of the package is used by its module, every function parameter by its
function, and every module-level private name somewhere in the package."""

import ast
from pathlib import Path

import pytest

import aghash

MODULES = sorted(Path(aghash.__file__).resolve().parent.glob("*.py"))


def unused_imports(source):
    """The names that the module-level imports of `source` bind and that its code never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:  # `import a.b` binds `a`
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def unused_parameters(source):
    """(line, "function.parameter") for each parameter of a function in `source` that its body never reads.

    `self`, `cls` and names that start with an underscore are exempt; a read
    in a nested function or lambda counts.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found.extend((param.lineno, f"{name}.{param.arg}") for param in params
                     if param.arg not in ("self", "cls") and not param.arg.startswith("_")
                     and param.arg not in read)
    return sorted(found)


def private_definitions(source):
    """(line, name) for each private name (one underscore, not a dunder) that `source` binds at module level."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [(node.lineno, node.name)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [(sub.lineno, sub.id) for target in nodes for sub in ast.walk(target)
                       if isinstance(sub, ast.Name)]
        else:
            continue
        found.extend((line, name) for line, name in targets
                     if name.startswith("_") and not name.startswith("__"))
    return found


def names_read(source):
    """The names `source` reads: loaded names, attributes, and names imported from another module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources):
    """(module, line, name) for each module-level private name of `sources` (module -> source) read in none."""
    read = set().union(*(names_read(source) for source in sources.values()))
    return sorted((module, line, name) for module, source in sources.items()
                  for line, name in private_definitions(source) if name not in read)


def test_detects_an_unused_import():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\nprint(os.sep, loads)\n"
    assert unused_imports(source) == [(2, "system"), (3, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_parameter():
    source = ("def f(self, a, b, _c, *args, d=1, **kw):\n    return a + kw['x']\n"
              "def g(x, y):\n    def h():\n        return x\n    return h\n"
              "key = lambda item, default: item\n")
    assert unused_parameters(source) == [(1, "f.args"), (1, "f.b"), (1, "f.d"), (3, "g.y"),
                                         (7, "<lambda>.default")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_function_parameter_is_read(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_detects_an_unread_private_name():
    sources = {"a": "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    pass\n",
               "b": "from a import _C\n_x, (_y, z) = 1, (2, 3)\nprint(_y)\n"}
    assert unread_private_names(sources) == [("a", 2, "_B"), ("a", 4, "_f"), ("b", 2, "_x")]


def test_every_module_level_private_name_is_read():
    # a private helper left without callers by a deletion is dead code
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unread_private_names(sources) == []
