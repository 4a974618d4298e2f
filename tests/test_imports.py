"""Every module-level import of the package is used by its module."""

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


def test_detects_an_unused_import():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\nprint(os.sep, loads)\n"
    assert unused_imports(source) == [(2, "system"), (3, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
