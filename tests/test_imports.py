"""No module of the package imports a name it never uses, so a deletion
that leaves its import behind fails here."""

import ast
from pathlib import Path

import segspell


def unused_imports(source):
    """The names ``source`` imports (``__future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os.path\nimport json\nfrom math import pi as tau, e\nprint(tau, os.sep)\n"
    assert unused_imports(source) == ["e", "json"]


def test_no_module_imports_an_unused_name():
    modules = sorted(Path(segspell.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    assert {m.name: unused_imports(m.read_text()) for m in modules
            if unused_imports(m.read_text())} == {}
