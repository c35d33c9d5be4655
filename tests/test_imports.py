"""No module of the package imports a name it never uses, no private
helper goes uncalled, and every file under ``segspell/data`` is named in a
module's source, so a deletion that leaves its import, its helper or its
data file behind fails here; and only ``cli.main`` prints, since progress
goes through ``logging``."""

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


def dead_helpers(sources):
    """The ``_``-prefixed functions, methods and classes (dunders aside)
    defined in ``sources`` that none of them names anywhere but in their
    own definition: as a name, an attribute or an imported name."""
    trees = [ast.parse(source) for source in sources]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    defined = {node.name for node in nodes
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")}
    named = ({node.id for node in nodes if isinstance(node, ast.Name)}
             | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
             | {node.name for node in nodes if isinstance(node, ast.alias)})
    return sorted(defined - named)


def test_dead_helpers_are_found():
    sources = ["def _used():\n    pass\ndef _dead():\n    pass\nclass _Base:\n"
               "    def _method(self):\n        pass\n    def __repr__(self):\n"
               "        return ''\n",
               "from a import _used\nclass C(_Base):\n    pass\n"]
    assert dead_helpers(sources) == ["_dead", "_method"]
    assert dead_helpers(sources + ["x._method()\n"]) == ["_dead"]


def test_no_private_helper_is_dead():
    modules = sorted(Path(segspell.__file__).parent.glob("*.py"))
    assert dead_helpers([m.read_text() for m in modules]) == []


def test_every_data_file_is_named_in_a_module():
    package = Path(segspell.__file__).parent
    sources = "".join(m.read_text() for m in package.glob("*.py"))
    names = sorted(p.name for p in (package / "data").iterdir() if p.is_file())
    assert len(names) >= 3
    assert [name for name in names if name not in sources] == []


def print_callers(source):
    """The functions of ``source`` that call ``print``, by qualified name
    (``<module>`` for a call outside any function)."""
    found = set()

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name if name == "<module>" else name + "." + child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "print"):
                found.add(name)
            visit(child, name)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_print_callers_are_found():
    source = ("print(1)\ndef f():\n    def g():\n        print(2)\n    return g\n"
              "class C:\n    def m(self):\n        print(3)\n    def n(self):\n        log(4)\n")
    assert print_callers(source) == ["<module>", "C.m", "f.g"]


def test_only_cli_main_prints():
    modules = sorted(Path(segspell.__file__).parent.glob("*.py"))
    callers = {m.stem + "." + f for m in modules for f in print_callers(m.read_text())}
    assert callers == {"cli.main"}
