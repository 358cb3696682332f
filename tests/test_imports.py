"""No module of the package imports a name it never uses.  No linter is
assumed: the check walks each module's syntax tree with the standard
library."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "classgroup"


def unused_imports(source):
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_helper():
    assert unused_imports("import os\nimport sys\nsys.exit()") == [(1, "os")]
    assert unused_imports("from a import b as c\nc()") == []
    assert unused_imports("import os.path\nos.sep") == []


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {k: v for k, v in unused.items() if v} == {}
