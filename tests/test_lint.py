"""Lint: every imported name is used.

A module of `src/cvmdi` or of `tests/` that imports a name must reference it.
The package's `__init__.py` is exempt: its imports are its exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    assert unused_imports("import os.path\nimport numpy as np\nfrom a import b, c as d\n"
                          "np.zeros(d)\n") == ["b", "os"]
    modules = [p for p in sorted((ROOT / "src" / "cvmdi").glob("*.py")) if p.name != "__init__.py"]
    modules += sorted((ROOT / "tests").glob("*.py"))
    unused = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in modules}
    assert {path: names for path, names in unused.items() if names} == {}
