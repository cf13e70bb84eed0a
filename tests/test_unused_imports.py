"""Every name a library module imports is used in that module.

No linter ships with the package, so this scan stands in for one.  The
package ``__init__`` files import names only to re-export them and are
skipped.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_scan_sees_an_unused_name():
    tree = ast.parse("import os\nimport numpy as np\nfrom math import inf, pi\nprint(np.pi, inf)\n")
    assert unused_imports(tree) == ["line 1: os", "line 3: pi"]


def test_library_modules_use_every_import():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    found = {}
    for path in modules:
        unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if unused:
            found[str(path.relative_to(SRC))] = unused
    assert not found, f"unused imports: {found}"
