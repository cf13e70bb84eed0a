"""Every name a library module imports is used in that module, every
private module-level name is referenced somewhere, and every public
module-level function and class is used by the library or the benchmark,
not only by tests.

No linter ships with the package, so these scans stand in for one.  The
package ``__init__`` files import names only to re-export them and are
skipped by the import scan.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


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


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` functions, classes and assignments."""
    found: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node.lineno
    return found


def referenced_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in a module: bare loads, attributes and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def test_private_helper_scan_sees_a_dead_helper():
    tree = ast.parse("_LIMIT = 3\n_a, _b = 1, 2\ndef _used():\n    return _LIMIT + _a\ndef _dead():\n    pass\n_used()\n")
    defined = private_definitions(tree)
    assert defined == {"_LIMIT": 1, "_a": 2, "_b": 2, "_used": 3, "_dead": 5}
    assert sorted(set(defined) - referenced_names(tree)) == ["_b", "_dead"]


def unreferenced(definitions, directories: tuple[str, ...]) -> list[str]:
    """Library definitions, as ``definitions(tree)`` finds them, that no
    module under ``directories`` references."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for directory in directories
        for path in (ROOT / directory).rglob("*.py")
    }
    referenced = set().union(*(referenced_names(tree) for tree in trees.values()))
    return sorted(
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path, tree in trees.items()
        if SRC in path.parents
        for name, line in definitions(tree).items()
        if name not in referenced
    )


def test_every_private_module_name_is_referenced():
    dead = unreferenced(private_definitions, ("src", "tests", "perfbench"))
    assert not dead, f"private names nothing references: {dead}"


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions and classes whose names do not start with ``_``."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def test_public_name_scan_sees_a_name_only_tests_use():
    tree = ast.parse("X = 1\ndef used():\n    pass\nclass Dead:\n    pass\ndef _private():\n    used()\n")
    defined = public_definitions(tree)
    assert defined == {"used": 2, "Dead": 4}
    assert sorted(set(defined) - referenced_names(tree)) == ["Dead"]


def test_every_public_library_name_is_used_outside_the_tests():
    unused = unreferenced(public_definitions, ("src", "perfbench"))
    assert not unused, f"public names only tests use: {unused}"
