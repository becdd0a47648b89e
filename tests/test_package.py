"""Every public top-level function and class in ``src/dpfedsim`` has a
caller in ``src/dpfedsim``: code that only tests call lives in
``tests/oracle.py``, not in the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dpfedsim"


def test_every_public_function_and_class_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    defined = {
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = sorted(name for name in defined if name.split(":")[1] not in used)
    assert unused == []
