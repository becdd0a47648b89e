"""Tooling guards on the package's own source.

Every public top-level function and class, and every module-level
UPPER_CASE constant, in ``src/dpfedsim`` is used in ``src/dpfedsim``: code
that only tests call lives in ``tests/oracle.py``, not in the package, and
a constant no package code reads does not survive for tests alone.  Every
dataclass field is read somewhere in the package.  Every config key is
read by the layer it configures, and the README's config table names
exactly the config keys.  Every random stream is named by exactly four
ints.  Only the commands hold the BLAS pin and the worker thread.
"""

import ast
import importlib
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

from dpfedsim.config import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dpfedsim"
CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}


def _module_constants(tree: ast.Module) -> list[str]:
    """Names bound at module level that are UPPER_CASE, leading _ or not."""
    targets = [
        target
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    ]
    return [
        t.id
        for t in targets
        if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)
    ]


def test_every_public_function_and_class_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    defined = {
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    constants = {
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _module_constants(tree)
    }
    assert len(constants) > 15  # the walk found the constants
    defined |= constants
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = sorted(name for name in defined if name.split(":")[1] not in used)
    assert unused == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "dataclass")
        or (isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass")
        for d in node.decorator_list
    )


def _runtime_dataclass_fields() -> set[str]:
    """Class.field for every dataclass defined in a package module, as
    imported."""
    found = set()
    for path in PACKAGE.glob("[!_]*.py"):  # every module but __init__
        module = importlib.import_module(f"dpfedsim.{path.stem}")
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and is_dataclass(obj)
                and obj.__module__ == module.__name__
            ):
                found.update(f"{obj.__name__}.{f.name}" for f in fields(obj))
    return found


def test_every_dataclass_field_is_read_in_the_package():
    """A field nothing reads is state carried for no one.  ExperimentConfig
    is left out: its keys are checked against their readers below."""
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
    declared = {
        f"{cls.name}.{item.target.id}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and _is_dataclass(cls)
        and cls.name != "ExperimentConfig"
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    # the walk found every dataclass of the package and each of its fields
    assert declared == _runtime_dataclass_fields() - {
        f"ExperimentConfig.{key}" for key in CONFIG_KEYS
    }
    assert sorted(f for f in declared if f.split(".")[1] not in read) == []


def _is_config(node: ast.expr) -> bool:
    """``cfg`` or ``<anything>.cfg``: the names the package gives a config."""
    return (isinstance(node, ast.Name) and node.id == "cfg") or (
        isinstance(node, ast.Attribute) and node.attr == "cfg"
    )


def test_every_config_key_is_read_outside_config_py():
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and _is_config(node.value)
            ):
                read.add(node.attr)
    assert sorted(CONFIG_KEYS - read) == []


def test_readme_config_table_names_exactly_the_config_keys():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## Config file format", 1)[1].split("\n## ", 1)[0]
    named = set()
    for line in table.splitlines():
        if line.startswith("| `"):
            named.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    assert named == CONFIG_KEYS


def test_every_derive_rng_call_names_its_stream_with_four_ints():
    """SeedSequence pads a name with zeros, so a name of three ints is the
    stream of the four-int name ending in 0.  With four ints everywhere and
    a purpose tag last, two kinds of stream cannot share a name."""
    calls = [
        node
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "derive_rng"
    ]
    assert len(calls) >= 4  # selection, batch, noise and correction streams
    for call in calls:
        assert len(call.args) == 4 and not call.keywords, ast.unparse(call)
        assert not any(isinstance(a, ast.Starred) for a in call.args), ast.unparse(call)


def _called(node: ast.AST) -> str | None:
    """The name a call calls, bare or as an attribute; None for a non-call."""
    if not isinstance(node, ast.Call):
        return None
    return getattr(node.func, "id", getattr(node.func, "attr", None))


# calls that start a thread pool or pin BLAS
_WORKER_OR_PIN = {
    "ThreadPoolExecutor", "ProcessPoolExecutor", "_new_worker", "worker_thread",
    "one_blas_thread",
}


def test_only_the_commands_hold_the_pin_and_the_worker():
    """A command holds one BLAS pin and one worker from its first data build
    to its last run.  So only cli.py's run and compare enter a
    ``pinned_worker`` block, and no module but federation.py builds an
    executor or pins BLAS: no layer below a command takes a pin or a
    worker of its own."""
    enters, builds = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.With) and any(
                    (_called(item.context_expr) or "").endswith("pinned_worker")
                    for item in node.items
                ):
                    enters.add((path.name, getattr(top, "name", None)))
                if _called(node) in _WORKER_OR_PIN:
                    builds.add(path.name)
    assert enters == {("cli.py", "cmd_run"), ("cli.py", "cmd_compare")}
    assert builds == {"federation.py"}
