"""Tooling guards on the package's own source.

Every public top-level function and class, and every module-level
UPPER_CASE constant, in ``src/dpfedsim`` is used in ``src/dpfedsim``: code
that only tests call lives in ``tests/oracle.py``, not in the package, and
a constant no package code reads does not survive for tests alone.  Every
dataclass field is read somewhere in the package.  Every config key is
read by the layer it configures, and the README's config table names
exactly the config keys, each with its default.  Every random stream is
made by derive_rng and named by four ints, a tag of the one tag table
last.  Only the commands hold the BLAS pin and the worker thread, and both
reach a run through one driver.  float32 is named once, in
``federation``, which alone decides the form of the test set, the one
input that sets evaluation's width.
Only the config calls the privacy accountant.  Every mutant of the
mutation sweep (``tests/mutants.py``) edits text that occurs once in
``src/``, and names as its killer a test that pytest collects; the sweep
copies a tree that is not a git checkout too.
"""

import ast
import importlib
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from dpfedsim.config import ExperimentConfig
from dpfedsim.federation import Stream
from mutants import LIST_CHECK, MUTANTS, PINS, SURVIVORS, copy_tree
from oracle import child_env

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


def _readme_config_rows() -> list[tuple[list[str], list[str]]]:
    """(keys, default cells) of each row of the README's config table; a
    cell joined to the next by " / " is its own cell, backticks dropped."""
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## Config file format", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in table.splitlines():
        if line.startswith("| `"):
            keys, defaults = line.split("|")[1:3]
            rows.append((
                re.findall(r"`(\w+)`", keys),
                [cell.strip().strip("`") for cell in defaults.split(" / ")],
            ))
    return rows


def test_readme_config_table_names_exactly_the_config_keys():
    named = [key for keys, _ in _readme_config_rows() for key in keys]
    assert sorted(named) == sorted(CONFIG_KEYS)


def _readme_default(key: str, value) -> str:
    """A resolved default as the table writes it: auto for the empty
    layer_sizes, "" for another empty string, a bool in lower case."""
    if value == "":
        return "auto" if key == "layer_sizes" else '""'
    return str(value).lower() if isinstance(value, bool) else str(value)


def test_readme_config_table_gives_every_keys_default():
    """A row's default cells match its keys by position; one cell serves
    every key of its row."""
    defaults = ExperimentConfig().resolved()
    for keys, cells in _readme_config_rows():
        if len(cells) == 1:
            cells = cells * len(keys)
        assert len(cells) == len(keys), keys
        for key, cell in zip(keys, cells):
            assert cell == _readme_default(key, defaults[key]), key


def _called(node: ast.AST) -> str | None:
    """The name a call calls, bare or as an attribute; None for a non-call."""
    if not isinstance(node, ast.Call):
        return None
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def test_every_derive_rng_call_names_its_stream_with_four_ints():
    """SeedSequence pads a name with zeros, so a name of three ints is the
    stream of the four-int name ending in 0.  With four ints everywhere, the
    last a member of the one tag table ``Stream``, whose values are
    distinct, two kinds of stream cannot share a name.  Every tag of the
    table names a stream the package draws."""
    calls = [
        node
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if _called(node) == "derive_rng"
    ]
    tags = set()
    for call in calls:
        assert len(call.args) == 4 and not call.keywords, ast.unparse(call)
        assert not any(isinstance(a, ast.Starred) for a in call.args), ast.unparse(call)
        tag = call.args[3]
        assert (
            isinstance(tag, ast.Attribute)
            and isinstance(tag.value, ast.Name)
            and tag.value.id == "Stream"
            and tag.attr in Stream.__members__
        ), ast.unparse(call)
        tags.add(tag.attr)
    assert tags == set(Stream.__members__)
    values = [int(member) for member in Stream.__members__.values()]
    assert len(set(values)) == len(values)


# calls that make a random stream
_STREAM_MAKERS = {"default_rng", "SeedSequence", "PCG64", "Generator"}


def test_only_derive_rng_makes_a_stream():
    """A stream seeded anywhere else could share its name with one that
    derive_rng names: default_rng(seed) is (seed, 0, 0, 0), client 0's
    round-0 batch stream.  So every other function takes its Generator."""
    makers = []
    for path in PACKAGE.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef) and top.name == "derive_rng":
                continue
            makers += [
                f"{path.name}: {ast.unparse(node)}"
                for node in ast.walk(top)
                if _called(node) in _STREAM_MAKERS
            ]
    assert makers == []


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


def test_run_and_compare_reach_a_run_through_one_driver():
    """A comparison row and a run's final row agree because one code path
    makes both: ``build_data`` and ``init_state`` are each called from one
    place in the package, the driver ``cli.run_seeds``, which both commands
    call.  A second path from a config to a run would show up here."""
    calls = []
    for path in PACKAGE.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            calls += [
                (_called(node), path.name, getattr(top, "name", None))
                for node in ast.walk(top)
                if _called(node) in {"build_data", "init_state", "run_seeds"}
            ]
    assert sorted(calls) == [
        ("build_data", "cli.py", "run_seeds"),
        ("init_state", "cli.py", "run_seeds"),
        ("run_seeds", "cli.py", "cmd_compare"),
        ("run_seeds", "cli.py", "cmd_run"),
    ]


def test_only_the_config_calls_the_accountant():
    """The epsilon schedule has one owner: ``ExperimentConfig`` computes a
    run's epsilon after t rounds and the rounds its budget allows, and the
    round loop and ``privacy`` read them there.  So outside dp.py, which
    defines them, only config.py calls ``epsilon_spent`` or
    ``steps_for_budget``: a second caller could charge a round other steps
    than the schedule ``privacy`` prints."""
    calls = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "dp.py":
            continue
        calls |= {
            (path.name, _called(node))
            for node in ast.walk(ast.parse(path.read_text()))
            if _called(node) in {"epsilon_spent", "steps_for_budget"}
        }
    assert calls == {("config.py", "epsilon_spent"), ("config.py", "steps_for_budget")}


# numpy's names and dtype strings for float32
_FLOAT32 = {"float32", "single", "f4", "<f4", "=f4"}
assert all(np.dtype(name) == np.float32 for name in _FLOAT32)


def _names_float32(node: ast.AST) -> bool:
    """A float32 name, bare or as an attribute, or a float32 dtype string."""
    return (
        (isinstance(node, ast.Name) and node.id in _FLOAT32)
        or (isinstance(node, ast.Attribute) and node.attr in _FLOAT32)
        or (isinstance(node, ast.Constant) and node.value in _FLOAT32)
    )


def test_float32_is_named_only_where_the_test_features_are_built():
    """The DP step, the uploads, the aggregate, the server step and the
    accountant run in float64; evaluation alone runs at half width, in the
    dtype of the test features, which ``federation`` builds before round 0
    (``held_test_set``) or in a round's spent uploads (``_evaluate``).
    Both read its one constant, the package's single float32: a float32
    anywhere else would narrow a step whose bytes the DP guarantee and the
    output pins rest on."""
    named = set()
    for path in PACKAGE.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if any(_names_float32(node) for node in ast.walk(top)):
                named.add((path.name, getattr(top, "name", ast.unparse(top))))
    assert named == {("federation.py", "_EVAL_DTYPE = np.float32")}


def test_every_mutants_old_text_occurs_once_in_src():
    """The mutation sweep's list stays applicable: a refactor that moves a
    mutant's text updates ``tests/mutants.py``."""
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert len({m.id for m in MUTANTS}) == len(MUTANTS) == 19
    for mutant in MUTANTS:
        assert sources[mutant.file].count(mutant.old) == 1, mutant.id
        assert sum(text.count(mutant.old) for text in sources.values()) == 1
        assert mutant.new != mutant.old
    assert set(SURVIVORS) <= {m.id for m in MUTANTS}


def test_every_mutants_killer_is_a_test_pytest_collects():
    """The sweep runs each mutant's recorded killer alone first, so each
    names, by its node id, a test that exists and is not a byte pin."""
    killers = sorted({m.killer for m in MUTANTS})
    assert not [k for k in killers if k.startswith(PINS) or k == LIST_CHECK]
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *killers],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert set(killers) <= set(done.stdout.splitlines())


def test_the_sweep_copies_a_tree_that_is_not_a_git_checkout(tmp_path):
    """In a tree with no .git, as ``git archive`` writes one, ``git
    ls-files`` fails, and ``copy_tree`` copies every file but the caches,
    .bench_work/ and the sweep's own mutants.json."""
    kept = ["README.md", "src/dpfedsim/data.py", "tests/mutants.json"]
    left = [
        "mutants.json", ".bench_work/n2.cfg", ".pytest_cache/v/x",
        ".hypothesis/examples/x", "src/dpfedsim/__pycache__/data.pyc",
    ]
    tree = tmp_path / "archive"
    for name in kept + left:
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        (tree / name).write_text(name)
    dest = tmp_path / "copy"
    copy_tree(dest, tree)
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == sorted(kept)
    assert all((dest / name).read_text() == name for name in kept)
