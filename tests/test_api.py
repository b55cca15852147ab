"""The package's public surface is pinned, so a name cannot join or leave
it unnoticed."""

import ast
from pathlib import Path

import uplinksim

PUBLIC = [
    "Cell", "ConfigError", "DelayStats", "EventLog", "InvariantError",
    "MetricsRecord", "Outcome", "POLICY_NAMES", "Request", "Scenario",
    "SchedulerDecision", "ServiceClass", "SubscriberStation", "TrafficSpec",
    "canonical_scenario", "claim_value", "compute_metrics", "hedf_decide",
    "make_request", "run", "simulate", "ssbpf_priority",
    "starvation_scenario", "update_historical_throughput",
    "validate_scenario",
]


def test_public_names_pinned():
    assert sorted(uplinksim.__all__) == sorted(PUBLIC)
    assert len(set(uplinksim.__all__)) == len(uplinksim.__all__)


def test_every_public_name_imports():
    namespace = {}
    exec("from uplinksim import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(uplinksim, name)


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "uplinksim"
PERFBENCH = ROOT / "perfbench"


def top_level_names(tree):
    """The functions, classes and constants a module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def used_names(tree):
    """Every name a module reads, as a variable, an attribute or a string
    (perfbench looks functions up by name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def src_trees_and_names_read():
    """The parsed modules of src/, and every name read in src/ or
    perfbench/."""
    trees = {path: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert trees
    used = {name for tree in trees.values() for name in used_names(tree)}
    for path in sorted(PERFBENCH.glob("*.py")):
        used.update(used_names(ast.parse(path.read_text())))
    return trees, used


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_defined_name_is_used():
    # No unused helpers: each top-level name in src/ is used in src/, is
    # public, or is looked up by the benchmark. Imports are not uses.
    trees, used = src_trees_and_names_read()
    unused = sorted(
        f"{path.stem}.{name}" for path, tree in trees.items()
        for name in top_level_names(tree)
        if name not in used and name not in uplinksim.__all__
        and not is_dunder(name))
    assert unused == []


def test_every_method_is_called():
    # No surface kept only for tests: each method of a class in src/,
    # properties included, is read by name in src/ or by the benchmark.
    # Dunder methods are called by the language, not by name.
    trees, used = src_trees_and_names_read()
    uncalled = sorted(
        f"{path.stem}.{cls.name}.{node.name}"
        for path, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef)
        and node.name not in used and not is_dunder(node.name))
    assert uncalled == []


def test_no_unused_imports():
    # Each name a module in src/ imports, at any level, is read in that
    # module. __init__.py is exempt: its imports are the re-exports.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused.extend(
                    f"{path.stem}.{name}" for name in (
                        a.asname or a.name.split(".")[0] for a in node.names)
                    if name not in read)
    assert unused == []
