"""No module of the package reaches into another module's private names,
by `from .mod import _name` or by `mod._name` on an imported module; and
only `experiments` decides which seed feeds which stage of a run."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wail"

# (importing module, imported module, name) pairs exempt from the rule.
ALLOWED = set()


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(source: str) -> set:
    """(module, name) for every private name of a sibling module that the
    source imports or reads as an attribute of an imported sibling."""
    tree = ast.parse(source)
    siblings, found = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        for alias in node.names:
            if node.module is None:            # from . import mod
                siblings.add(alias.asname or alias.name)
            elif _private(alias.name):         # from .mod import _name
                found.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            found.add((node.value.id, node.attr))
    return found


def test_scanner_finds_both_forms():
    source = ("from . import ot\nfrom .training import _policy_batch, RunLog\n"
              "x = ot._clamp_events + ot.__name__\n")
    assert private_imports(source) == {("training", "_policy_batch"), ("ot", "_clamp_events")}


def test_no_module_imports_a_private_name():
    found = {(path.stem, module, name) for path in sorted(SRC.glob("*.py"))
             for module, name in private_imports(path.read_text())}
    assert found - ALLOWED == set()
    assert ALLOWED <= found, "an allowed import is gone; remove it from ALLOWED"


def derived_seeds_calls(source: str) -> int:
    """Calls of derived_seeds in the source, by name or as an attribute."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            count += name == "derived_seeds"
    return count


def test_seed_scanner_finds_both_forms():
    source = ("seeds = derived_seeds(1)\ntrain = experiments.derived_seeds(2)['train']\n"
              "f = derived_seeds\n")
    assert derived_seeds_calls(source) == 2


def test_only_experiments_derives_stage_seeds():
    callers = {path.stem for path in sorted(SRC.glob("*.py"))
               if derived_seeds_calls(path.read_text())}
    assert callers == {"experiments"}
