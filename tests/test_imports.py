"""No module of the package reaches into another module's private names,
by `from .mod import _name` or by `mod._name` on an imported module; only
`experiments` decides which seed feeds which stage of a run, and only
`training._maybe_checkpoint` writes files from the trainers; only
`config` calls `validate`, since a RunConfig checks itself when it is
made; only `training.OtDualStep` builds an OT dual screen; only `mdp`
solves or factors a linear system, so every flow solve goes through its
FlowSystem, and only `mdp` names that record (the package re-exports it),
so the policy it is kept on is the only way to reach one; only `training`
calls the restart-chain sampler; `trust_region` imports nothing from `rewards`, so the policy
step reads only the reward matrix the reward step hands it; and no module
imports SciPy at module level, so importing the package or the CLI and
running desk cells (exact WAIL and GAIL, sampled WAIL) load no `scipy`
module, while a cell above DENSE_SOLVE_MAX_STATES states loads
`scipy.sparse` for its sparse LU; no module imports `scipy.spatial` at
all, so every distance comes from `ot.euclidean_distances`."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wail import RunConfig

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


def call_sites(source: str, names: set) -> list:
    """(enclosing function, name) for every call in the source of one of
    `names`, by name or as an attribute; None for a module-level call."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in names:
                found.append((function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def derived_seeds_calls(source: str) -> int:
    """Calls of derived_seeds in the source, by name or as an attribute."""
    return len(call_sites(source, {"derived_seeds"}))


def test_seed_scanner_finds_both_forms():
    source = ("seeds = derived_seeds(1)\ntrain = experiments.derived_seeds(2)['train']\n"
              "f = derived_seeds\n")
    assert derived_seeds_calls(source) == 2


def test_only_experiments_derives_stage_seeds():
    callers = {path.stem for path in sorted(SRC.glob("*.py"))
               if derived_seeds_calls(path.read_text())}
    assert callers == {"experiments"}


def test_only_config_validates_a_run_config():
    # every RunConfig is checked when it is made, so an entry point that
    # checks one again holds a second copy of the rule
    callers = {path.stem for path in sorted(SRC.glob("*.py"))
               if call_sites(path.read_text(), {"validate"})}
    assert callers == {"config"}
    with pytest.raises(ValueError, match="l1"):
        dataclasses.replace(RunConfig(), l1=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        RunConfig().k_max = 3


# The writers a trainer could call, and the only (module, function, writer)
# call sites allowed in the trainers: the per-round checkpoints.
WRITERS = {"save_policy", "save_model", "save"}
CHECKPOINT_WRITES = {("training", "_maybe_checkpoint", "save_policy"),
                     ("training", "_maybe_checkpoint", "save_model")}


def test_call_site_scanner_finds_every_form():
    source = ("save_policy(p, x)\n"
              "def run(log):\n    log.save(d)\n    f = save_model\n"
              "    def inner():\n        rewards.save_model(p, m)\n"
              "class Step:\n    def finish(self):\n        np.save(p, a)\n")
    assert call_sites(source, WRITERS) == [(None, "save_policy"), ("run", "save"),
                                           ("inner", "save_model"), ("finish", "save")]


def test_trainers_write_only_checkpoints():
    # a run's final files are experiments.run_single's to write; the loop
    # sees each round's state, so it alone writes checkpoints/
    found = {(stem, function, name) for stem in ("training", "baselines")
             for function, name in call_sites((SRC / f"{stem}.py").read_text(), WRITERS)}
    assert found == CHECKPOINT_WRITES


def owned_call_sites(source: str, names: set) -> list:
    """call_sites of each top-level statement of the source, as (class or
    function it defines, None for another statement; enclosing function;
    name)."""
    return [(getattr(node, "name", None), function, name) for node in ast.parse(source).body
            for function, name in call_sites(ast.get_source_segment(source, node), names)]


def test_owned_call_site_scanner_finds_every_form():
    source = ("screen = ot.DualScreen()\n"
              "class Step:\n    def __init__(self):\n        self.screen = DualScreen()\n"
              "def fit(screen=None):\n    return screen or DualScreen\n")
    assert owned_call_sites(source, {"DualScreen"}) == [(None, None, "DualScreen"),
                                                        ("Step", "__init__", "DualScreen")]


def test_only_training_samples_the_restart_chain():
    # a round's episodes come from one sampler call in the loop, which
    # hands the gradient its share; another caller would draw a second batch
    callers = {path.stem for path in sorted(SRC.glob("*.py"))
               if call_sites(path.read_text(), {"sample_trajectories"})}
    assert callers == {"training"}


def test_only_the_exact_reward_step_builds_a_dual_screen():
    # a screen pays only over a cost block that later fits pass over again:
    # exact mode's, which OtDualStep keeps for the run
    found = {(path.stem, *site) for path in sorted(SRC.glob("*.py"))
             for site in owned_call_sites(path.read_text(), {"DualScreen"})}
    assert found == {("training", "OtDualStep", "__init__", "DualScreen")}


# Linear-algebra modules and the solver and factorization names in them.
LINALG_MODULES = ("scipy.sparse.linalg", "scipy.linalg", "numpy.linalg")
SOLVER_NAMES = {"solve", "inv", "lu_factor", "lu_solve", "cho_factor", "cho_solve",
                "splu", "spilu", "spsolve", "factorized"}


def linear_solvers(source: str) -> set:
    """Linear-solver uses in the source: any import of a linear-algebra
    module or of a name from one, and any `<...>.linalg.<solver>` access
    such as np.linalg.solve."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.startswith(LINALG_MODULES)}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = {a.name for a in node.names}
            if node.module.startswith(LINALG_MODULES):
                found.add(node.module)
            elif "linalg" in names:
                found.add(f"{node.module}.linalg")
        elif (isinstance(node, ast.Attribute) and node.attr in SOLVER_NAMES
              and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            found.add(f"linalg.{node.attr}")
    return found


def test_solver_scanner_finds_every_form():
    source = ("import scipy.sparse.linalg\nfrom scipy.sparse.linalg import splu\n"
              "from scipy import linalg\nx = np.linalg.solve(a, b)\n"
              "n = np.linalg.norm(x) + np.linalg.eigh(c)[0]\nfrom scipy.sparse import csc_matrix\n")
    assert linear_solvers(source) == {"scipy.sparse.linalg", "scipy.linalg", "linalg.solve"}


def test_only_mdp_solves_flow_systems():
    # assembling I - gamma P_pi needs the transition rows (mdp._rows, kept
    # inside mdp by the private-name rule) and solving it a linear solver,
    # kept inside mdp here: another module that starts factoring fails
    solvers = {path.stem for path in sorted(SRC.glob("*.py"))
               if linear_solvers(path.read_text())}
    assert solvers == {"mdp"}


def names_used(source: str) -> set:
    """Every name the source imports, reads or reads as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found |= {a.name for a in node.names}
    return found


def test_name_scanner_finds_every_form():
    source = ("from .mdp import FlowSystem as F\nx = mdp.OccupancyMeasure\n"
              "def f(a: TabularMdp):\n    pass\n")
    assert {"FlowSystem", "OccupancyMeasure", "TabularMdp"} <= names_used(source)


def test_only_mdp_names_the_flow_record():
    # the oracles find a policy's record on the policy; a module that builds
    # or threads one by hand fails here
    users = {path.stem for path in sorted(SRC.glob("*.py"))
             if "FlowSystem" in names_used(path.read_text())}
    assert users == {"mdp", "__init__"}


def sibling_imports(source: str) -> set:
    """The sibling modules the source imports from, by `from . import mod`
    or by `from .mod import name`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= ({node.module} if node.module else {a.name for a in node.names})
    return found


def test_sibling_scanner_finds_both_forms():
    source = "from . import rewards, ot\nfrom .mdp import FlowSystem\nimport numpy as np\n"
    assert sibling_imports(source) == {"rewards", "ot", "mdp"}


def test_policy_step_does_not_import_rewards():
    # a reward model reaching the policy step would need rewards to turn it
    # into the (S, A) matrix the step reads
    assert "rewards" not in sibling_imports((SRC / "trust_region.py").read_text())


def module_level_imports(source: str, prefix: str) -> list:
    """(line, module) for every import of `prefix` or one of its submodules
    that runs when the source is imported: any outside a function body."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        found.extend((node.lineno, n) for n in names
                     if n == prefix or n.startswith(prefix + "."))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def test_module_level_import_scanner_finds_every_form():
    source = ("import scipy\nimport numpy, scipy.sparse as sp\nfrom scipy.spatial import cdist\n"
              "import scipyx\nfrom . import scipy_like\n"
              "try:\n    from scipy.sparse.linalg import splu\nexcept ImportError:\n    pass\n"
              "class Oracle:\n    from scipy.optimize import linprog\n"
              "    def solve(self):\n        from scipy.optimize import linprog\n"
              "def fit():\n    import scipy.optimize\n")
    assert module_level_imports(source, "scipy") == [
        (1, "scipy"), (2, "scipy.sparse"), (3, "scipy.spatial"), (7, "scipy.sparse.linalg"),
        (11, "scipy.optimize")]


def test_no_module_imports_scipy_at_module_level():
    # SciPy serves the sparse LU above DENSE_SOLVE_MAX_STATES states and
    # the LP oracles; each imports it where it runs,
    # so a run that needs none of them never pays for its import
    found = {(path.stem, *site) for path in sorted(SRC.glob("*.py"))
             for site in module_level_imports(path.read_text(), "scipy")}
    assert found == set()


def imported_modules(source: str) -> set:
    """Every module an import statement of the source names, at any depth;
    `from pkg import name` names both pkg and pkg.name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
            found.update(f"{node.module}.{a.name}" for a in node.names)
    return found


def test_import_scanner_finds_nested_and_from_forms():
    source = ("def f():\n    from scipy import spatial\n"
              "class C:\n    def g(self):\n        import scipy.spatial.distance as d\n"
              "from . import ot\n")
    assert imported_modules(source) == {"scipy", "scipy.spatial", "scipy.spatial.distance"}


def test_no_module_imports_scipy_spatial():
    # cost blocks and the analysis helpers' distances all come from one
    # kernel, ot.euclidean_distances, with cdist's and pdist's bytes
    found = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name in imported_modules(path.read_text())
             if name == "scipy.spatial" or name.startswith("scipy.spatial.")}
    assert found == set()


# Run in a fresh interpreter: the scipy modules loaded after importing the
# package and the CLI, after each desk cell (the bench's desk-exact and
# desk-sampled settings) and after one 30x30 cell, as one JSON object.
SCIPY_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import wail, wail.cli
seen = {"import": loaded()}
for name, config in [("wail-exact", {"algorithm": "wail"}), ("gail-exact", {"algorithm": "gail"}),
                     ("wail-sampled", {"algorithm": "wail", "sampling": "sampled",
                                       "pg_mode": "sampled", "k_max": 50})]:
    wail.run_single(wail.RunConfig(seed=1, **config))
    seen[name] = loaded()
wail.run_single(wail.RunConfig(env={"name": "gridworld", "n": 30}, k_max=2, seed=1))
seen["grid30"] = loaded()
print(json.dumps(seen))
"""


def test_import_and_desk_runs_leave_scipy_unloaded():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent)] + ([path] if path else [])))
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    grid30 = seen.pop("grid30")
    assert seen == {"import": [], "wail-exact": [], "gail-exact": [], "wail-sampled": []}
    # the 30x30 grid (S = 900) factors its flow systems: the lazy branch runs
    assert "scipy.sparse" in grid30 and "scipy.sparse.linalg" in grid30
