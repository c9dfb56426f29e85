"""Every name a package module imports is used by that module, every name it
defines at top level is read somewhere in the repository's code, the engine
draws from the environment's own random streams, and no CLI experiment imports
scipy."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bistable_qubit
from bistable_qubit import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bistable_qubit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports
READERS = sorted(p for folder in ("src", "tests", "bench") for p in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression of ``source`` reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_an_unused_import():
    source = "import math\nimport numpy as np\nfrom . import telegraph\nx = np.zeros(1)\n"
    assert unused_imports(source) == ["math", "telegraph"]


def top_level_definitions(source: str) -> list[str]:
    """The functions, classes and constants ``source`` defines at top level, dunders left out."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def names_read(source: str) -> set[str]:
    """Every name ``source`` reads, bare (``name``) or as an attribute (``module.name``)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unread_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` for every top-level definition of ``modules`` that no reader reads."""
    read = set().union(*map(names_read, readers))
    return [f"{module}.{name}" for module, source in modules.items()
            for name in top_level_definitions(source) if name not in read]


def test_every_definition_is_read():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8") for p in READERS]
    assert unread_definitions(modules, readers) == []


def test_guard_flags_an_unread_definition():
    module = "X = 1\n_Y: int = 2\n__all__ = []\ndef used():\n    return X\ndef unused():\n    pass\nclass Unused:\n    pass\n"
    reader = "import m\nm.used()\nm.Unused = None\n"
    assert unread_definitions({"m": module}, [module, reader]) == ["m._Y", "m.unused", "m.Unused"]


def functions_taking(source: str, parameter: str) -> list[str]:
    """Every function and method of ``source``, nested ones included, with a parameter named ``parameter``."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and parameter in {a.arg for a in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)}]


# The environment owns the replica's random streams: a cycle, a run or a CLI
# runner draws from the environment.  Only the builder that hands a generator
# to an environment and the stateless sequence draw take one.
@pytest.mark.parametrize("module, takers", [("protocol", ["make_environment"]),
                                            ("benchmarking", ["random_sequence"]),
                                            ("cli", [])])
def test_only_the_environment_builder_and_stateless_draws_take_a_generator(module, takers):
    assert functions_taking((PACKAGE / f"{module}.py").read_text(encoding="utf-8"), "rng") == takers


def test_guard_flags_a_generator_parameter():
    source = "def f(rng):\n    pass\nclass C:\n    def m(self, x, *, rng=None):\n        pass\ndef g(x):\n    pass\n"
    assert functions_taking(source, "rng") == ["f", "m"]


# A CLI process imports only what its experiment runs: the package owns its
# fit solver, so no experiment, fits included, pays for importing scipy.
NO_SCIPY = """
import json, sys, tempfile
import bistable_qubit.cli as cli
loaded = ["import"] if "scipy" in sys.modules else []
for doc in json.loads(sys.argv[1]):
    with tempfile.TemporaryDirectory() as out:
        assert cli.run(cli.parse_config(json.dumps(dict(doc, out_dir=out)))) == 0, doc
    if "scipy" in sys.modules:
        loaded.append(doc["experiment"])
print(json.dumps(loaded))
"""
TINY_RUNS = [  # every experiment at a small size; mitigate and rb fit
    {"experiment": "mitigate", "seed": 1, "tls": {"gamma_hl_hz": 5e4, "gamma_lh_hz": 5e4},
     "mitigate": {"rows": 2, "n_tau": 8, "n_reps": 2}},
    {"experiment": "rb", "seed": 2, "tls": {"gamma_hl_hz": 1e4, "gamma_lh_hz": 1e4},
     "rb": {"depths": [1, 4, 16, 64], "n_sequences": 4, "shots_per_sequence": 2}},
    {"experiment": "ramsey", "seed": 3, "ramsey": {"n_tau": 4, "shots": 4}},
    {"experiment": "syndrome-sweep", "seed": 4, "syndrome_sweep": {"n_cycles": 100}},
    {"experiment": "heatmap", "seed": 5, "heatmap": {"n_splitting": 3, "n_switching": 3}},
    {"experiment": "perr", "seed": 6},
    {"experiment": "ak", "seed": 7, "ak": {"n_t": 5, "n_trajectories": 100}},
]


def test_no_experiment_imports_scipy():
    assert sorted(doc["experiment"] for doc in TINY_RUNS) == sorted(cli.EXPERIMENTS)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(TINY_RUNS)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []  # the steps after which scipy was loaded


def test_project_version_is_the_package_version():
    # A regex, not tomllib: the package supports Python 3.10, whose standard library has no TOML reader.
    found = re.findall(r'^version = "([^"]*)"$', (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    assert found == [bistable_qubit.__version__]
