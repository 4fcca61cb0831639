"""No kvlatent module reaches into another module's private names.

A leading underscore marks a name its module may change at will. A module
that needs such a name from another asks that module for a public one, so
each private name keeps one owner.

Only the dense references the tests compare against take an SVD: the
pipeline factors a layer from its Gram matrices, so a call to linalg.svd
anywhere else would be a second factorization path.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kvlatent"
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(node: ast.ImportFrom) -> str | None:
    """The kvlatent module `from <module> import ...` names, or None."""
    if node.level == 1 and node.module in MODULES:
        return node.module
    prefix, _, module = (node.module or "").partition(".")
    if node.level == 0 and prefix == "kvlatent" and module in MODULES:
        return module
    return None


def foreign_private_uses(path: Path) -> list[str]:
    """`file:line module.name` for each private name of another kvlatent
    module that `path` imports or reads as a module attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {}  # local name -> the kvlatent module it is bound to
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            owner = _sibling(node)
            package = (node.level == 1 and node.module is None) or node.module == "kvlatent"
            for alias in node.names:
                if package and alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
                elif owner not in (None, path.stem) and _private(alias.name):
                    uses.append((node.lineno, f"{owner}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                prefix, _, module = alias.name.partition(".")
                if prefix == "kvlatent" and module in MODULES and alias.asname:
                    modules[alias.asname] = module
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and modules.get(node.value.id, path.stem) != path.stem
                and _private(node.attr)):
            uses.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return [f"{path.name}:{line} {name}" for line, name in sorted(uses)]


def test_the_package_has_modules():
    assert {"cli", "manifest", "ctf"} <= MODULES


def test_no_module_uses_another_modules_private_names():
    uses = [use for path in sorted(SRC.glob("*.py")) for use in foreign_private_uses(path)]
    assert uses == []


def test_the_check_finds_each_form_of_use(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text(
        "from . import ctf, manifest as m\n"
        "from .linalg import _helper, public\n"
        "from kvlatent.scheduler import _rule\n"
        "import kvlatent.rng as r\n"
        "from .cli import _own\n"
        "m._load_tensor(ctf.MAGIC, r._key, ctf.__name__)\n"
        "_own()\n"
    )
    assert foreign_private_uses(path) == [
        "cli.py:2 linalg._helper",
        "cli.py:3 scheduler._rule",
        "cli.py:6 manifest._load_tensor",
        "cli.py:6 rng._key",
    ]


# The only functions under src/ that may call linalg.svd.
SVD_REFERENCES = {"factorizer.py whitened_svd", "scheduler.py whitened_spectrum"}


def svd_callers(path: Path) -> list[str]:
    """`file:line function` for each call in `path` of kvlatent's linalg.svd,
    by module attribute or by imported name; `<module>` outside any function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, names = set(), set()  # local names of linalg, and of its svd
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling(node) == "linalg":
            names |= {alias.asname or alias.name for alias in node.names if alias.name == "svd"}
        elif isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module is None) or node.module == "kvlatent"):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "linalg"}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names
                        if alias.name == "kvlatent.linalg" and alias.asname}

    calls = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if ((isinstance(func, ast.Attribute) and func.attr == "svd"
                 and isinstance(func.value, ast.Name) and func.value.id in modules)
                    or (isinstance(func, ast.Name) and func.id in names)):
                calls.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return [f"{path.name}:{line} {function}" for line, function in sorted(calls)]


def test_only_the_dense_references_call_svd():
    callers = {f"{path.name} {caller.split()[1]}"
               for path in sorted(SRC.glob("*.py")) for caller in svd_callers(path)}
    assert callers == SVD_REFERENCES


def test_the_svd_check_finds_each_form_of_call(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text(
        "import numpy as np\n"
        "import kvlatent.linalg as la\n"
        "from . import linalg\n"
        "from .linalg import svd as dense\n"
        "linalg.svd(0)\n"
        "def f(w):\n"
        "    return np.linalg.svd(w), la.svd(w)\n"
        "class A:\n"
        "    def g(self, w):\n"
        "        return dense(w)\n"
    )
    assert svd_callers(path) == ["cli.py:5 <module>", "cli.py:7 f", "cli.py:10 g"]


def cli_import_loads(module: str) -> bool:
    """Whether `import kvlatent.cli` in a fresh interpreter loads `module`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    code = f"import sys, kvlatent.cli; print({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return done.stdout.strip() == "True"


def test_importing_the_cli_loads_no_numpy_random():
    # Only gen and eval draw, so the other stages' subprocesses
    # should not pay for numpy.random's import.
    assert not cli_import_loads("numpy.random")


def test_importing_the_cli_loads_no_concurrent_futures():
    # Only gen draws on threads, and it imports the pool itself.
    assert not cli_import_loads("concurrent.futures")
