import ast
import importlib
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import tritoep
from tritoep import errors, oracle

ROOT = Path(__file__).resolve().parent.parent

# the package attribute ``repunit`` is the function, so the modules come by path
MODULES = [importlib.import_module(f"tritoep.{name}") for name in
           ("core", "cheby", "spectral", "greens", "decay", "conditioning", "repunit")]


def test_package_exports_exactly_the_submodules_public_names():
    # every public name is declared in its module's __all__, imported in the
    # package and listed in the package's __all__: the three must agree
    error_classes = {name for name, obj in vars(errors).items()
                     if inspect.isclass(obj) and issubclass(obj, errors.TriToeplitzError)}
    expected = {"__version__"} | error_classes
    for module in MODULES:
        expected |= set(module.__all__)
    assert len(tritoep.__all__) == len(set(tritoep.__all__))
    assert set(tritoep.__all__) == expected
    for name in tritoep.__all__:
        assert hasattr(tritoep, name)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(tritoep, name) is getattr(module, name)


_FRESH = """
import json, sys
import tritoep
loaded = sorted(m for m in sys.modules if m.startswith("tritoep."))
spectral = tritoep.spectral
names = dir(tritoep)
print(json.dumps({"loaded": loaded, "is_module": spectral is sys.modules["tritoep.spectral"],
                  "determinant": spectral.determinant is tritoep.determinant,
                  "dir": names, "sorted": names == sorted(names)}))
"""


def test_submodule_access_before_its_first_import_and_dir():
    # a fresh process: the suite has already imported every submodule here
    run = subprocess.run([sys.executable, "-c", _FRESH], capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["loaded"] == ["tritoep.core", "tritoep.errors"]
    assert got["is_module"] and got["determinant"] and got["sorted"]
    lazy = {"cheby", "spectral", "greens", "decay", "conditioning", "repunit"}
    assert set(tritoep.__all__) | lazy | {"__version__"} <= set(got["dir"])


def _reads(tree):
    """The names a module loads, as a variable or an attribute, outside the
    definition of the name itself; the strings of an export list are no read."""
    read = set()

    def walk(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, inside | {child.name})
                continue
            name = (child.id if isinstance(child, ast.Name) else
                    child.attr if isinstance(child, ast.Attribute) else None)
            if name is not None and isinstance(child.ctx, ast.Load) and name not in inside:
                read.add(name)
            walk(child, inside)

    walk(tree, frozenset())
    return read


def test_every_public_name_has_a_reader_outside_the_tests():
    # a public name that only its own tests call is code to delete: its
    # readers are the library (the CLI included), the demos, the benchmark
    # and README, which documents the API
    read = set()
    for part in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / part).rglob("*.py")):
            read |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unread = [name for name in (*tritoep.__all__, *oracle.__all__)
              if name not in read and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert unread == [], f"no reader outside tests/: {unread}"


def _assigned(module):
    """The names that a module's own top-level statements assign."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)}


def test_export_table_names_where_each_name_is_defined():
    # the package lists each public name once, under the module that defines
    # it: a function or class of that module, or a constant it assigns, so a
    # name that a module only imports (a re-export) cannot enter the table
    tables = {"core": tritoep.core.__all__, **tritoep._LAZY}
    for module_name, names in tables.items():
        module = importlib.import_module(f"tritoep.{module_name}")
        assigned = _assigned(module)
        for name in names:
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, (module_name, name)
            else:
                assert name in assigned, (module_name, name)
