import importlib
import inspect
import json
import subprocess
import sys

import tritoep
from tritoep import errors

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
