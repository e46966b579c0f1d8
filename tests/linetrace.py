"""List the executable lines of ``src/tritoep`` that the test suite never runs.

Runs pytest in this process under ``sys.settrace`` (the standard library
only) and prints, per module, every line that the compiler marks executable
and that no test reached, as ``path: 3, 7-9``.  It reports whatever the
tests' outcome: under tracing the timing budgets of the acceptance tests may
fail.  Lines run only in a child process (``__main__.py``, a fresh
interpreter's package imports) show as unreached.

With ``--check`` it compares the unreached lines with ``ALLOWED`` and exits 1
on an unreached line that is not on it, or on a listed line that now runs.

    python tests/linetrace.py                  # the whole of tests/
    python tests/linetrace.py --check          # the whole of tests/, against ALLOWED
    python tests/linetrace.py tests/test_core.py -k Grid
"""

import os
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tritoep"

# The executable lines that no test under tests/ runs, and why each stays:
# (module, its source line stripped), so that a line moving does not matter.
# A text that a module holds twice stands for one unreached line per entry.
ALLOWED = (
    # the five TYPE_CHECKING imports
    ("cli.py", "import numpy as np"),
    ("conditioning.py", "import numpy as np"),
    ("core.py", "import numpy as np"),
    ("repunit.py", "from fractions import Fraction"),
    ("spectral.py", "import numpy as np"),
    # python -m tritoep, run only in a child process
    ("__main__.py", "import sys"),
    ("__main__.py", "from .cli import main"),
    ("__main__.py", 'if __name__ == "__main__":'),
    ("__main__.py", "sys.exit(main())"),
    # cli._decimal on Python < 3.10.7, which has no limit on int-to-str digits
    ("cli.py", "return str(value)"),
    # cli.main's closed-pipe exit, run only in a child process
    # (test_closed_pipe_exits_one_quietly)
    ("cli.py", "except BrokenPipeError:"),
    ("cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"),
    ("cli.py", "return 1"),
    # the package's submodule lookup and __dir__ in a fresh process, pinned there
    ("__init__.py", "return _submodule(name)"),
    ("__init__.py", "return sorted(set(globals()) | set(__all__) | set(_LAZY))"),
    # build_kernel's refusal when U_n disagrees with eval_U_scaled: the
    # Wronskian identity holds for any gamma, so only this check tests gamma
    ("greens.py", 'raise SingularMatrix(f"kernel self-check failed: log|U_n(x)| = "'),
    ("greens.py", 'f"{wronskian.log_mag!r} against {ref.log_mag!r} from "'),
)


def executable_lines(path: Path) -> set:
    """The line numbers that carry bytecode in the module and every code object in it."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # line 0 is the module's own start, before its first line
        lines.update(line for *_, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines) -> str:
    """Sorted line numbers as runs, "3, 7-9"."""
    runs = []
    for line in sorted(lines):
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(args) -> int:
    import pytest

    check = "--check" in args
    args = [a for a in args if a != "--check"]
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    seen = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in seen else None

    # the package for this process and for the tests' child processes
    sys.path.insert(0, str(PACKAGE.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total, unreached = 0, Counter()
    for name, path in files.items():
        missed = executable_lines(path) - seen[name]
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {ranges(missed)}")
            source = path.read_text().splitlines()
            unreached.update((path.name, source[line - 1].strip()) for line in missed)
    print(f"{total} executable lines of {PACKAGE.relative_to(ROOT)} never ran "
          f"(pytest exit status {int(status)})")
    if not check:
        return 0
    for (name, text), count in sorted((unreached - Counter(ALLOWED)).items()):
        print(f"not allow-listed, never ran: {name}: {text} (x{count})")
    for (name, text), count in sorted((Counter(ALLOWED) - unreached).items()):
        print(f"allow-listed, now runs: {name}: {text} (x{count})")
    if unreached != Counter(ALLOWED):
        return 1
    print(f"all {total} on the allow-list")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
