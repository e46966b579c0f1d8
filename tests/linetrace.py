"""List the executable lines of ``src/tritoep`` that the test suite never runs.

Runs pytest in this process under ``sys.settrace`` (the standard library
only) and prints, per module, every line that the compiler marks executable
and that no test reached, as ``path: 3, 7-9``.  It reports whatever the
tests' outcome: under tracing the timing budgets of the acceptance tests may
fail.  Lines run only in a child process (``__main__.py``, a fresh
interpreter's package imports) show as unreached.

    python tests/linetrace.py                  # the whole of tests/
    python tests/linetrace.py tests/test_core.py -k Grid
"""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tritoep"


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


def main(args) -> None:
    import pytest

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
    total = 0
    for name, path in files.items():
        missed = executable_lines(path) - seen[name]
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {ranges(missed)}")
    print(f"{total} executable lines of {PACKAGE.relative_to(ROOT)} never ran "
          f"(pytest exit status {int(status)})")


if __name__ == "__main__":
    main(sys.argv[1:])
