"""Line census: run pytest in this process under sys.settrace and print
the executable lines of each module in src/cqedkit that no test reached.

Run: python3 scripts/reach_census.py [PYTEST_ARGS ...]

The arguments go to pytest as they are (default: the tests/ directory,
quietly). Only in-process execution is seen: code that a test runs in a
subprocess, such as the package's __main__.py, counts as unreached. The
executable lines of a module are the line numbers of its compiled code
objects, nested functions and comprehensions included. The census prints
one line per module, then the total, and exits with pytest's code.
"""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cqedkit"


def executable_lines(path: Path) -> set[int]:
    code = compile(path.read_text(), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        # a module's code starts with an instruction on line 0
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def spans(lines) -> str:
    """1, 2, 3, 7 -> '1-3, 7'."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}-{b}" if b > a else f"{a}" for a, b in runs)


def main(argv) -> int:
    import pytest

    if any(name == "cqedkit" or name.startswith("cqedkit.") for name in sys.modules):
        raise SystemExit("cqedkit is already imported; its import lines would be missed")
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + os.sep
    reached: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            reached.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        unreached = {line for line in lines if (str(path), line) not in reached}
        total += len(lines)
        missed += len(unreached)
        where = f": {spans(unreached)}" if unreached else ""
        print(f"{path.name}: {len(unreached)} of {len(lines)} unreached{where}")
    print(f"total: {missed} of {total} executable lines unreached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
