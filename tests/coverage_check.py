"""Line coverage of ``src/finslerkit`` under the tier-1 tests, with the standard library only.

It runs the tier-1 suite in this process under a ``sys.settrace`` line tracer that follows
only frames of ``src/finslerkit``.  A line is executable when a code object compiled from
its file maps an instruction to it; it runs when the tracer sees a line event there.
Every executable line that never runs is printed as ``file:line in function: source``.

ALLOWED names the lines known never to run, each by its file, the function that holds it
(``<module>`` at the top level) and its stripped source text, with the reason it is kept.
The check exits non-zero when the tests fail, when an unlisted line never runs, or when a
listed line runs or is gone (the list can only shrink).  pytest does not collect this
file; run it from anywhere as

    python tests/coverage_check.py
"""

from __future__ import annotations

import os
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "finslerkit"

# (file, function, stripped source line) -> why no tier-1 test runs it
ALLOWED: dict[tuple[str, str, str], str] = {
    ("cli.py", "<module>", "sys.exit(main())"):
        "runs only as `python -m finslerkit.cli`; the tests call main() in process",
    ("classifier.py", "_project", "break"):
        "ends the projection when every unconverged seed's slope along its gradient "
        "vanishes; no tier-1 level leads a seed to such a point",
    ("geodesic.py", "polyline_length", "raise"):
        "re-raises when the batch fails but no single segment does; a segment's lane has "
        "the bits of its batch of one, so no known input reaches it",
}


def executable_lines(path: Path) -> dict[int, str]:
    """The lines of ``path`` that some compiled instruction maps to, each with the name
    of the innermost code object (function, class body or ``<module>``) that holds it."""
    lines, stack = {}, [compile(path.read_text(), str(path), "exec")]
    while stack:  # depth first, so a nested code object names its lines last
        code = stack.pop()
        # line None or 0: no source line, such as a module's first instruction
        lines.update((line, code.co_name) for *_, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit status on ``args`` and the lines run in each file of the package."""
    import pytest

    prefix, ours, hits = str(PACKAGE) + os.sep, {}, set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        code = frame.f_code
        if code not in ours:
            ours[code] = os.path.realpath(code.co_filename).startswith(prefix)
        return local if ours[code] else None

    sys.settrace(global_)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    run: dict[Path, set[int]] = {}
    for filename, line in hits:
        run.setdefault(Path(os.path.realpath(filename)), set()).add(line)
    return int(status), run


def main() -> int:
    start = time.perf_counter()
    os.chdir(ROOT)  # tier-1 as the CI runs it, with the repository's pytest settings
    status, run = traced_run(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    if status != 0:
        print(f"the tests exit {status}; coverage is not judged")
        return 1
    problems, allowed_seen, total = [], set(), 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(set(lines) - run.get(path.resolve(), set())):
            key = (path.name, lines[line], source[line - 1].strip())
            print(f"{path.relative_to(ROOT)}:{line} in {key[1]}: {key[2]}")
            if key in ALLOWED:
                allowed_seen.add(key)
            else:
                problems.append(f"{path.name}:{line} never runs and is not allowed")
    for key in sorted(set(ALLOWED) - allowed_seen):
        problems.append(f"allowed line {key[0]} in {key[1]}: {key[2]!r} runs now or is gone; "
                        "remove it")
    for key in sorted(allowed_seen):
        print(f"allowed: {key[0]} in {key[1]}: {key[2]!r}: {ALLOWED[key]}")
    for problem in problems:
        print(f"error: {problem}")
    print(f"{total} executable lines, {len(allowed_seen)} allowed unrun, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
