#!/usr/bin/env python3
"""Print each executable line of a function in src/signrank that no report
digest case reaches.

Runs every (corpus, variant) case of scripts/report_digests.py in this one
process under sys.settrace, tracing only frames whose code lies in
src/signrank, then prints every line of a function body that none of them
executed, as `path:line: source`, and a count.  A branch that no corpus
graph reaches should be deleted, or get a test that reaches it; this lists
the candidates.  Lines reached only by the test suite are listed too.
Last, it prints the line count of src/signrank/*.py (as `wc -l` counts
them), the size figure to watch alongside.

    python3 scripts/unreached.py

It takes about 80 s on a 2-CPU host.  Standard library only; not part of
the test suite.
"""

from __future__ import annotations

import dis
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "signrank"


def function_lines(path: Path) -> set[int]:
    """The lines that the functions of a module execute, def lines left out;
    module-level and class-body code is not a function."""
    lines: set[int] = set()
    codes = [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines |= {line for _, line in dis.findlinestarts(code)
                      if line is not None and line != code.co_firstlineno}
    return lines


def main() -> int:
    reached: set[tuple[str, int]] = set()
    prefix = str(PACKAGE)

    def line_events(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return line_events

    def calls(frame, event, arg):
        return line_events if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "scripts"))
    sys.settrace(calls)
    try:
        import report_digests       # puts src/ first on sys.path

        for corpus, variant in report_digests.cases():
            report_digests.entry(corpus, variant)
    finally:
        sys.settrace(None)
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        total += len(source)
        for line in sorted(function_lines(path)):
            if (str(path), line) not in reached:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} function lines in src/signrank reached by no digest case")
    print(f"{total} lines in src/signrank/*.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
