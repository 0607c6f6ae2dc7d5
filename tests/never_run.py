"""Count the statement lines of src/ that the tier-1 tests never run.

    python tests/never_run.py [pytest arguments; default: the tests directory]

Run from anywhere; the repository root and src/ go on sys.path. The tier-1
suite runs in this process under sys.settrace (no coverage package needed),
so code run only in a subprocess counts as never run. Each module of
src/archipelago is imported and parsed before the tests start, so an edit to
src/ during the run cannot shift the lines it reports. Hypothesis draws from
the fixed seed HYPOTHESIS_SEED, so two runs of one tree list the same lines.
It takes a few minutes. For each module of src/archipelago the script prints its
executable statement lines, how many of them never ran, and their numbers,
then the totals.

A statement line is the first line of an `ast` statement, less docstrings
and `def`, `class`, import and `nonlocal` lines. A statement ran when a line
event fell on its first line, or on any of its lines for a statement with
no body of its own (a call or expression split over several lines may
start its bytecode below its first line).
"""

from __future__ import annotations

import ast
import importlib
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "archipelago"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SKIPPED = (*DEFINITIONS, ast.Import, ast.ImportFrom, ast.Nonlocal)
HYPOTHESIS_SEED = 0


def statement_spans(path: Path) -> dict[int, range]:
    """First line of each executable statement -> the lines that show it ran."""
    tree = ast.parse(path.read_text())
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEFINITIONS)) and ast.get_docstring(node, clean=False) is not None:
            docstrings.add(id(node.body[0]))
    spans: dict[int, range] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and not isinstance(node, SKIPPED) and id(node) not in docstrings:
            simple = not hasattr(node, "body")
            last = node.end_lineno if simple else node.lineno
            spans.setdefault(node.lineno, range(node.lineno, last + 1))
    return spans


def main(args: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    spans: dict[str, dict[int, range]] = {}
    hits: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        # imported under the tracer, which sees the module-level statements run
        for name, path in files.items():
            importlib.import_module("archipelago" if path.stem == "__init__" else f"archipelago.{path.stem}")
            spans[name] = statement_spans(path)
        status = pytest.main(["-q", "-p", "no:cacheprovider", f"--hypothesis-seed={HYPOTHESIS_SEED}",
                              *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for name, path in files.items():
        never = sorted(line for line, span in spans[name].items() if hits[name].isdisjoint(span))
        total += len(spans[name])
        missed += len(never)
        print(f"{path.relative_to(ROOT)}: {len(spans[name])} executable, {len(never)} never run", *never)
    print(f"total: {total} executable statement lines, {missed} never run (pytest exit {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
