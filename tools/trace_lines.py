"""Print the function statements of src/movkit that a run never executes.

Two runs can be traced, each in this one process, with ``src/`` first on
``sys.path``:

    python3 tools/trace_lines.py tests [PYTEST_ARGS...]   # pytest -q on tests/
    python3 tools/trace_lines.py bench --seed 5           # one pass of each workload

``tests`` runs the test suite through ``pytest.main`` (extra arguments go
to pytest). ``bench`` sets up each workload of ``perfbench/workloads.py``
from the seed, untraced, and then traces one pass of its ops; perfbench is
imported, never changed. Tests that start a subprocess run it untraced.

Lines are recorded with ``sys.settrace`` and ``threading.settrace``, for
code in src/movkit only. A statement inside a function body counts as run
when a line event fired on one of its own lines: all of a simple
statement's, and a compound statement's header up to its body.
Docstrings, module-level and class-level statements, ``try``, ``else``
and ``finally`` headers are left out. For each module the script prints
how many function statements never ran, then each with its line, its
function and its first line of source.

Tracing slows a run several times over (the test suite 3 to 4 times), so
the ``tests`` run is meant to be run by hand; CI prints the ``bench`` run,
which takes a few seconds. Either run exits non-zero when a test or a
benchmark check fails.
"""

import argparse
import ast
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "movkit"


def own_lines(node: ast.stmt) -> range:
    """The lines of ``node`` that run as the statement itself: all of a
    simple statement, and a compound one's lines before its first child."""
    first = node.lineno
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
            and node.decorator_list:
        first = min(decorator.lineno for decorator in node.decorator_list)
    children = [child.lineno for field in ("body", "orelse", "handlers", "finalbody")
                for child in getattr(node, field, ())]
    return range(first, min(children) if children else node.end_lineno + 1)


def is_docstring(body: list, node: ast.stmt) -> bool:
    """Whether ``node`` is the docstring that opens ``body``."""
    return node is body[0] and isinstance(node, ast.Expr) \
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def function_statements(path: Path) -> list[tuple[str, ast.stmt]]:
    """(function name, statement) for each statement inside a function body
    of the module at ``path``, docstrings and ``try`` headers left out."""
    found = []

    def visit(body: list, function):
        for node in body:
            defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            if function is not None and not is_docstring(body, node) \
                    and not isinstance(node, ast.Try):
                found.append((function, node))
            inner = node.name if defines else function
            if isinstance(node, ast.ClassDef) and function is None:
                inner = None  # class-level statements run on import
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), inner)
            for handler in getattr(node, "handlers", ()):
                visit(handler.body, inner)

    visit(ast.parse(path.read_text()).body, None)
    return found


class LineTracer:
    """Records (file, line) of every line event in a src/movkit file."""

    def __init__(self):
        self.prefix = str(PACKAGE)
        self.seen = defaultdict(set)

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        lines = self.seen[filename]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def start(self) -> None:
        threading.settrace(self)
        sys.settrace(self)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


def report(seen: dict) -> None:
    for path in sorted(PACKAGE.glob("*.py")):
        ran = seen.get(str(path), set())
        source = path.read_text().splitlines()
        statements = function_statements(path)
        missed = [(function, node) for function, node in statements
                  if ran.isdisjoint(own_lines(node))]
        print(f"movkit/{path.name}: {len(missed)} of {len(statements)} function statements"
              " never ran")
        for function, node in missed:
            print(f"  {node.lineno:5d}  {function}: {source[node.lineno - 1].strip()}")


def trace_tests(pytest_args: list[str]) -> int:
    import pytest

    tracer = LineTracer()
    tracer.start()
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *pytest_args])
    finally:
        tracer.stop()
    report(tracer.seen)
    return int(status)


def trace_bench(seed: int) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as perfbench

    workloads, tracer, failed = perfbench.load_workloads(), LineTracer(), 0
    for name in perfbench.WORKLOAD_NAMES:
        checker = perfbench.Checker()
        with tempfile.TemporaryDirectory() as workdir:
            workload = workloads.WORKLOADS[name]()
            workload.setup(seed, Path(workdir))
            tracer.start()
            try:
                perfbench.run_pass(workload.ops, checker)
            finally:
                tracer.stop()
        print(f"{name}: {checker.attempted} ops, {checker.failed} failed,"
              f" {len(checker.problems)} failed checks")
        failed += len(checker.problems)
    report(tracer.seen)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    modes.add_parser("tests", help="trace pytest -q on tests/")
    bench = modes.add_parser("bench", help="trace one pass of each benchmark workload")
    bench.add_argument("--seed", type=int, default=1)
    args, rest = parser.parse_known_args(argv)
    if args.mode == "bench" and rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    sys.path.insert(0, str(SRC))
    return trace_tests(rest) if args.mode == "tests" else trace_bench(args.seed)


if __name__ == "__main__":
    sys.exit(main())
