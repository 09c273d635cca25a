"""Statement census: print every statement of ``src/replan`` that no CLI path runs.

Runs ``replan.cli.main`` in-process under ``sys.settrace`` over these paths, each at
``TRIALS`` trials, in a temporary directory:

- ``run`` over every task and method, with ``--timing``;
- the four ``ablate`` sweeps;
- ``gen-data`` for every task;
- ``run`` from those datasets as ``data_root``, with ``tau`` set, the ``aggregate``
  buffer policy and the ``embedding`` rejection metric;
- ``report --svg --embed-csv`` over the first run.

A statement ran when a line event fired on one of its own lines (a compound statement's
header and decorators, every line of a simple statement), or when a statement nested in
it ran.  Docstrings run no code and are not counted.  The output is one line per
enclosing function (``module.qualname``, or ``module`` at top level) with the line
numbers of its unrun statements, each ``raise`` marked.

Line tracing makes the paths many times slower, so this is a script to run by hand, not
a test:

    python tools/census.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "replan"
TRIALS = 2


def start_tracing() -> dict[str, set[int]]:
    """Record, per file of the package, every line on which a line event fires."""
    hits: dict[str, set[int]] = defaultdict(set)
    prefix = str(PACKAGE)

    def lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(calls)
    return hits


def run_paths() -> None:
    """Every CLI path of the module docstring; a path that exits non-zero stops the census."""
    from replan.cli import main
    from replan.loop import ALL_METHODS, ALL_TASKS, SWEEP_NAMES

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        def cli(*args: object) -> None:
            argv = [str(arg) for arg in args]
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"census: `replan {' '.join(argv)}` exited {code}")

        def experiment(name: str, **fields: object) -> Path:
            path = root / f"{name}.json"
            path.write_text(json.dumps({"trials": TRIALS, **fields}))
            return path

        grid = experiment("grid", tasks=ALL_TASKS, methods=ALL_METHODS)
        cli("run", "--experiment", grid, "--out", root / "grid", "--timing")
        for sweep in SWEEP_NAMES:
            cli("ablate", "--sweep", sweep, "--trials", TRIALS, "--out", root / sweep)
        for task in ALL_TASKS:
            cli("gen-data", "--env", task, "--out", root / "data" / task)
        stored = experiment("stored", tasks=ALL_TASKS, methods=ALL_METHODS, tau=0.5,
                            buffer_policy="aggregate", rejection_metric="embedding",
                            data_root=str(root / "data"))
        cli("run", "--experiment", stored, "--out", root / "stored")
        cli("report", "--in", root / "grid", "--csv", root / "summary.csv",
            "--svg", root / "results.svg", "--embed-csv", root / "embedding.csv")


def is_docstring(body: list[ast.stmt], index: int) -> bool:
    node = body[index]
    return (index == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def own_lines(node: ast.stmt) -> set[int]:
    """A simple statement's lines; a compound one's decorators and header."""
    body = getattr(node, "body", None)
    if not body:
        return set(range(node.lineno, node.end_lineno + 1))
    start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
    return set(range(start, body[0].lineno)) or {node.lineno}


def census(path: Path, hit: set[int]) -> tuple[int, list[tuple[str, int, bool]]]:
    """The number of statements in ``path``, and (enclosing function, line, is a
    ``raise``) for each one that did not run."""
    count, unrun = 0, []

    def visit(body: list[ast.stmt], where: str) -> bool:
        nonlocal count
        any_ran = False
        for i, node in enumerate(body):
            if is_docstring(body, i):
                continue
            count += 1
            inner = where
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{node.name}"
            nested = False
            for field in ("body", "orelse", "finalbody"):
                nested |= visit(getattr(node, field, []), inner)
            for handler in getattr(node, "handlers", []):
                nested |= visit(handler.body, inner)
            for case in getattr(node, "cases", []):
                nested |= visit(case.body, inner)
            ran = nested or bool(own_lines(node) & hit)
            if not ran:
                unrun.append((where, node.lineno, isinstance(node, ast.Raise)))
            any_ran |= ran
        return any_ran

    visit(ast.parse(path.read_text()).body, path.stem)
    return count, unrun


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    hits = start_tracing()
    try:
        run_paths()
    finally:
        sys.settrace(None)

    total, unrun = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        count, missed = census(path, hits.get(str(path), set()))
        total += count
        unrun += sorted(missed, key=lambda record: record[1])
    groups: dict[str, list[str]] = defaultdict(list)
    for where, line, is_raise in unrun:
        groups[where].append(f"{line} (raise)" if is_raise else str(line))
    print(f"{len(unrun)} of {total} statements in src/replan ran on no path")
    for where, lines in groups.items():
        print(f"{where}: {', '.join(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
