#!/usr/bin/env python3
"""Print each function in src/webrank that no CLI job enters.

    python3 benchmarks/reachability.py

Sets a sys.settrace call hook before `webrank` is imported, then runs the
96 jobs of `benchmarks/report_matrix.py` (in-process, `--format json`, from
the checkout's root, as that script runs them) plus `counts` and `catalog`
through `webrank.cli.main`.  Every function and method defined in
`src/webrank` whose code the hook never saw is printed as
`module.qualname  path:line`; lambdas and comprehensions are left out.  The
last line counts them.  The traced run takes a few times the matrix's own
time.
"""

from __future__ import annotations

import contextlib
import importlib.util
import inspect
import io
import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "webrank"
MATRIX = ROOT / "benchmarks" / "report_matrix.py"
EXTRA_JOBS = [["counts", "--k0", "4", "--n", "6"], ["catalog"]]


def _key(code: types.CodeType) -> tuple[str, int, str]:
    return str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_qualname


def defined_functions() -> dict[tuple[str, int, str], str]:
    """{(file, first line, qualname): "module.qualname"} of every function
    and method in src/webrank, nested ones included."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), str(path.resolve()), "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                stack.append(const)
                function = const.co_flags & inspect.CO_OPTIMIZED
                if function and not const.co_name.startswith("<"):
                    out[_key(const)] = f"{path.stem}.{const.co_qualname}"
    return out


def entered(select_jobs) -> set[tuple[str, int, str]]:
    """Keys of the code the jobs enter.  The hook is set before the report
    matrix is loaded, so a first import of webrank is traced too;
    select_jobs maps the loaded matrix module to the argv lists to run."""
    seen = {}

    def hook(frame, event, arg):
        seen[id(frame.f_code)] = frame.f_code

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        spec = importlib.util.spec_from_file_location("report_matrix", MATRIX)
        matrix = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(matrix)  # imports webrank from src/
        with contextlib.redirect_stderr(io.StringIO()):
            for job in select_jobs(matrix):
                matrix.report_text(job)
    finally:
        sys.settrace(previous)
    return {_key(code) for code in seen.values()}


def main() -> int:
    os.chdir(ROOT)  # the matrix's fixtures are relative to the checkout
    functions = defined_functions()
    reached = entered(lambda matrix: [*matrix.jobs(), *EXTRA_JOBS])
    missed = sorted(
        (name, key) for key, name in functions.items() if key not in reached
    )
    for name, (path, line, _) in missed:
        print(f"{name}  {Path(path).relative_to(ROOT)}:{line}")
    print(f"{len(missed)} of {len(functions)} functions never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
