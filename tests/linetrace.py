"""Line trace of ``src/matgraph`` under the test suite, stdlib only.

Run the whole suite with this plugin loaded::

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

pytest does not collect this file, and only ``-p linetrace`` loads it, so a
plain ``python -m pytest`` runs untraced. The plugin traces every frame whose
code lives in ``src/matgraph`` and, when the session ends, lists each
statement of the package that never ran. The run fails if one is found that
``ALLOWED`` does not name, or if an entry of ``ALLOWED`` matches no unrun
statement, so the list cannot outlive its reason.

A statement counts as run when any line of its header (for a compound
statement, the lines before its body) produced a line event. Statements
with no bytecode, such as a docstring or ``global``, are not counted. Only
this process is traced: code that runs only in a subprocess the tests
start is not seen.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "matgraph")

# (file in src/matgraph, the statement's first line stripped) -> why it may stay unrun
ALLOWED = {
    ("erroranalysis.py", 'raise CertificationError("bracketing certificate failed to verify")'):
        "self-check of _radius: a correct bisection cannot return a bracket that fails it",
}


class LineTracer:
    """Record the lines of ``src/matgraph`` that run, one set per file."""

    def __init__(self, root: str):
        self.root = os.path.join(os.path.realpath(root), "")
        self.hits: dict[str, set[int]] = {}
        self._files: dict[str, bool] = {}  # co_filename -> is it in the package
        self._local: dict = {}  # code -> its line tracer, or None once every line ran

    def start(self) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def _call(self, frame, event, arg):
        code = frame.f_code
        inside = self._files.get(code.co_filename)
        if inside is None:
            inside = os.path.realpath(code.co_filename).startswith(self.root)
            self._files[code.co_filename] = inside
        if not inside:
            return None
        try:
            return self._local[code]
        except KeyError:
            local = self._local[code] = self._tracer(code)
            return local

    def _tracer(self, code):
        hit = self.hits.setdefault(os.path.realpath(code.co_filename), set())
        left = {line for _, _, line in code.co_lines() if line is not None}

        def local(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                hit.add(line)
                left.discard(line)
                if not left:  # later frames of this code need no tracing
                    self._local[code] = None
            return local

        return local


def executable_lines(code) -> set[int]:
    """Every line number that a code object or a code nested in it runs."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def unrun_statements(path: str, hit: set[int]) -> list[tuple[int, str]]:
    """The (line, stripped first line) of each statement in ``path`` that never ran."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    text = source.splitlines()
    executable = executable_lines(compile(source, path, "exec"))
    unrun = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        header = set(range(first, last + 1))
        if header & executable and not header & hit:
            unrun.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(unrun)


def check(root: str, hits: dict[str, set[int]], allowed) -> tuple[list[str], list[str], list[str]]:
    """Compare the unrun statements under ``root`` with ``allowed``.

    Returns the unrun statements that are not allowed, those that are, and
    the allowed entries that match no unrun statement, each as report lines.
    """
    used = set()
    failing, excused = [], []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(root, name))
        for line, stmt in unrun_statements(path, hits.get(path, set())):
            where = f"src/matgraph/{name}:{line}: {stmt}"
            if (name, stmt) in allowed:
                used.add((name, stmt))
                excused.append(f"{where}  ({allowed[name, stmt]})")
            else:
                failing.append(where)
    stale = [f"{name}: {stmt}" for name, stmt in allowed if (name, stmt) not in used]
    return failing, excused, stale


_TRACER = pytest.StashKey[LineTracer]()
_REPORT = pytest.StashKey[list]()


def pytest_configure(config):
    if "matgraph" in sys.modules:
        raise pytest.UsageError("linetrace must load before matgraph is imported")
    config.stash[_TRACER] = LineTracer(PACKAGE)
    config.stash[_TRACER].start()


def pytest_sessionfinish(session, exitstatus):
    tracer = session.config.stash[_TRACER]
    tracer.stop()
    failing, excused, stale = check(PACKAGE, tracer.hits, ALLOWED)
    report = [f"line trace: {len(failing)} unrun statement(s) of src/matgraph not allowed, "
              f"{len(excused)} allowed, {len(stale)} stale allowlist entr(y/ies)"]
    report += [f"  unrun: {line}" for line in failing]
    report += [f"  allowed: {line}" for line in excused]
    report += [f"  stale allowlist entry: {line}" for line in stale]
    session.config.stash[_REPORT] = report
    if (failing or stale) and session.exitstatus == 0:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    for line in config.stash.get(_REPORT, []):
        terminalreporter.write_line(line)
