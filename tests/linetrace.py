"""A pytest plugin that fails the run when the tests leave an executable
line of ``src/ddce`` unrun.

It traces with the stdlib ``sys.settrace``, so it needs nothing beyond
pytest. Tracing makes the suite about twice as slow, so the plain
tier-1 command leaves it out; run it over the whole suite with:

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

The executable lines of a file are the line numbers that ``co_lines()``
gives for its code objects, compiled from source. A line counts as run
when a trace event reports it. ``ALLOWED`` names the lines that may stay
unrun, by file and stripped source text.
"""

import os
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ddce"
# Lines that no in-process test can run: the module guard's call only runs
# when cli.py is executed as a script.
ALLOWED = {("cli.py", "sys.exit(main())")}

_files = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}
_tracers: dict = {}  # co_filename -> its line tracer, or None when not traced


def _line_tracer(lines: set):
    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    try:
        return _tracers[filename]
    except KeyError:
        lines = _files.get(os.path.realpath(filename))
        tracer = _tracers[filename] = None if lines is None else _line_tracer(lines)
        return tracer


def _executable_lines(path: str) -> set:
    lines = set()
    stack = [compile(Path(path).read_text(encoding="utf-8"), path, "exec")]
    while stack:
        code = stack.pop()
        # co_lines() maps some instructions to no line (None) or, on 3.11,
        # to line 0; neither is a source line.
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def unrun_lines() -> tuple[list[tuple[str, int, str]], set]:
    """(file name, line, stripped source) of each executable line that no
    trace event reported and that ``ALLOWED`` does not name, and the
    entries of ``ALLOWED`` that name no such line."""
    unrun, allowed = [], set()
    for path, run in _files.items():
        source = Path(path).read_text(encoding="utf-8").splitlines()
        name = Path(path).name
        for line in sorted(_executable_lines(path) - run):
            text = source[line - 1].strip()
            if (name, text) in ALLOWED:
                allowed.add((name, text))
            else:
                unrun.append((name, line, text))
    return unrun, ALLOWED - allowed


# conftest.py imports ddce before any pytest_configure hook runs, so the
# trace starts when pytest loads this plugin.
sys.settrace(_trace)
_report: list[str] = []


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session):
    sys.settrace(None)
    unrun, stale = unrun_lines()
    _report.extend(f"unrun: {name}:{line}: {text}" for name, line, text in unrun)
    _report.extend(f"allow-list entry names no unrun line: {name}: {text}"
                   for name, text in sorted(stale))
    if _report and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("line trace of src/ddce")
    for line in _report or ["every executable line ran, apart from the allow-list"]:
        terminalreporter.write_line(line)
