#!/usr/bin/env python3
"""List the lines of src/ that no scenario and no verify check runs.

Imports diracmech and runs every scenario of ``run_all_scenarios.COMMANDS`` through
``cli.main`` in this process, in CSV and in JSON (the artifacts go to a temporary
directory), then ``verify all``, all under the stdlib's ``sys.settrace``. It prints, for
each module of ``src/diracmech``, the lines never run, and a total. A line is executable
when the compiled module, one of its classes or one of its functions has an instruction on
it. Exits 1 if a run does not exit 0.

    python scripts/line_census.py
"""

import contextlib
import functools
import io
import os
import pathlib
import sys
import tempfile
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src" / "diracmech"
sys.path.insert(0, str(ROOT / "src"))  # this checkout's diracmech, ahead of any installed copy

from run_all_scenarios import COMMANDS  # noqa: E402


def executable_lines(path: pathlib.Path) -> set[int]:
    """The lines of the instructions of the module at ``path``, its classes and functions."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack += [const for const in code.co_consts if isinstance(const, types.CodeType)]
        lines.update(line for _, _, line in code.co_lines() if line)
    return lines


def census_argvs(out_dir: pathlib.Path) -> list[list[str]]:
    """The CLI calls of the census: each scenario in CSV and in JSON, then ``verify all``."""
    return [[command, "--config", str(ROOT / "scenarios" / name),
             "--out", str(out_dir / f"{pathlib.Path(name).stem}.{fmt}"), "--format", fmt]
            for name, command in COMMANDS.items() for fmt in ("csv", "json")] + [["verify", "all"]]


def never_run(argvs) -> tuple[dict[pathlib.Path, tuple[int, list[int]]], list[list[str]]]:
    """Per module of src/diracmech, its count of executable lines and the sorted lines that
    neither the import of diracmech nor the ``cli.main`` calls ran, and the calls that did
    not exit 0. In a process that has imported diracmech already, its module and class
    bodies count as never run."""
    hits = set()
    source = functools.cache(lambda filename: pathlib.Path(filename).resolve().is_relative_to(
        SOURCES))

    def local(frame, event, arg):
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):  # a call's line is the def (or first decorator) line
        return local(frame, event, arg) if source(frame.f_code.co_filename) else None

    failed, previous = [], sys.gettrace()
    sys.settrace(call)
    try:
        from diracmech import cli

        for argv in argvs:
            quiet = io.StringIO()
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                if cli.main(argv) != 0:
                    failed.append(argv)
    finally:
        sys.settrace(previous)
    run = {}
    for filename, line in hits:
        run.setdefault(os.path.realpath(filename), set()).add(line)
    report = {}
    for path in sorted(SOURCES.rglob("*.py")):
        lines = executable_lines(path)
        report[path] = len(lines), sorted(lines - run.get(os.path.realpath(path), set()))
    return report, failed


def spans(lines: list[int]) -> str:
    """1, 2, 3, 5 as "1-3, 5"."""
    runs = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        report, failed = never_run(census_argvs(pathlib.Path(directory)))
    for argv in failed:
        print(f"did not exit 0: {' '.join(argv)}", file=sys.stderr)
    for path, (_, lines) in report.items():
        if lines:
            print(f"{path.relative_to(ROOT)}: {len(lines)} never run: {spans(lines)}")
    total = sum(count for count, _ in report.values())
    print(f"total: {sum(len(lines) for _, lines in report.values())} of {total} "
          "executable lines never run")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
