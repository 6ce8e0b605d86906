"""List the lines of src/pfalab that no entry point runs.

Run from the repository root (pytest does not collect this file):

    python tests/audit_lines.py

A stdlib sys.settrace collector records which lines of src/pfalab run,
in this one process, while

* every pfalab command of tests/entry_points.py, which CI runs, runs
  through cli.main with its checks, the bad-input ones included, and
* each benchmark workload of perfbench/workloads.py runs one toy-sized
  pass.

A file's executable lines are the line numbers that co_lines() gives
for its compiled code objects.  Tier-1 (pytest tests/) then runs under
the same collector.  The script prints each executable line that no
entry point ran, marked "tests" when the suite runs it and "nothing"
when it does not.  Pytest's own output goes to stderr.  The script
exits 1 if an entry point's check fails.
"""

from __future__ import annotations

import sys
import tempfile
from collections import defaultdict
from contextlib import redirect_stdout
from pathlib import Path

import entry_points

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pfalab"


def executable_lines(path: Path) -> set[int]:
    lines = set()
    codes = [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class Collector:
    """Lines run per file of the package, by (file name, line)."""

    def __init__(self):
        self.ran: dict[str, set[int]] = defaultdict(set)
        self._prefix = str(PACKAGE) + "/"
        self._pending: dict[object, set[int]] = {}

    def _call(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self._prefix):
            return None
        pending = self._pending.get(code)
        if pending is None:
            pending = {line for _, _, line in code.co_lines() if line}
            self._pending[code] = pending
        ran = self.ran[code.co_filename]
        ran.add(frame.f_lineno)
        pending.discard(frame.f_lineno)
        if not pending:
            return None  # every line of this code object has run

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
                pending.discard(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)

    def snapshot(self) -> dict[str, set[int]]:
        return {name: set(lines) for name, lines in self.ran.items()}


def run_entry_points(tmp: Path) -> list[str]:
    failed = entry_points.run(tmp)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        w = workload("toy", tmp / name)
        inputs = w.setup(1)
        if n_failed := w.check(inputs, w.run_pass(inputs)):
            failed.append(f"{name} toy pass: {n_failed} operations failed")
    return failed


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if any(name == "pfalab" or name.startswith("pfalab.")
           for name in sys.modules):
        raise SystemExit("error: pfalab imported before the collector")

    collector = Collector()
    with collector, tempfile.TemporaryDirectory() as tmp:
        failed = run_entry_points(Path(tmp))
    by_entry_points = collector.snapshot()
    import pytest

    with collector, redirect_stdout(sys.stderr):
        pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    by_tests = collector.snapshot()

    total = ran = tested = 0
    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        hit = by_entry_points.get(str(path), set())
        in_tests = by_tests.get(str(path), set())
        total += len(lines)
        ran += len(lines & hit)
        tested += len((lines - hit) & in_tests)
        source = path.read_text().splitlines()
        report += [f"{'tests  ' if line in in_tests else 'nothing'} "
                   f"{path.relative_to(ROOT)}:{line}: "
                   f"{source[line - 1].strip()}"
                   for line in sorted(lines - hit)]
    print(f"executable lines: {total}; run by the entry points: {ran}; "
          f"only by the tests: {tested}; by nothing: {total - ran - tested}")
    print("\n".join(report))
    if failed:
        print("failed checks:", *failed, sep="\n", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
