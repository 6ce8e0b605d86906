"""List the lines of src/pfalab that no entry point runs.

Run from the repository root (pytest does not collect this file):

    python tests/audit_lines.py

A stdlib sys.settrace collector records which lines of src/pfalab run,
in this one process, while

* every pfalab command of .github/workflows/tests.yml runs through
  cli.main, the bad-input ones included (listed below by hand: keep
  them in step with the workflow), on the files the workflow writes,
  among them its seeded single-fault stream, and
* each benchmark workload of perfbench/workloads.py runs one toy-sized
  pass.

A file's executable lines are the line numbers that co_lines() gives
for its compiled code objects.  Tier-1 (pytest tests/) then runs under
the same collector.  The script prints each executable line that no
entry point ran, marked "tests" when the suite runs it and "nothing"
when it does not.  Pytest's own output goes to stderr.
"""

from __future__ import annotations

import io
import resource
import sys
import tempfile
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pfalab"

# A 4 GB address-space limit makes the huge --n run's failed allocation
# immediate, as in the workflow.
HUGE_N_ADDRESS_LIMIT = 4_000_000 * 1024


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


def write_stream(path: Path) -> str:
    """The workflow's 3,000-block stream under S[0x42] = 0x00: write it
    one block per line, and return the round-10 key as hex."""
    import numpy as np

    from pfalab.aes import encrypt_blocks, key_expand
    from pfalab.faults import FaultSpec, inject
    from pfalab.rng import Rng
    from pfalab.sbox import AES_SBOX

    rng = Rng(1)
    round_keys = key_expand(rng.randbytes(16))
    table = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    plaintexts = np.frombuffer(rng.randbytes(16 * 3000), dtype=np.uint8)
    blocks = encrypt_blocks(plaintexts.reshape(3000, 16), round_keys, table)
    path.write_text("".join(bytes(block).hex() + "\n" for block in blocks))
    return round_keys[10].hex()


def workflow_commands(tmp: Path) -> list[list[str]]:
    """The pfalab argv lists of .github/workflows/tests.yml."""
    out = str(tmp)
    k10 = write_stream(tmp / "stream.txt")
    # A blank line and padded lines take the line-by-line reader.
    (tmp / "padded.txt").write_text("\n" + "".join(
        f"  {line} \n"
        for line in (tmp / "stream.txt").read_text().splitlines()))
    (tmp / "short.txt").write_text(
        "00112233445566778899aabbccddeeff\n00ff\n")
    (tmp / "not-utf8.txt").write_bytes(
        b"\xff00112233445566778899aabbccddeeff\n")
    (tmp / "one-block.txt").write_text("00112233445566778899aabbccddeeff\n")
    small = ["--trials", "2", "--n", "400", "--check"]
    runs = [["--impl", impl, *small] for impl in
            ("ori", "dmr", "bs", "dc", "dc_precorrect")]
    runs += [
        ["--impl", "dmr", "--dmr-defense", "nco", "--trials", "3", "--n",
         "250", "--curve-trials", "2", "--check"],
        ["--impl", "ori", "--trials", "3", "--n", "10000", "--curve-trials",
         "3", "--check"],
        ["--impl", "dc", "--placement", "clustered", "--faults", "9",
         *small],
        ["--impl", "dc", "--placement", "clustered", "--faults", "9",
         "--dc-rounds", "16", *small],
        ["--impl", "dc_precorrect", "--faults", "4", "--value-policy",
         "bit_flip", *small],
        ["--impl", "dmr", "--fault-scope", "shared", *small],
        ["--impl", "dmr", "--dmr-mode", "iddmr", *small],
        ["--impl", "dmr", "--dmr-mode", "iddmr", "--no-shiftrows", *small],
        ["--impl", "dmr", "--dmr-defense", "rco", *small],
        ["--impl", "dmr", "--dmr-defense", "rco", "--dmr-mode", "iddmr",
         "--faults", "3", *small],
        ["--impl", "bs", "--fault-scope", "module_one", *small],
        ["--impl", "bs", "--fault-scope", "module_one", "--no-shiftrows",
         *small],
        ["--impl", "ori", "--no-shiftrows", *small],
        ["--impl", "dc", "--faults", "3", "--placement", "clustered",
         "--value-policy", "bit_flip", "--n", "300", "--trials", "3",
         "--seed", "7", "--key", "000102030405060708090a0b0c0d0e0f",
         "--no-shiftrows", "--dc-rounds", "3", "--curve-trials", "2",
         "--check"],
        # Bad input.
        ["--impl", "ori", "--faults", "24", "--trials", "1", "--n", "100"],
        ["--impl", "tmr"],
        ["--impl", "ori", "--n", "abc"],
        ["--impl", "ori", "--seed", "-1", "--trials", "1", "--n", "100"],
    ]
    argvs = [["cost"], ["analyze-sbox"], ["cost", "--out", f"{out}/cost.csv"],
             ["analyze-sbox", "--out", f"{out}/sbox.json"]]
    argvs += [["run", *argv, "--out", f"{out}/run-{i}"]
              for i, argv in enumerate(runs)]
    known = ["--v", "0x42", "--v-star", "0x52", "--true-k10", k10]
    argvs += [
        ["attack", f"{out}/stream.txt", *known, "--out",
         f"{out}/attack.json", "--hist-out", f"{out}/hist.csv"],
        ["attack", f"{out}/padded.txt", *known],
        ["attack", "/nonexistent", "--search"],
        ["attack", f"{out}/short.txt", "--search"],
        ["attack", f"{out}/not-utf8.txt", "--search"],
        ["attack", f"{out}/one-block.txt", "--search", "--true-k10",
         "00112233445566778899aabbccddeeff"],
    ]
    return argvs


def run_entry_points(tmp: Path) -> None:
    from pfalab import cli

    def main(argv):
        try:
            with redirect_stdout(io.StringIO()), \
                    redirect_stderr(io.StringIO()):
                return cli.main(argv)
        except SystemExit as exc:
            return exc.code

    for argv in workflow_commands(tmp):
        print(f"exit {main(argv)}: pfalab {' '.join(argv)}", file=sys.stderr)
    limits = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (HUGE_N_ADDRESS_LIMIT, limits[1]))
    try:
        code = main(["run", "--impl", "ori", "--n", "10000000000000",
                     "--trials", "1", "--out", f"{tmp}/huge-n"])
    finally:
        resource.setrlimit(resource.RLIMIT_AS, limits)
    print(f"exit {code}: pfalab run --impl ori --n 10000000000000 ...",
          file=sys.stderr)

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        w = workload("toy", tmp / name)
        inputs = w.setup(1)
        failed = w.check(inputs, w.run_pass(inputs))
        print(f"failed {failed}: {name} toy pass", file=sys.stderr)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if any(name == "pfalab" or name.startswith("pfalab.")
           for name in sys.modules):
        raise SystemExit("error: pfalab imported before the collector")

    collector = Collector()
    with collector, tempfile.TemporaryDirectory() as tmp:
        run_entry_points(Path(tmp))
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
