"""Run every pfalab entry-point command and check what each produces.

Run from the repository root (pytest does not collect this file):

    python tests/entry_points.py

COMMANDS is the one list of the commands that CI runs and that
tests/audit_lines.py counts as entry points; a new command goes into it.
Each runs through cli.main in this process, in a temporary directory
that also holds the streams the attack commands read.  The script prints
each failed check with its command and exits 1 if there is any.  Its
last line is one SHA-256 over every command's exit code, stdout and
stderr and every file in the temporary directory, with the directory's
path written as {tmp}, so that two checkouts' outputs compare in one
line.  pfalab is imported inside run(), after the audit has started its
collector.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


# A check (name, of, want) holds when of(output) == want.  The output is
# "exit", "stdout", "stderr" or a file in the temporary directory; a
# callable want is given the reader of those outputs.
def exact(value):
    return value


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def line_count(text: str) -> int:
    return len(text.splitlines())


def n_correct(text: str) -> int:
    return json.loads(text)["n_correct"]


def min_ciphertexts(text: str) -> int | None:
    return json.loads(text)["min_ciphertexts"]


def after_file_name(text: str) -> str:
    """What follows the first .txt name, which holds the temporary
    directory's path."""
    return text.partition(".txt")[2]


def one_clean_line(stderr: str) -> bool:
    return stderr.count("\n") == 1 and "Traceback" not in stderr


def schema_3(text: str) -> bool:
    """Schema 3 records hold neither the config nor the curve rows, nor a
    field that restates another."""
    records = [json.loads(line) for line in text.splitlines()]
    restated = {"config", "curves", "confident", "not_reached"}
    return bool(records) and all(
        r.get("schema") == 3 and not restated & set(r)
        and set(r["recovery"]) == {"k10", "confidence"} for r in records)


class Command(NamedTuple):
    argv: str  # split on spaces, then {tmp} and {k10} are filled in
    checks: tuple
    address_limit: int | None = None


COST = """\
implementation,lower,upper
ori,100,100
detect,20,20
correct,0.25,64
algo,120.25,184
dmr,200,200
bs,200,200
"""
# The digest pins the cycles, checkpoints and parity tables.
SBOX_SHA256 = ("3d697b931f47b53f92446a277bb82fbc"
               "e90ae1c549861a1f3361058b1df717cf")
# Every `pfalab run` reruns under --check to byte-identical files.
RUNS = [
    *(f"--impl {impl} --trials 2 --n 400"
      for impl in ("ori", "dmr", "bs", "dc", "dc_precorrect")),
    "--impl dmr --dmr-defense nco --trials 3 --n 250 --curve-trials 2",
    "--impl ori --trials 3 --n 10000 --curve-trials 3",
    "--impl dc --placement clustered --faults 9 --trials 2 --n 400",
    "--impl dc --placement clustered --faults 9 --trials 2 --n 400"
    " --dc-rounds 16",
    "--impl dc_precorrect --faults 4 --value-policy bit_flip --trials 2"
    " --n 400",
    "--impl dmr --fault-scope shared --trials 2 --n 400",
    "--impl dmr --dmr-mode iddmr --trials 2 --n 400",
    "--impl dmr --dmr-mode iddmr --no-shiftrows --trials 2 --n 400",
    "--impl dmr --dmr-defense rco --trials 2 --n 400",
    "--impl dmr --dmr-defense rco --dmr-mode iddmr --faults 3 --trials 2"
    " --n 400",
    "--impl bs --fault-scope module_one --trials 2 --n 400",
    "--impl bs --fault-scope module_one --no-shiftrows --trials 2 --n 400",
    "--impl ori --no-shiftrows --trials 2 --n 400",
    "--impl dc --faults 3 --placement clustered --value-policy bit_flip"
    " --n 300 --trials 3 --seed 7 --key 000102030405060708090a0b0c0d0e0f"
    " --no-shiftrows --dc-rounds 3 --curve-trials 2",
    # 8 clustered faults make a ring around a pristine cell.
    "--impl dc --placement clustered --faults 8 --trials 2 --n 400",
    # 64 clustered faults meet a guard vote that changes nothing.
    "--impl dc --placement clustered --faults 64 --dc-rounds 16 --trials 1"
    " --n 300",
    # The table is restored, so the value the attack needs missing appears.
    "--impl dc --trials 2 --n 3000",
]
OK = ("exit", exact, 0)
# Bad input ends in exit 1 and one stderr line, with no traceback.
REJECTED = (("exit", exact, 1), ("stderr", one_clean_line, True))
# 3,000 blocks under S[0x42] = 0x00 (v* = 0x52) recover the whole key.
KNOWN = "--v 0x42 --v-star 0x52 --true-k10 {k10}"
ZCO_MIN_CIPHERTEXTS = 4623

COMMANDS = [
    Command("cost", (OK, ("stdout", exact, COST))),
    Command("analyze-sbox", (OK, ("stdout", sha256, SBOX_SHA256))),
    # --out writes what stdout would show.
    Command("cost --out {tmp}/cost.csv", (OK, ("cost.csv", exact, COST))),
    Command("analyze-sbox --out {tmp}/sbox.json",
            (OK, ("sbox.json", sha256, SBOX_SHA256))),
    *(Command(f"run {flags} --check --out {{tmp}}/run-{i}",
              (OK, (f"run-{i}/records.jsonl", schema_3, True)))
      for i, flags in enumerate(RUNS)),
    Command(f"attack {{tmp}}/stream.txt {KNOWN} --out {{tmp}}/attack.json"
            " --hist-out {tmp}/hist.csv",
            (OK, ("attack.json", n_correct, 16),
             ("hist.csv", line_count, 4097))),
    # A blank line and padded lines take the line-by-line reader.
    Command(f"attack {{tmp}}/padded.txt {KNOWN}",
            (OK, ("stdout", exact, lambda read: read("attack.json")))),
    # Behind a zero-on-mismatch device the zero blocks are dropped from
    # the histogram but still counted.
    Command(f"attack {{tmp}}/zco.txt --zco-filter {KNOWN}",
            (OK, ("stdout", n_correct, 16),
             ("stdout", min_ciphertexts, ZCO_MIN_CIPHERTEXTS))),
    Command("run --impl ori --faults 24 --trials 1 --n 100"
            " --out {tmp}/infeasible", REJECTED),
    Command("attack /nonexistent --search", REJECTED),
    Command("attack {tmp}/short.txt --search", REJECTED),
    Command("attack {tmp}/not-utf8.txt --search", REJECTED),
    # A canonical layout with a digit that is not hex names its line.
    Command("attack {tmp}/not-hex.txt --search",
            (("exit", exact, 1), ("stderr", after_file_name,
             ":2: expected 32 lowercase hex chars, got "
             "'00112233445566778899aabbccddeeg0'\n"))),
    Command("attack {tmp}/one-block.txt --search"
            " --true-k10 00112233445566778899aabbccddeeff", REJECTED),
    # A malformed key is refused by name, before the stream is read.
    Command("attack /nonexistent --v 0x42 --v-star 0x52 --true-k10 zz",
            (("exit", exact, 1), ("stderr", exact, "error: --true-k10: "
             "expected 32 lowercase hex chars, got 'zz'\n"))),
    Command("run --impl tmr --out {tmp}/bad-choice", REJECTED),
    Command("run --impl ori --n abc --out {tmp}/bad-int", REJECTED),
    Command("run --impl ori --seed -1 --trials 1 --n 100"
            " --out {tmp}/bad-seed", REJECTED),
    # A 4 GB address-space limit makes the failed allocation immediate.
    Command("run --impl ori --n 10000000000000 --trials 1 --out {tmp}/huge-n",
            REJECTED, 4_000_000 * 1024),
]


def write_inputs(tmp: Path) -> str:
    """Write the streams that the attack commands read, and return the
    round-10 key of the single-fault one as hex."""
    import numpy as np

    from pfalab.aes import encrypt_blocks, key_expand
    from pfalab.classic import ZCO, DmrConfig, dmr_encrypt_blocks
    from pfalab.faults import FaultSpec, inject
    from pfalab.rng import Rng
    from pfalab.sbox import AES_SBOX

    rng = Rng(1)
    round_keys = key_expand(rng.randbytes(16))
    table = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    plaintexts = np.frombuffer(rng.randbytes(16 * 3000), dtype=np.uint8)
    blocks = encrypt_blocks(plaintexts.reshape(3000, 16), round_keys, table)
    lines = [bytes(block).hex() for block in blocks]
    (tmp / "stream.txt").write_text("".join(f"{line}\n" for line in lines))
    (tmp / "padded.txt").write_text(
        "\n" + "".join(f"  {line} \n" for line in lines))
    # The same key and fault behind REDMR with ZCO, 8,000 blocks.
    plaintexts = np.frombuffer(rng.randbytes(16 * 8000), dtype=np.uint8)
    blocks, _ = dmr_encrypt_blocks(plaintexts.reshape(8000, 16), round_keys,
                                   AES_SBOX, table, DmrConfig(defense=ZCO))
    (tmp / "zco.txt").write_text(
        "".join(f"{bytes(block).hex()}\n" for block in blocks))
    block = "00112233445566778899aabbccddeeff"
    (tmp / "short.txt").write_text(f"{block}\n00ff\n")
    (tmp / "not-utf8.txt").write_bytes(b"\xff" + block.encode() + b"\n")
    (tmp / "not-hex.txt").write_text(f"{block}\n{block[:-2]}g0\n")
    (tmp / "one-block.txt").write_text(f"{block}\n")
    return round_keys[10].hex()


def call_main(argv: list[str], address_limit: int | None) -> dict:
    """cli.main's outputs; an exception that escapes it exits None."""
    from pfalab import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    limits = resource.getrlimit(resource.RLIMIT_AS)
    if address_limit is not None:
        resource.setrlimit(resource.RLIMIT_AS, (address_limit, limits[1]))
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        code = None
        stderr.write(f"Traceback: {type(exc).__name__}: {exc}\n")
    finally:
        resource.setrlimit(resource.RLIMIT_AS, limits)
    return {"exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()}


def run(tmp: Path) -> tuple[list[str], str]:
    """Run COMMANDS in order in tmp; return each failed check as
    "pfalab ARGV: what went wrong", and the digest of every output."""
    k10 = write_inputs(tmp)
    failed, digest = [], hashlib.sha256()
    for command in COMMANDS:
        argv = [word.format(tmp=tmp, k10=k10)
                for word in command.argv.split()]
        outputs = call_main(argv, command.address_limit)
        digest.update(repr((command.argv, outputs)).replace(
            str(tmp), "{tmp}").encode())

        def read(name):
            return outputs[name] if name in outputs else \
                (tmp / name).read_text()

        for name, of, want in command.checks:
            try:
                want = want(read) if callable(want) else want
                if (got := of(read(name))) == want:
                    continue
                problem = (f"{of.__name__}({name}) is {got!r:.200}, "
                           f"not {want!r:.200}")
            except (OSError, ValueError, KeyError) as exc:
                problem = f"{name}: {type(exc).__name__}: {exc}"
            stderr = outputs["stderr"].strip()
            failed.append(f"pfalab {' '.join(argv)}: {problem}"
                          + (f"; stderr {stderr!r:.200}" if stderr else ""))
    for path in sorted(tmp.rglob("*")):
        if path.is_file():
            data = path.read_bytes().replace(bytes(tmp), b"{tmp}")
            digest.update(f"{path.relative_to(tmp)}\0{len(data)}\0".encode())
            digest.update(data)
    return failed, digest.hexdigest()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        failed, digest = run(Path(tmp))
    print("\n".join(failed) if failed else
          f"{len(COMMANDS)} commands: every check passed")
    print(f"sha256 of every output: {digest}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
