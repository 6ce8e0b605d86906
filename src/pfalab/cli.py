"""Command-line front end: table analysis, seeded runs, attack, costs.

Exit codes: 0 on success, 1 on a configuration, input or file error, 2
when a --check verification fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .aes import BLOCK_SIZE, block_from_hex
from .attack import (
    GAP_THRESHOLD,
    accumulate,
    min_ciphertexts_to_recover,
    recover_key_maxmin,
    search_fault_values,
)
from .costs import to_csv as cost_table_csv
from .experiment import (
    CHOICES,
    ExperimentConfig,
    emit_table3,
    render_files,
    run_experiment,
    summarize,
    write_run,
)
from .sbox import AES_SBOX
from .sbox_analysis import analyze_table


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems as main reports the others: one
    line on stderr and exit code 1, not a usage block and exit code 2."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_analyze_sbox(args) -> int:
    report = analyze_table(AES_SBOX)
    _write_or_print(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    args.out)
    return 0


# Namespace entries of `pfalab run` that are not ExperimentConfig fields.
_RUN_ONLY = ("command", "func", "out", "check")


def _cmd_run(args) -> int:
    fields = {name: value for name, value in vars(args).items()
              if name not in _RUN_ONLY}
    config = ExperimentConfig(**fields)
    result = run_experiment(config)
    out_dir = write_run(result, args.out)
    sys.stdout.write(emit_table3(result.records))
    sys.stdout.write(summarize(result.records))
    sys.stdout.write(f"run written to {out_dir}\n")
    if args.check:
        # Compare with the files as written, so the first result is
        # rendered only once.
        again = render_files(run_experiment(config))
        if any((out_dir / name).read_text() != text
               for name, text in again.items()):
            sys.stderr.write("check failed: rerun produced different files\n")
            return 2
        sys.stdout.write("check passed: rerun reproduced all files\n")
    return 0


def _read_blocks(path: str) -> np.ndarray:
    # read_text turns CRLF into LF.  fromhex skips whitespace and takes
    # uppercase digits, so only the round trip back to one block per
    # line admits the canonical layout.  hex() counts its separators
    # from the right, so without the length check a short first line
    # would pass it.  Any other layout is read line by line.
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    try:
        data = bytes.fromhex(text)
    except ValueError:
        data = b""
    if (len(data) % BLOCK_SIZE
            or text != data.hex("\n", BLOCK_SIZE) + "\n"):
        blocks = []
        for line_no, line in enumerate(text.splitlines(), 1):
            if line := line.strip():
                try:
                    blocks.append(block_from_hex(line))
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from exc
        data = b"".join(blocks)
    if not data:
        raise ValueError(f"{path}: no ciphertext blocks")
    return np.frombuffer(data, dtype=np.uint8).reshape(-1, BLOCK_SIZE)


def _cmd_attack(args) -> int:
    if args.search:
        if args.v is not None or args.v_star is not None:
            raise ValueError("--search excludes --v/--v-star")
    elif args.v is None or args.v_star is None:
        raise ValueError("give either --search or both --v and --v-star")
    if args.gap_threshold < 1:
        raise ValueError("--gap-threshold must be at least 1, "
                         f"got {args.gap_threshold}")
    blocks = _read_blocks(args.ciphertexts)
    kept = blocks.any(axis=1) if args.zco_filter else None
    stream = blocks if kept is None else blocks[kept]
    hist = accumulate(stream)
    output = {}
    if args.search:
        found = search_fault_values(hist)
        v, v_star = found.best
        output["search"] = {
            "top_score": found.top_score,
            "inconclusive": found.inconclusive,
            "difference": AES_SBOX[v] ^ AES_SBOX[v_star],
            "candidates": int(np.count_nonzero(
                found.scores == found.top_score)),
        }
    else:
        v, v_star = args.v, args.v_star
    recovery = recover_key_maxmin(hist, v, v_star,
                                  gap_threshold=args.gap_threshold)
    output.update(recovery.to_json_dict())
    output["confident"] = list(recovery.confident)
    output["gap_threshold"] = recovery.gap_threshold
    if args.true_k10 is not None:
        output["min_ciphertexts"] = min_ciphertexts_to_recover(
            stream, block_from_hex(args.true_k10), v, kept=kept)
    if args.hist_out is not None:
        Path(args.hist_out).write_text(hist.to_csv())
    _write_or_print(json.dumps(output, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_cost(args) -> int:
    _write_or_print(cost_table_csv(), args.out)
    return 0


def _hex_int(text: str) -> int:
    return int(text, 0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: parse_args keeps no state between calls."""
    parser = _Parser(prog="pfalab",
                     description="persistent-fault lab for table ciphers")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze-sbox",
                             help="cycle structure and guard material")
    analyze.add_argument("--out", help="write JSON here instead of stdout")
    analyze.set_defaults(func=_cmd_analyze_sbox)

    # Each flag's dest is an ExperimentConfig field; a flag left out is
    # left out of the namespace, so the field keeps its default.
    run = sub.add_parser("run", help="seeded fault/attack experiment",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--impl", dest="implementation", required=True,
                     choices=CHOICES["implementation"])
    run.add_argument("--faults", dest="n_faults", type=int)
    run.add_argument("--placement", choices=CHOICES["placement"])
    run.add_argument("--value-policy", choices=CHOICES["value_policy"])
    run.add_argument("--n", dest="n_ciphertexts", type=int,
                     help="ciphertexts per trial")
    run.add_argument("--trials", dest="n_trials", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--key", dest="key_hex",
                     help="fixed key as 32 hex digits")
    run.add_argument("--out", required=True, help="run directory")
    run.add_argument("--no-shiftrows", dest="shift_rows",
                     action="store_false")
    run.add_argument("--dmr-mode", choices=CHOICES["dmr_mode"])
    run.add_argument("--dmr-defense", choices=CHOICES["dmr_defense"])
    run.add_argument("--fault-scope", choices=CHOICES["fault_scope"])
    run.add_argument("--dc-rounds", dest="dc_max_rounds", type=int,
                     help="correction round budget per detection")
    run.add_argument("--gap-threshold", type=int)
    run.add_argument("--curve-trials", type=int)
    # SUPPRESS would also drop store_true's False.
    run.add_argument("--check", action="store_true", default=False,
                     help="rerun and verify byte-identical artifacts")
    run.set_defaults(func=_cmd_run)

    attack = sub.add_parser("attack", help="key recovery from a stream")
    attack.add_argument("ciphertexts",
                        help="file of hex blocks, one per line")
    attack.add_argument("--v", type=_hex_int,
                        help="faulted table index hypothesis")
    attack.add_argument("--v-star", type=_hex_int,
                        help="index mapping to the duplicated value")
    attack.add_argument("--search", action="store_true",
                        help="rank (v, v*) hypotheses instead")
    attack.add_argument("--zco-filter", action="store_true",
                        help="drop all-zero blocks from the histogram")
    attack.add_argument("--true-k10",
                        help="known round-10 key, for the minimum count")
    attack.add_argument("--gap-threshold", type=int, default=GAP_THRESHOLD)
    attack.add_argument("--hist-out", help="write histogram CSV here")
    attack.add_argument("--out", help="write JSON here instead of stdout")
    attack.set_defaults(func=_cmd_attack)

    cost = sub.add_parser("cost", help="operation-count cost table")
    cost.add_argument("--out", help="write CSV here instead of stdout")
    cost.set_defaults(func=_cmd_cost)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
