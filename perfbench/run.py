"""pfalab benchmark entry point.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Run from the repository root.  The program under test is imported from
./src, never from an installed copy.  Standard output ends with two
lines: a JSON report (every metric, the operation unit, the raw pass
times, the latency median and tail, failed_fraction, artifact_bytes and
host provenance), then the result object {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  Exits non-zero without a result when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep", "certify", "attack_cli")


def _import_program() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import pfalab
    except ImportError as exc:
        raise SystemExit(f"error: cannot import pfalab from {SRC}: {exc}")
    if not Path(pfalab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: pfalab imported from {pfalab.__file__}, "
                         f"not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    import harness

    out = HERE / "out"
    work_dir = out / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    out.mkdir(exist_ok=True)
    try:
        result = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            work_dir, src=SRC,
            spans_path=out / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = (harness.PER_LAYER_UNITS if args.trace
             else harness.END_TO_END_UNITS)
    report = {**result["detail"], "metrics": result["metrics"],
              "host": harness.host_info(ROOT)}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
