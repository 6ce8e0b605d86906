"""The benchmark's three workloads.

Each workload makes its inputs from the benchmark seed (setup), runs one
fixed unit of work through pfalab's public entry points (a pass), and
checks the pass's outputs against invariants that hold for any seed and
any version of pfalab's RNG.  Inputs that `pfalab run` does not draw
itself come from `Draws`, the benchmark's own generator, so a change of
pfalab's RNG leaves them alone.

A pass also times its steps, grouped into classes of identical work
(say, the batched cipher on one trial's plaintexts, or one single-fault
repair), from which the harness estimates the pass's time at the host's
fast speed.  Inside CLI calls, the steps are the self times of the
public functions that spans.py wraps.

Every call goes through a module attribute looked up at call time
(`cli.main`, `guard.correct`, ...), which is where the tracer in
spans.py puts its wrappers.
"""

from __future__ import annotations

import hashlib
import io
import json
import statistics
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from pfalab import aes, classic, cli, experiment, faults, guard, sbox_analysis
from pfalab.sbox import AES_INV_SBOX, AES_SBOX, SBoxTable
from spans import Tracer

class Draws:
    """Counter-mode splitmix64 stream keyed by (seed, label).

    Word i is mix(key + (i + 1) * golden gamma); the stream depends on
    nothing but this file, so inputs stay fixed across numpy and pfalab
    versions.
    """

    def __init__(self, seed: int, label: str):
        digest = hashlib.blake2b(f"{seed}/{label}".encode(), digest_size=8)
        self._key = np.uint64(int.from_bytes(digest.digest(), "little"))
        self._used = 0

    def words(self, n: int) -> np.ndarray:
        index = np.arange(self._used + 1, self._used + n + 1, dtype=np.uint64)
        self._used += n
        z = index * np.uint64(0x9E3779B97F4A7C15) + self._key
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def bytes(self, n: int) -> np.ndarray:
        return self.words((n + 7) // 8).view(np.uint8)[:n].copy()

    def below(self, bound: int, n: int) -> np.ndarray:
        """n integers in [0, bound); the modulo bias is below 2**-50."""
        return (self.words(n) % np.uint64(bound)).astype(np.int64)


@dataclass
class Pass:
    """One measured unit of work and what it produced.

    steps maps a class of identical steps to their durations in seconds;
    every pass of a workload has the same keys and the same number of
    steps under each key.
    """

    wall: float
    ops: int
    latencies: list          # seconds per latency sample
    steps: dict
    outputs: object
    digest: str = ""
    stats: dict = field(default_factory=dict)
    rss_mb: float = 0.0      # peak resident memory when the pass ended


def _cli(argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _tree_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        for f in sorted(Path(path).iterdir()):
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def _run_dir_stats(paths) -> dict:
    files = [f for path in paths for f in Path(path).iterdir()]
    rows = 0
    for path in paths:
        with open(Path(path) / "curves.csv", "rb") as fh:
            rows += sum(1 for _ in fh) - 1
    return {
        "artifact_bytes": sum(f.stat().st_size for f in files),
        "record_bytes": sum(f.stat().st_size for f in files
                            if f.name == "records.jsonl"),
        "curve_rows": rows,
    }


def _clocked(argvs: list) -> tuple[list, list, dict]:
    """Run CLI commands with every public function wrapped.

    Returns the outputs, the durations of the run_trial calls, and the
    steps: the wrapped calls' self times.  A class is the n-th call of a
    function in one command, or in one trial of it; the trials of a
    command differ only in their seeded data, so all but the first,
    curve-tracked one share their classes.
    """
    clock = Tracer()
    with clock.installed():
        outputs = [_cli(argv) for argv in argvs]
    trials = []
    steps = {}
    scope = []      # per span: (command, trial or None)
    calls = {}      # (scope, name) -> calls so far
    command = -1
    for name, parent, duration, own in clock.spans():
        if parent < 0:
            command += 1
            trial = 0
        if name == "experiment.run_trial":
            trials.append(duration)
            scope.append((command, trial))
            trial += 1
        else:
            scope.append(scope[parent] if parent >= 0 else (command, None))
        nth = calls.get((scope[-1], name), 0)
        calls[scope[-1], name] = nth + 1
        tracked = None if scope[-1][1] is None else scope[-1][1] == 0
        steps.setdefault((command, tracked, name, nth), []).append(own)
    return outputs, trials, steps


def _record_ok(r: dict, impl: str, n: int) -> bool:
    """Invariants of one trial record that hold for every seed."""
    true_k10 = bytes.fromhex(r["true_k10"])
    got = r["recovery"]["k10"]
    recovered = [b for b in got if b is not None]
    counts = np.asarray(r["histogram"]["counts"], dtype=np.int64)
    ok = (len(got) == 16
          and all(b is None or b == t for b, t in zip(got, true_k10))
          and r["n_recovered"] == len(recovered)
          and r["n_correct"] == len(recovered)
          and r["full_recovery"] == (len(recovered) == 16)
          and (r["min_ciphertexts"] is not None) == r["full_recovery"]
          and r["n_emitted"] == n
          and counts.shape == (16, 256)
          and bool((counts.sum(axis=1) == r["n_attack"]).all()))
    if impl in ("dc", "dc_precorrect"):
        ok = ok and not recovered and r["table_restored"] is True
    if impl == "dc":
        ok = (ok and r["detected"] is True
              and r["correction"]["converged"] is True
              and r["correction"]["rounds"] == 1)
    return ok


def _table3_ok(text: str, impl: str, records: list) -> bool:
    lines = text.splitlines()
    if len(lines) != 2:
        return False
    name, low, mid, p90, fraction = lines[1].split(",")
    reached = sorted(r["min_ciphertexts"] for r in records
                     if r["min_ciphertexts"] is not None)
    want = [float(fraction) == (len(records) - len(reached)) / len(records)]
    if reached:
        rank = -(-9 * len(reached) // 10)
        want += [float(low) == reached[0],
                 float(mid) == statistics.median(reached),
                 float(p90) == reached[rank - 1]]
    else:
        want.append((low, mid, p90) == ("NA", "NA", "NA"))
    return name == impl and all(want)


def _curves_ok(path: Path, config: dict, record: dict, hole: bool) -> bool:
    """Row count, probabilities summing to one, and (where the stream
    never shows it) a zero curve for the attacked value."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    points = config["n_ciphertexts"] // config["curve_grid"]
    positions = config["curve_positions"]
    if data.shape != (config["curve_trials"] * len(positions) * points * 256,
                      5):
        return False
    if not data.size:
        return True
    sums = data[:, 4].reshape(-1, 256).sum(axis=1)
    if not np.allclose(sums, 1.0, atol=1e-9):
        return False
    if not hole:
        return True
    k10 = bytes.fromhex(record["true_k10"])
    first = data[data[:, 0] == 0]
    for position in positions:
        target = AES_SBOX[record["v"]] ^ k10[position]
        rows = first[(first[:, 1] == position) & (first[:, 2] == target)]
        if rows[:, 4].any():
            return False
    return True


def _check_run_dir(out: Path, impl: str, trials: int, n: int,
                   seed: int) -> int:
    """Number of trials in a run directory that fail a check."""
    try:
        config = json.loads((out / "config.json").read_text())
        records = [json.loads(line) for line in
                   (out / "records.jsonl").read_text().splitlines()]
        table3 = (out / "table3.csv").read_text()
    except (OSError, ValueError):
        return trials
    run_ok = (config["implementation"] == impl
              and config["n_ciphertexts"] == n
              and config["n_trials"] == trials
              and config["seed"] == seed
              and [r.get("trial") for r in records] == list(range(trials))
              and _table3_ok(table3, impl, records)
              and _curves_ok(out / "curves.csv", config, records[0],
                             hole=impl in ("ori", "bs")))
    if not run_ok:
        return trials
    return sum(1 for r in records if not _record_ok(r, impl, n))


class Sweep:
    """`pfalab run` for each implementation at 10,000 ciphertexts a trial."""

    name = "sweep"
    operation = "trial"
    SIZES = {"full": {"trials": 5, "n": 10_000},
             "toy": {"trials": 2, "n": 400}}

    def __init__(self, size: str, work_dir: Path):
        self.trials = self.SIZES[size]["trials"]
        self.n = self.SIZES[size]["n"]
        self.work_dir = Path(work_dir)

    def setup(self, seed: int) -> dict:
        # The trials themselves are drawn by pfalab from this seed.
        run_seed = int(Draws(seed, self.name).below(2**31, 1)[0])
        return {"seed": run_seed,
                "dirs": {impl: self.work_dir / impl
                         for impl in experiment.IMPLEMENTATIONS}}

    def run_pass(self, inputs: dict) -> Pass:
        start = perf_counter()
        outputs, trials, steps = _clocked(
            [["run", "--impl", impl, "--trials", str(self.trials),
              "--n", str(self.n), "--seed", str(inputs["seed"]),
              "--out", str(out)] for impl, out in inputs["dirs"].items()])
        wall = perf_counter() - start
        codes = [code for code, _ in outputs]
        return Pass(wall, self.trials * len(codes), trials, steps, codes)

    def inspect(self, inputs: dict, p: Pass) -> None:
        dirs = list(inputs["dirs"].values())
        p.digest = _tree_digest(dirs) + repr(p.outputs)
        p.stats = _run_dir_stats(dirs)

    def check(self, inputs: dict, p: Pass) -> int:
        failed = 0
        for code, (impl, out) in zip(p.outputs, inputs["dirs"].items()):
            failed += (self.trials if code != 0 else
                       _check_run_dir(out, impl, self.trials, self.n,
                                      inputs["seed"]))
        return failed


@dataclass(frozen=True)
class FaultCase:
    kind: str                 # single, double or cluster
    spec: faults.FaultSpec
    table: object
    cfg: guard.GuardConfig

    @property
    def step(self) -> tuple:
        """The class of identical work: cases of one kind and size take
        the same walk and the same number of sweeps."""
        return (self.kind, len(self.spec))


# The dc implementation's default correction budget.  It heals the 3x3
# ring and leaves the 3x3 block's centre for a third sweep; the 5x5
# block's 3x3 core is out of its reach, and its inner cross (every
# neighbour faulty) is left with unresolved votes.
CLUSTER_GUARD = guard.GuardConfig(max_correction_rounds=2)

# (side, ring): the 8-fault ring and 9-fault block of the paper's
# clustered case, and a 25-fault block.
CLUSTER_SHAPES = ((3, True), (3, False), (5, False))


def _double_placements() -> list:
    """1,024 average-case pairs: two faults sharing two grid neighbours."""
    def cell(r, c):
        return (r % 16) * 16 + (c % 16)
    pairs = []
    for x in range(256):
        r, c = divmod(x, 16)
        pairs += [(x, cell(r + 1, c + 1)), (x, cell(r + 1, c - 1)),
                  (x, cell(r, c + 2)), (x, cell(r + 2, c))]
    return pairs


def _cluster_cells(anchor: int, side: int, ring: bool) -> list:
    """A side x side block at the anchor; a ring leaves its centre intact."""
    r0, c0 = divmod(anchor, 16)
    centre = (side // 2, side // 2)
    offsets = [(dr, dc) for dr in range(side) for dc in range(side)
               if not (ring and (dr, dc) == centre)]
    return [((r0 + dr) % 16) * 16 + (c0 + dc) % 16 for dr, dc in offsets]


class Certify:
    """Guard detect-and-repair over every single fault plus hard cases."""

    name = "certify"
    operation = "fault case"
    SIZES = {"full": {"stride": 1, "doubles": 1024, "clusters": 256},
             "toy": {"stride": 64, "doubles": 8, "clusters": 4}}

    def __init__(self, size: str, work_dir: Path):
        self.size = self.SIZES[size]

    def _case(self, kind, cells, values, cfg) -> FaultCase:
        spec = faults.FaultSpec(tuple(zip(cells, values)))
        return FaultCase(kind, spec, faults.inject(AES_SBOX, spec), cfg)

    def setup(self, seed: int) -> dict:
        draws = Draws(seed, self.name)
        default = guard.GuardConfig()
        cases = [self._case("single", [x], [e], default)
                 for x in range(0, 256, self.size["stride"])
                 for e in range(256) if e != AES_SBOX[x]]
        for x1, x2 in _double_placements()[:self.size["doubles"]]:
            flips = 1 + draws.below(255, 2)
            cases.append(self._case("double", [x1, x2],
                                    [AES_SBOX[x1] ^ int(flips[0]),
                                     AES_SBOX[x2] ^ int(flips[1])], default))
        for anchor in draws.below(256, self.size["clusters"]):
            for side, ring in CLUSTER_SHAPES:
                cells = _cluster_cells(int(anchor), side, ring)
                flips = 1 + draws.below(255, len(cells))
                cases.append(self._case(
                    "cluster", cells,
                    [AES_SBOX[x] ^ int(f) for x, f in zip(cells, flips)],
                    CLUSTER_GUARD))
        # Interleave the kinds so each is timed across the whole pass.
        order = np.argsort(draws.words(len(cases)), kind="stable")
        return {"cases": [cases[i] for i in order],
                "pair": sbox_analysis.build_detection_pair(AES_SBOX),
                "tables": sbox_analysis.build_redundant_tables(AES_SBOX)}

    def run_pass(self, inputs: dict) -> Pass:
        pair, tables = inputs["pair"], inputs["tables"]
        latencies = []
        results = []
        start = perf_counter()
        escapes = sbox_analysis.verify_detection(AES_SBOX, pair)
        steps = {"verify": [perf_counter() - start]}
        for case in inputs["cases"]:
            t0 = perf_counter()
            detected = guard.detect(case.table, pair)
            if detected:
                fixed, report = guard.correct(case.table, tables, pair,
                                              case.cfg)
            else:
                fixed, report = case.table, None
            latency = perf_counter() - t0
            latencies.append(latency)
            steps.setdefault(case.step, []).append(latency)
            # Plain tuples of ints and bytes, which the garbage collector
            # stops tracking, so keeping 66k results costs the program no
            # collection time.
            results.append((detected, fixed.entries) if report is None else
                           (detected, fixed.entries, report.converged,
                            report.rounds_used, report.unresolved,
                            report.changed_entries))
        wall = perf_counter() - start
        return Pass(wall, len(results), latencies, steps, (escapes, results))

    def inspect(self, inputs: dict, p: Pass) -> None:
        escapes, results = p.outputs
        h = hashlib.sha256(repr(escapes).encode())
        for result in results:
            h.update(repr(result).encode())
        p.digest = h.hexdigest()

    def check(self, inputs: dict, p: Pass) -> int:
        escapes, results = p.outputs
        if escapes:
            return len(results)
        pair = inputs["pair"]
        failed = 0
        blocks_unresolved = []
        for case, result in zip(inputs["cases"], results):
            if not result[0]:
                failed += 1
                continue
            _, entries, converged, rounds, unresolved, _ = result
            fixed = SBoxTable(entries)
            restored = fixed == AES_SBOX
            if case.kind == "single":
                ok = converged and rounds == 1 and restored
            elif case.kind == "double":
                ok = converged and rounds <= 2 and restored
            else:
                ok = (1 <= rounds <= case.cfg.max_correction_rounds
                      and converged == (not guard.detect(fixed, pair))
                      and converged == restored
                      and (not converged or not unresolved)
                      and len(fixed.differences(AES_SBOX)) <= len(case.spec)
                      and faults.classify_case(case.spec) == faults.WORST)
                if len(case.spec) == 25:
                    # An entry is restored only once two neighbours are
                    # sound, so two sweeps never reach the core.
                    ok = ok and not converged
                    blocks_unresolved.append(bool(unresolved))
            failed += not ok
        # A core entry's vote resolves only when two of its four wrong
        # candidates coincide, so some 5x5 block must end unresolved.
        if blocks_unresolved and not any(blocks_unresolved):
            failed += len(blocks_unresolved)
        return failed


@dataclass(frozen=True)
class Stream:
    path: Path
    blocks: np.ndarray
    zco: bool
    k10: bytes
    v: int
    v_star: int


def _expected_min_count(s: Stream) -> int | None:
    """Smallest prefix after which every position's only unseen value is
    S[v] ^ k10[j], by bisection over prefix histograms.  The property is
    monotone because the target value never occurs in these streams."""
    targets = [AES_SBOX[s.v] ^ k for k in s.k10]
    kept = s.blocks.any(axis=1) if s.zco else np.ones(len(s.blocks), bool)

    def recovered_at(n):
        seen = s.blocks[:n][kept[:n]]
        for j in range(16):
            counts = np.bincount(seen[:, j], minlength=256)
            if np.flatnonzero(counts == 0).tolist() != [targets[j]]:
                return False
        return True

    lo, hi = 0, len(s.blocks)
    if not recovered_at(hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if recovered_at(mid):
            hi = mid
        else:
            lo = mid
    return hi


class AttackCli:
    """`pfalab attack` on short single-fault streams, search then known pair."""

    name = "attack_cli"
    operation = "stream"
    SIZES = {"full": {"streams": 24, "shortest": 1_000, "longest": 12_000},
             "toy": {"streams": 3, "shortest": 600, "longest": 3_000}}

    def __init__(self, size: str, work_dir: Path):
        self.size = self.SIZES[size]
        self.work_dir = Path(work_dir)

    def setup(self, seed: int) -> dict:
        draws = Draws(seed, self.name)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        ratio = self.size["longest"] / self.size["shortest"]
        zco_cfg = classic.DmrConfig(mode=classic.REDMR, defense=classic.ZCO,
                                    fault_scope=classic.MODULE_ONE_ONLY)
        streams = []
        last = self.size["streams"] - 1
        for i in range(self.size["streams"]):
            # Lengths on a fixed geometric grid span the recovery threshold
            # (about 2k blocks for ori, twice that behind ZCO) and keep the
            # work per pass the same for every seed; every third stream
            # comes from a DMR device that zeroes mismatched blocks.
            zco = i % 3 == 2
            length = round(self.size["shortest"] * ratio ** (i / last))
            x = int(draws.below(256, 1)[0])
            value = AES_SBOX[x] ^ int(1 + draws.below(255, 1)[0])
            table = faults.inject(AES_SBOX, faults.FaultSpec(((x, value),)))
            round_keys = aes.key_expand(bytes(draws.bytes(16)))
            plaintexts = draws.bytes(16 * length).reshape(length, 16)
            if zco:
                blocks, _ = classic.dmr_encrypt_blocks(
                    plaintexts, round_keys, AES_SBOX, table, zco_cfg)
            else:
                blocks = aes.encrypt_blocks(plaintexts, round_keys, table)
            text = blocks.tobytes().hex()
            path = self.work_dir / f"stream{i:03d}.txt"
            path.write_text("".join(text[k:k + 32] + "\n"
                                    for k in range(0, len(text), 32)))
            streams.append(Stream(path, blocks, zco, round_keys[10], x,
                                  AES_INV_SBOX[value]))
        return {"streams": streams}

    def run_pass(self, inputs: dict) -> Pass:
        argvs = []
        for s in inputs["streams"]:
            flag = ["--zco-filter"] if s.zco else []
            argvs += [["attack", str(s.path), "--search"] + flag,
                      ["attack", str(s.path), "--v", hex(s.v),
                       "--v-star", hex(s.v_star),
                       "--true-k10", s.k10.hex()] + flag]
        start = perf_counter()
        outputs, _, steps = _clocked(argvs)
        wall = perf_counter() - start
        # The latency of a stream is both of its calls.
        calls = {}
        for (command, *_), seconds in steps.items():
            calls[command // 2] = calls.get(command // 2, 0.0) + sum(seconds)
        return Pass(wall, len(argvs) // 2, list(calls.values()), steps,
                    list(zip(outputs[::2], outputs[1::2])))

    def inspect(self, inputs: dict, p: Pass) -> None:
        p.digest = hashlib.sha256(repr(p.outputs).encode()).hexdigest()

    def check(self, inputs: dict, p: Pass) -> int:
        return sum(1 for s, out in zip(inputs["streams"], p.outputs)
                   if not self._stream_ok(s, *out))

    @staticmethod
    def _stream_ok(s: Stream, searched, known) -> bool:
        if searched[0] != 0 or known[0] != 0:
            return False
        found = json.loads(searched[1])
        result = json.loads(known[1])
        planted = AES_SBOX[s.v] ^ AES_SBOX[s.v_star]
        # Counts pin down only the class S[v] ^ S[v*]: a search answer is
        # right up to that offset, and a conclusive one names the planted
        # pair's class, so the planted pair sits in the top group.
        offset = AES_SBOX[found["v"]] ^ AES_SBOX[s.v]
        return (all(b is None or b ^ offset == t
                    for b, t in zip(found["k10"], s.k10))
                and (found["search"]["inconclusive"]
                     or AES_SBOX[found["v"]] ^ AES_SBOX[found["v_star"]]
                     == planted)
                and len(found["k10"]) == len(result["k10"]) == 16
                and all(b is None or b == t
                        for b, t in zip(result["k10"], s.k10))
                and result["min_ciphertexts"] == _expected_min_count(s))


WORKLOADS = {w.name: w for w in (Sweep, Certify, AttackCli)}
