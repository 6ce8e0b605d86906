"""Run one workload: set up, measure passes, check outputs, report.

A run is one process.  It times set-up several times and keeps the
median, warms the program up on toy-sized inputs, then repeats the
workload's pass as long as the measured time stays within the budget.
Every pass is checked before the next one overwrites its outputs;
passes whose outputs are byte-identical share one check, and a pass
whose outputs differ from the first pass's fails, since pfalab promises
byte-identical reruns.

The timing metrics estimate a pass at the host's fast speed.  This
shared host flips between a fast and a slow state (up to 2x on guard
code) many times a second, and the slow state's share drifts over
minutes, so a pass's raw time depends on the hour.  Each pass is timed
step by step instead, in classes of identical steps; a class costs its
steps per pass times its fastest sample in the run, which is at the
fast speed whenever the run saw it, and wall_s is the sum over classes.
Raw pass times are kept in the report.

With tracing off the result holds the end-to-end metrics.  With tracing
on, half the budget runs untraced and half traced, and the result holds
the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import pfalab
from pfalab import sbox_analysis
from pfalab.sbox import AES_SBOX
from spans import LAYERS, Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 5
# The fastest sample of a class needs passes to choose from, and a
# fixed count keeps it comparable: certify's single pass takes 12-20 s,
# so a time budget alone would give it one pass or two by the hour.
MIN_PASSES = 2

# Interpreter start, imports and the guard's offline material, as a
# fresh `pfalab` process pays them.
_START_PROGRAM = (
    "import sys; sys.path.insert(0, sys.argv[1]); import pfalab.cli; "
    "from pfalab.sbox import AES_SBOX; "
    "from pfalab.sbox_analysis import build_detection_pair, "
    "build_redundant_tables; "
    "build_detection_pair(AES_SBOX); build_redundant_tables(AES_SBOX)"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "sbox_analysis.setup_self_s": "s",
    "rng.bytes": "B",
    "aes.blocks": "count",
    "aes.ns_per_block": "ns",
    "classic.dmr_mismatches": "count",
    "guard.detect.calls": "count",
    "guard.detect.self_s": "s",
    "guard.correct.calls": "count",
    "guard.correct.self_s": "s",
    "guard.sweeps": "count",
    "guard.unresolved": "count",
    "guard.converged_ratio": "ratio",
    "guard.precorrect.self_s": "s",
    "attack.accumulate.self_s": "s",
    "attack.blocks": "count",
    "attack.recover.self_s": "s",
    "attack.min_ct.self_s": "s",
    "attack.search.calls": "count",
    "attack.search.self_s": "s",
    "experiment.curve_rows": "count",
    "experiment.render.self_s": "s",
    "experiment.record_bytes": "B",
    "cli.input_bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


def tail(samples) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and that
    percentile.  With 10 samples or fewer it is the maximum (100)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def time_program_start(src: Path) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", _START_PROGRAM, str(src)],
                   check=True)
    return perf_counter() - start


def measure(workload, inputs, budget: float, checked: dict,
            tracer: Tracer | None = None) -> list:
    """Run passes while the next one, at the median pass time so far, is
    expected to end within the budget; always at least MIN_PASSES.

    checked maps an output digest to its failed-operation count.
    """
    passes = []
    while len(passes) < MIN_PASSES or (sum(p.wall for p in passes)
                         + statistics.median(p.wall for p in passes)
                         <= budget):
        if tracer is None:
            p = workload.run_pass(inputs)
        else:
            with tracer.installed():
                p = workload.run_pass(inputs)
        # Read before any check, whose parsing could raise the high-water
        # mark above the program's own.
        p.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.inspect(inputs, p)
        if p.digest not in checked:
            checked[p.digest] = workload.check(inputs, p)
        passes.append(p)
    return passes


def fast_pass_time(passes: list) -> float:
    """A pass's time with each class of identical steps at its fastest
    sample from every pass of the run."""
    fastest = defaultdict(lambda: float("inf"))
    for p in passes:
        for key, seconds in p.steps.items():
            fastest[key] = min(fastest[key], *seconds)
    return sum(len(seconds) * fastest[key]
               for key, seconds in passes[0].steps.items())


def failures(passes: list, checked: dict) -> int:
    """Failed operations; a pass unlike the first fails as a whole."""
    first = passes[0].digest
    return sum(checked[p.digest] if p.digest == first else p.ops
               for p in passes)


def end_to_end(passes: list, setup_s: float) -> tuple[dict, dict]:
    latencies = [x for p in passes for x in p.latencies]
    tail_s, percentile = tail(latencies)
    wall_s = fast_pass_time(passes)
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "ops_per_s": passes[0].ops / wall_s,
        "peak_rss_mb": passes[0].rss_mb,
    }
    # Reported, but not gated metrics: see README.md.
    detail = {"mean_pass_s": statistics.fmean(p.wall for p in passes),
              "op_ms_p50": 1e3 * statistics.median(latencies),
              "op_ms_tail": 1e3 * tail_s,
              "op_ms_tail_percentile": percentile,
              "latency_samples": len(latencies)}
    return metrics, detail


def per_layer(tracer: Tracer, traced: list, untraced: list,
              setup_tracer: Tracer) -> dict:
    """Per-layer metrics, each per traced pass, and the guard material's
    build time in one traced set-up."""
    n = len(traced)
    own = tracer.self_times()
    calls = tracer.calls()
    count = tracer.counters
    layers = tracer.layer_self_times()
    traced_wall = sum(p.wall for p in traced)

    def self_s(name):
        return own.get(name, 0.0) / n

    def per_pass(stat):
        return sum(p.stats.get(stat, 0) for p in traced) / n

    aes_batched = own.get("aes.encrypt_blocks", 0.0) + own.get(
        "aes.decrypt_blocks", 0.0)
    metrics = {f"{layer}.self_s": layers[layer] / n for layer in LAYERS}
    metrics.update({
        "sbox_analysis.setup_self_s":
            setup_tracer.layer_self_times()["sbox_analysis"],
        "rng.bytes": count["rng.bytes"] / n,
        "aes.blocks": count["aes.blocks"] / n,
        "aes.ns_per_block": (1e9 * aes_batched / count["aes.blocks"]
                             if count["aes.blocks"] else 0.0),
        "classic.dmr_mismatches": count["classic.dmr_mismatches"] / n,
        "guard.detect.calls": calls.get("guard.detect", 0) / n,
        "guard.detect.self_s": self_s("guard.detect"),
        "guard.correct.calls": calls.get("guard.correct", 0) / n,
        "guard.correct.self_s": self_s("guard.correct"),
        "guard.sweeps": count["guard.sweeps"] / n,
        "guard.unresolved": count["guard.unresolved"] / n,
        "guard.converged_ratio": (count["guard.converged"]
                                  / calls["guard.correct"]
                                  if calls.get("guard.correct") else 0.0),
        "guard.precorrect.self_s": self_s("guard.precorrect_table"),
        "attack.accumulate.self_s": self_s("attack.accumulate"),
        "attack.blocks": count["attack.blocks"] / n,
        "attack.recover.self_s": self_s("attack.recover_key_maxmin"),
        "attack.min_ct.self_s": self_s("attack.min_ciphertexts_to_recover"),
        "attack.search.calls": calls.get("attack.search_fault_values", 0) / n,
        "attack.search.self_s": self_s("attack.search_fault_values"),
        "experiment.curve_rows": per_pass("curve_rows"),
        "experiment.render.self_s": self_s("experiment.render_files"),
        "experiment.record_bytes": per_pass("record_bytes"),
        "cli.input_bytes": count["cli.input_bytes"] / n,
        "trace.wall_s": traced_wall / n,
        "trace.overhead_frac": (statistics.median(p.wall for p in traced)
                                / statistics.median(p.wall for p in untraced)
                                - 1.0),
        "trace.unattributed_frac": 1.0 - sum(layers.values()) / traced_wall,
    })
    return metrics


def _first_line(path: Path, key: str) -> str | None:
    try:
        for line in path.read_text().splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _llc() -> str | None:
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return f"L{best[0]} {best[1]}" if best else None


def _git_commit(root: Path) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_info(root: Path) -> dict:
    """Host and provenance recorded with every result."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "pfalab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _first_line(Path("/proc/cpuinfo"), "model name"),
        "llc": _llc(),
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
        "rng_algorithm": pfalab.RNG_ALGORITHM,
    }


def build_guard_material() -> None:
    """The in-process half of a set-up that every workload pays."""
    sbox_analysis.build_detection_pair(AES_SBOX)
    sbox_analysis.build_redundant_tables(AES_SBOX)


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: Path,
        size: str = "full", src: Path | None = None,
        spans_path: Path | None = None) -> dict:
    """One benchmark run; returns the result with every metric."""
    workload = WORKLOADS[name](size, work_dir / "run")
    setups = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None  # let the previous inputs go before building anew
        started = time_program_start(src) if src is not None else 0.0
        start = perf_counter()
        inputs = workload.setup(seed)
        setups.append(started + perf_counter() - start)
    warm = WORKLOADS[name]("toy", work_dir / "warmup")
    warm.run_pass(warm.setup(seed))
    # The harness's own inputs are not the program's garbage to scan.
    gc.collect()
    gc.freeze()
    checked: dict = {}
    try:
        if not trace:
            measured = measure(workload, inputs, seconds, checked)
            metrics, detail = end_to_end(measured, statistics.median(setups))
        else:
            setup_tracer = Tracer()
            with setup_tracer.installed():
                build_guard_material()
                workload.setup(seed)
            untraced = measure(workload, inputs, seconds / 2, checked)
            tracer = Tracer()
            traced = measure(workload, inputs, seconds / 2, checked, tracer)
            metrics = per_layer(tracer, traced, untraced, setup_tracer)
            detail = {"spans": len(tracer)}
            if spans_path is not None:
                tracer.save(spans_path)
            measured = untraced + traced
    finally:
        gc.unfreeze()
    attempted = sum(p.ops for p in measured)
    failed = failures(measured, checked)
    detail.update({
        "workload": name,
        "operation": workload.operation,
        "seed": seed,
        "trace": trace,
        "pass_walls_s": [p.wall for p in measured],
        "failed_fraction": failed / attempted,
        "artifact_bytes": measured[-1].stats.get("artifact_bytes", 0),
        "setup_runs_s": setups,
    })
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": detail}
