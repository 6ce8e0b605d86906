"""The harness's own checks, at toy size.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import harness
import pfalab
import run
import workloads
from pfalab import cli, experiment, guard
from spans import WRAPPED, Tracer, resolve_owner
from workloads import WORKLOADS, Draws

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAMES = sorted(WORKLOADS)


def toy_run(name, tmp_path, trace=False):
    return harness.run(name, 5, 0.2, trace, tmp_path, size="toy")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_each_workload_runs_end_to_end(name, trace, tmp_path):
    result = toy_run(name, tmp_path, trace)
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert result["detail"]["failed_fraction"] == 0.0
    units = harness.PER_LAYER_UNITS if trace else harness.END_TO_END_UNITS
    assert set(result["metrics"]) == set(units)
    assert all(math.isfinite(v) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["sbox_analysis.setup_self_s"] > 0


def _wrong_key(original):
    def planted(*args, **kwargs):
        result = original(*args, **kwargs)
        wrong = tuple(1 if b is None else b ^ 1 for b in result.recovered)
        return dataclasses.replace(result, recovered=wrong)
    return planted


def _unrepaired(table, *args, **kwargs):
    return table, guard.CorrectionReport(converged=True, rounds_used=1)


PLANTED = {
    "sweep": (experiment, "recover_key_maxmin"),
    "attack_cli": (cli, "recover_key_maxmin"),
    "certify": (guard, "correct"),
}


@pytest.mark.parametrize("name", NAMES)
def test_planted_wrong_answer_is_counted(name, tmp_path, monkeypatch):
    owner, attr = PLANTED[name]
    original = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, _unrepaired if attr == "correct"
                        else _wrong_key(original))
    result = toy_run(name, tmp_path)
    assert result["failed"] > 0
    assert result["detail"]["failed_fraction"] > 0


def _unresolved_dropped(original):
    def planted(*args, **kwargs):
        fixed, report = original(*args, **kwargs)
        return fixed, dataclasses.replace(report, unresolved=())
    return planted


def test_certify_blocks_end_unresolved(tmp_path, monkeypatch):
    metrics = toy_run("certify", tmp_path, trace=True)["metrics"]
    assert metrics["guard.unresolved"] > 0
    monkeypatch.setattr(guard, "correct", _unresolved_dropped(guard.correct))
    assert toy_run("certify", tmp_path)["failed"] > 0


def _pass(**steps):
    return workloads.Pass(wall=1.0, ops=1, latencies=[], steps=steps,
                          outputs=None)


def test_fast_pass_time_takes_each_class_at_its_fastest_sample():
    passes = [_pass(a=[3.0, 4.0], b=[2.0]), _pass(a=[1.0, 5.0], b=[7.0])]
    # Two a-steps at the fastest a, one b-step at the fastest b.
    assert harness.fast_pass_time(passes) == 2 * 1.0 + 2.0


@pytest.mark.parametrize("name", ["sweep", "certify"])
def test_traced_self_times_sum_to_traced_wall(name, tmp_path):
    metrics = toy_run(name, tmp_path, trace=True)["metrics"]
    layers = sum(metrics[f"{layer}.self_s"] for layer in
                 ("rng", "faults", "aes", "classic", "sbox_analysis",
                  "guard", "attack", "experiment", "cli"))
    assert layers == pytest.approx(metrics["trace.wall_s"], rel=0.05)
    assert 0 <= metrics["trace.unattributed_frac"] < 0.05


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer._wrap(lambda: time.sleep(0.03), "aes.inner", None)

    def outer_body():
        time.sleep(0.02)
        inner()

    outer = tracer._wrap(outer_body, "classic.outer", None)
    outer()
    own = tracer.self_times()
    assert own["aes.inner"] == pytest.approx(0.03, abs=0.01)
    assert own["classic.outer"] == pytest.approx(0.02, abs=0.01)
    assert sum(own.values()) == pytest.approx(tracer.end[0] - tracer.start[0])


def _namespace_snapshot():
    owners = {name for name, _, _, _ in WRAPPED}
    return {(owner, key): value
            for owner in owners
            for key, value in vars(resolve_owner(owner)).items()}


@pytest.mark.parametrize("name", NAMES)
def test_wrappers_leave_pfalab_unpatched(name, tmp_path):
    before = _namespace_snapshot()
    toy_run(name, tmp_path, trace=True)
    after = _namespace_snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_wrappers_restored_after_an_error():
    before = _namespace_snapshot()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert cli.main is not before[("pfalab.cli", "main")]
            raise RuntimeError
    assert all(_namespace_snapshot()[key] is value
               for key, value in before.items())


def test_draws_depend_only_on_seed_and_label():
    assert (Draws(7, "a").bytes(64) == Draws(7, "a").bytes(64)).all()
    assert (Draws(7, "a").bytes(64) != Draws(8, "a").bytes(64)).any()
    assert (Draws(7, "a").bytes(64) != Draws(7, "b").bytes(64)).any()
    assert Draws(7, "a").below(3, 1000).max() == 2


def test_latency_quantiles():
    assert harness.tail(range(1, 101)) == (90, 90.0)
    assert harness.tail([3, 1, 2]) == (3, 100.0)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        harness.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        harness.PER_LAYER_UNITS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
    assert pfalab.__file__.startswith(str(ROOT / "src"))
