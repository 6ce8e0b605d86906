import json

import pytest

from pfalab.classic import MODULE_ONE_ONLY, NCO, RCO, SHARED
from pfalab.experiment import (
    ConfigError,
    ExperimentConfig,
    emit_table3,
    render_files,
    run_experiment,
    run_trial,
    write_run,
)


def small(**overrides):
    base = dict(implementation="ori", n_ciphertexts=600, n_trials=3,
                seed=5, curve_trials=1, curve_grid=200)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(implementation="tmr")
    with pytest.raises(ConfigError):
        ExperimentConfig(implementation="ori", n_faults=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(implementation="ori", n_faults=256)
    with pytest.raises(ConfigError):
        ExperimentConfig(implementation="ori", n_faults=1,
                         scenario="multi_fault")
    with pytest.raises(ConfigError):
        ExperimentConfig(implementation="ori", n_faults=2,
                         scenario="single_fault")
    with pytest.raises(ConfigError):
        ExperimentConfig(implementation="ori", key_hex="zz")
    with pytest.raises(ConfigError):
        ExperimentConfig(implementation="ori", curve_positions=(16,))
    with pytest.raises(ConfigError):
        ExperimentConfig(implementation="ori", n_trials=2, curve_trials=3)
    with pytest.raises(ConfigError):
        ExperimentConfig(implementation="dc", dc_max_rounds=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(implementation="dmr", dmr_defense="mirror")
    with pytest.raises(ConfigError):
        ExperimentConfig(implementation="ori", placement="striped")


def test_config_derivations():
    assert small().scenario == "single_fault"
    assert small(n_faults=3).scenario == "multi_fault"
    assert small().fault_scope == MODULE_ONE_ONLY
    assert small(implementation="bs").fault_scope == SHARED
    assert small(implementation="bs", fault_scope=MODULE_ONE_ONLY
                 ).fault_scope == MODULE_ONE_ONLY
    d = small().to_json_dict()
    assert d["scenario"] == "single_fault"
    assert d["curve_positions"] == [0]
    assert d["rng_algorithm"].startswith("splitmix64-ctr")


def test_runs_are_deterministic():
    config = small()
    first = render_files(run_experiment(config))
    second = render_files(run_experiment(config))
    assert first == second
    assert set(first) == {"config.json", "records.jsonl", "curves.csv",
                          "table3.csv"}


def test_seed_changes_the_data():
    a = run_experiment(small(seed=5)).records[0]
    b = run_experiment(small(seed=6)).records[0]
    assert a["key"] != b["key"]
    assert a["fault_spec"] != b["fault_spec"]


def test_trial_count_extends_the_prefix():
    threes = run_experiment(small(n_trials=3)).records
    fives = run_experiment(small(n_trials=5)).records

    def strip(record):
        # config carries n_trials itself, everything else must agree
        return {k: v for k, v in record.items() if k != "config"}

    for a, b in zip(threes, fives):
        assert strip(a) == strip(b)


def test_run_trial_matches_run_experiment():
    config = small()
    records = run_experiment(config).records
    assert run_trial(config, 2) == records[2]


def test_curves_only_on_tracked_trials():
    config = small(curve_trials=2, curve_positions=(0, 7), curve_grid=300)
    records = run_experiment(config).records
    assert "curves" in records[0] and "curves" in records[1]
    assert "curves" not in records[2]
    rows = records[0]["curves"]
    assert len(rows) == 2 * (600 // 300) * 256
    for n_seen in (300, 600):
        for position in (0, 7):
            bucket = [r for r in rows if r[0] == position and r[2] == n_seen]
            assert len(bucket) == 256
            assert sum(r[3] for r in bucket) == pytest.approx(1.0)


def test_table3_statistics_and_na():
    def rec(impl, value):
        return {"implementation": impl, "min_ciphertexts": value}

    rows = [rec("ori", 20), rec("ori", 10), rec("ori", None), rec("ori", 30),
            rec("dmr", None), rec("dmr", None)]
    lines = emit_table3(rows).strip().splitlines()
    assert lines[0] == "implementation,min,median,p90,not_reached_fraction"
    assert lines[1] == "ori,10,20,30,0.25"
    assert lines[2] == "dmr,NA,NA,NA,1.0"


def test_dmr_defenses_shape_the_emitted_stream():
    zco = run_trial(small(implementation="dmr"), 0)
    assert zco["n_emitted"] == 600
    assert zco["n_attack"] < 600
    assert zco["dmr_mismatches"] == 600 - zco["n_attack"]

    nco = run_trial(small(implementation="dmr", dmr_defense=NCO), 0)
    assert nco["n_emitted"] < 600
    assert nco["n_emitted"] == nco["n_attack"]

    rco = run_trial(small(implementation="dmr", dmr_defense=RCO), 0)
    assert rco["n_emitted"] == rco["n_attack"] == 600


def test_fixed_key_applies_to_every_trial():
    key = "000102030405060708090a0b0c0d0e0f"
    records = run_experiment(small(key_hex=key)).records
    assert all(r["key"] == key for r in records)
    assert len({r["fault_spec"]["faults"][0]["x"] for r in records}) > 1


def test_write_run_layout(tmp_path):
    result = run_experiment(small(n_trials=2, n_ciphertexts=400))
    out = write_run(result, tmp_path / "run")
    names = sorted(p.name for p in out.iterdir())
    assert names == ["config.json", "curves.csv", "records.jsonl",
                     "table3.csv"]
    lines = (out / "records.jsonl").read_text().splitlines()
    assert len(lines) == 2
    parsed = json.loads(lines[0])
    assert parsed["trial"] == 0
    assert parsed["implementation"] == "ori"
    assert parsed["histogram"]["n"] == 400
    config = json.loads((out / "config.json").read_text())
    assert config == result.config.to_json_dict()
