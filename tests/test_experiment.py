import hashlib
import json

import numpy as np
import pytest

from pfalab import experiment
from pfalab.attack import recover_key_maxmin
from pfalab.classic import IDDMR, MODULE_ONE_ONLY, NCO, RCO, SHARED, ZCO
from pfalab.experiment import (
    CHOICES,
    IMPLEMENTATIONS,
    ConfigError,
    ExperimentConfig,
    emit_table3,
    render_files,
    run_experiment,
    run_trial,
    write_run,
)
from pfalab.faults import BIT_FLIP, CLUSTERED


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
    # scenario is derived from n_faults, not set.
    with pytest.raises(TypeError):
        ExperimentConfig(implementation="ori", scenario="multi_fault")
    with pytest.raises(ConfigError):
        ExperimentConfig(implementation="ori", key_hex="zz")
    with pytest.raises(ConfigError):
        ExperimentConfig(implementation="ori", curve_positions=(16,))
    with pytest.raises(ConfigError):
        ExperimentConfig(implementation="ori", curve_positions=(True,))
    with pytest.raises(ConfigError):
        ExperimentConfig(implementation="ori", n_trials=2, curve_trials=3)
    with pytest.raises(ConfigError, match="curve_grid"):
        ExperimentConfig(implementation="ori", curve_grid=0)
    for rounds in (0, 2.5, True):
        with pytest.raises(ConfigError):
            ExperimentConfig(implementation="dc", dc_max_rounds=rounds)
    # A bool or non-int count is rejected up front, not written to
    # config.json or left to fail inside a trial.
    for name in ("seed", "n_faults", "n_ciphertexts", "n_trials",
                 "curve_trials", "curve_grid"):
        for value in (True, 2.0, 2.5, "2"):
            with pytest.raises(ConfigError, match=name):
                ExperimentConfig(implementation="ori", **{name: value})
    with pytest.raises(ConfigError):
        ExperimentConfig(implementation="dmr", dmr_defense="mirror")
    with pytest.raises(ConfigError):
        ExperimentConfig(implementation="ori", placement="striped")
    for name in CHOICES:
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig(**{"implementation": "ori", name: "striped"})
    # Wrong types end in ConfigError, never in a bare TypeError or in a
    # config.json that disagrees with the run.
    for value in ("no", 0, 1, None):
        with pytest.raises(ConfigError, match="shift_rows"):
            ExperimentConfig(implementation="ori", shift_rows=value)
    with pytest.raises(ConfigError, match="key_hex"):
        ExperimentConfig(implementation="ori", key_hex=123)
    with pytest.raises(ConfigError, match="curve positions"):
        ExperimentConfig(implementation="ori", curve_positions=5)


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
    threes = run_experiment(small(n_trials=3, curve_trials=2))
    fives = run_experiment(small(n_trials=5, curve_trials=2))
    # A record holds nothing of the config that n_trials changes.
    assert fives.records[:3] == threes.records
    assert len(fives.curves) == len(threes.curves) == 2
    assert all(map(np.array_equal, fives.curves, threes.curves))


def test_run_trial_matches_run_experiment():
    config = small()
    result = run_experiment(config)
    assert run_trial(config, 2) == (result.records[2], None)
    record, curves = run_trial(config, 0)
    assert record == result.records[0]
    assert np.array_equal(curves, result.curves[0])


def test_curves_only_on_tracked_trials():
    config = small(curve_trials=2, curve_positions=(0, 7), curve_grid=300)
    result = run_experiment(config)
    assert len(result.curves) == 2
    assert run_trial(config, 2)[1] is None
    counts = result.curves[0]
    assert counts.shape == (2, 2, 256)
    # Each (position, n) bucket's 256 probabilities count / n sum to one.
    assert (counts.sum(axis=2) == [300, 600]).all()


RECORD_KEYS = {
    "schema", "trial", "implementation", "scenario", "seed",
    "rng_algorithm", "key", "true_k10", "fault_spec", "fault_case", "v",
    "v_star", "n_emitted", "n_attack", "min_ciphertexts", "recovery",
    "n_recovered", "n_correct", "full_recovery", "histogram"}
DEVICE_KEYS = {"ori": set(), "dmr": {"dmr_mismatches"}, "bs": set(),
               "dc": {"detected", "correction", "table_restored"},
               "dc_precorrect": {"table_restored"}}
SCHEMA_CASES = {impl: dict(implementation=impl) for impl in IMPLEMENTATIONS}
SCHEMA_CASES["dc_9_clustered"] = dict(implementation="dc", n_faults=9,
                                      placement=CLUSTERED)
SCHEMA_CASES["ori_4_faults"] = dict(n_faults=4)


@pytest.mark.parametrize("case", sorted(SCHEMA_CASES))
def test_records_follow_schema_3(case):
    config = small(curve_trials=2, curve_positions=(0, 7),
                   **SCHEMA_CASES[case])
    result = run_experiment(config)
    files = render_files(result)
    records = [json.loads(line)
               for line in files["records.jsonl"].splitlines()]
    assert records == result.records
    for record in records:
        assert set(record) == RECORD_KEYS | DEVICE_KEYS[config.implementation]
        assert record["schema"] == 3
        assert set(record["recovery"]) == {"k10", "confidence"}
        assert record["scenario"] == config.scenario
    # A tracked trial's counts are written to curves.csv alone.
    assert '"config"' not in files["records.jsonl"]
    assert '"curves"' not in files["records.jsonl"]
    rows = np.array([line.split(",")
                     for line in files["curves.csv"].splitlines()[1:]],
                    dtype=float)
    assert len(rows) == sum(counts.size for counts in result.curves) > 0
    for trial, counts in enumerate(result.curves):
        cells = rows[rows[:, 0] == trial].reshape(*counts.shape, 5)
        n = cells[..., 3]
        assert (cells[..., 1] == np.array([0, 7])[:, None, None]).all()
        assert (cells[..., 2] == np.arange(256)).all()
        assert (n == 200 * np.arange(1, counts.shape[1] + 1)[:, None]).all()
        assert (cells[..., 4] == counts / n).all()


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(result):
    files = render_files(result)
    return _sha256(files["records.jsonl"]), _sha256(files["curves.csv"])


# SHA-256 of records.jsonl and curves.csv.  The curves.csv digests are
# of the per-row formatter's files; the records.jsonl ones are of schema
# 3 records, which hold neither the config nor the curve rows, nor a
# field that restates another.
GOLDEN = {
    "two_tracked_positions": (
        dict(curve_trials=2, curve_positions=(0, 7)),
        "82d6b5f18aeed3da94ca463d04c73be57a76e408c2b1c8876b7e22f46beb2ecf",
        "3aa47e855a8570b54efdcfc4ddfb59eb2ebe706a6d214ef73650842726f84b67"),
    "dmr_nco_partial_grid": (
        dict(implementation="dmr", dmr_defense=NCO, curve_trials=2),
        "e2d24a1b498d46cb8d21a0d9f0dd08343149bf07bebce3ddd253f04097836c3a",
        "6fe0aa3781c78a3ee611bc6135aa1ec9b064ee075ac75b0409788a88e61154b2"),
    "stream_below_grid": (
        dict(n_ciphertexts=150),
        "7961f7a5a614976b6c1699e5f164a65b5cff852e42f5a55debcbf4d46a21d992",
        "fd70025648cb285ac3c73a54e1d35140b8d4114627e2c4b05a5a671e30ae784d"),
    "untracked": (
        dict(curve_trials=0),
        "82d6b5f18aeed3da94ca463d04c73be57a76e408c2b1c8876b7e22f46beb2ecf",
        "fd70025648cb285ac3c73a54e1d35140b8d4114627e2c4b05a5a671e30ae784d"),
    # One per device configuration, as the five-branch trial wrote them
    # before each --impl became its own device function.
    "bs_shared": (
        dict(implementation="bs", fault_scope=SHARED),
        "94c22d2f5ac32948568e6f308cb503fae733fa3aa9feb4ea4d0c73e438fc8640",
        "508ebcf1f019590c5bd80f8cf80efdd42b0ff86580a252dc53b05c1530168135"),
    "bs_module_one": (
        dict(implementation="bs", fault_scope=MODULE_ONE_ONLY),
        "dca03f0f5503160e97e7336763b6191f427ea724c1b277324c1628d30514e822",
        "508ebcf1f019590c5bd80f8cf80efdd42b0ff86580a252dc53b05c1530168135"),
    "bs_module_one_no_shiftrows": (
        dict(implementation="bs", fault_scope=MODULE_ONE_ONLY,
             shift_rows=False),
        "85be08648ca770f059ee90f9958976156bcffe1ef9178d2b452139b37771ab58",
        "6b270fbd816eb8492ca785c695df0feb22e44afc03218f8e659451a22fd9d018"),
    "dmr_zco": (
        dict(implementation="dmr", dmr_defense=ZCO),
        "666d7ca9f33fecf7c2280b5363f49a087c2bcd780ee135844ba0d2cbfbe7df0b",
        "e993053c83b850be5b1f80ffd14b5610319e3a24c71bf93f918e0080e786a950"),
    "dmr_rco": (
        dict(implementation="dmr", dmr_defense=RCO),
        "a623a2bdb93a5cc30ac67b9877ee9eeb5d2040c994e0235302b0518f9a468ba0",
        "d1de6b9a489e924ca8fc087eeafc6a23005e9bbeaf2e7cdfcf896f7a8fa2f32d"),
    "dmr_iddmr": (
        dict(implementation="dmr", dmr_mode=IDDMR),
        "666d7ca9f33fecf7c2280b5363f49a087c2bcd780ee135844ba0d2cbfbe7df0b",
        "e993053c83b850be5b1f80ffd14b5610319e3a24c71bf93f918e0080e786a950"),
    "dmr_shared_scope": (
        dict(implementation="dmr", fault_scope=SHARED),
        "750968c6696b686705ec75440458308c56aeb24437f609235ef4a7f07c8b323d",
        "508ebcf1f019590c5bd80f8cf80efdd42b0ff86580a252dc53b05c1530168135"),
    "dmr_iddmr_rco_3_faults": (
        dict(implementation="dmr", dmr_mode=IDDMR, dmr_defense=RCO,
             n_faults=3),
        "aa69dcb33aa498792db295f2c8650261f532926b3e60e9e8e70579d9105b9528",
        "61f536740b9fb1b33af2da3ee4c30f375e4cb1bc751c171ca426a912831e74ca"),
    "dc": (
        dict(implementation="dc"),
        "23713e64440b26d2262169318696f6734224163083fcce19c3714052056ba23b",
        "899047f66b00d502c9cb1e0ed858e103e262ccb94254459c92aca161567d9b95"),
    "dc_9_clustered_2_rounds": (
        dict(implementation="dc", n_faults=9, placement=CLUSTERED,
             dc_max_rounds=2),
        "db38614bd765fc9104e7ba72bab290a4a77d46c52a78b292b6f8e3d67d725a3a",
        "9bef2c713618fb1fe004ca2a2859e17e1b2d25082e737b84a0da3ebbc4de87e1"),
    "dc_9_clustered_16_rounds": (
        dict(implementation="dc", n_faults=9, placement=CLUSTERED,
             dc_max_rounds=16),
        "6e5f12294ccfee5d6f5967914ac0045d5e54da75fa559d07bf57c528d330bf5e",
        "899047f66b00d502c9cb1e0ed858e103e262ccb94254459c92aca161567d9b95"),
    "dc_precorrect": (
        dict(implementation="dc_precorrect"),
        "24201a0550cd1d68bf9043e27895f71807928b7289f30f09e43cfd73fecdf88a",
        "899047f66b00d502c9cb1e0ed858e103e262ccb94254459c92aca161567d9b95"),
    "dc_precorrect_4_bit_flips": (
        dict(implementation="dc_precorrect", n_faults=4,
             value_policy=BIT_FLIP),
        "550a0a0ff9f0955eaaaa99142305bf239d8c53d22345bf5121aea507d32f2990",
        "899047f66b00d502c9cb1e0ed858e103e262ccb94254459c92aca161567d9b95"),
    "ori_no_shiftrows": (
        dict(shift_rows=False),
        "97360eea967c51bad8c6a7fb545528eb8eef78cf526dd659d937110f8cfb97a8",
        "6b270fbd816eb8492ca785c695df0feb22e44afc03218f8e659451a22fd9d018"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_artifacts_match_golden_digests(case):
    overrides, records_sha, curves_sha = GOLDEN[case]
    result = run_experiment(small(**overrides))
    if case == "dmr_nco_partial_grid":
        assert all(r["n_emitted"] % 200 for r in result.records[:2])
    if case == "stream_below_grid":
        assert result.curves[0].shape == (1, 0, 256)
    assert _digests(result) == (records_sha, curves_sha)


def test_exponent_probabilities_match_golden_digests():
    # Emitted values are near uniform, so no run at a feasible n prints
    # a probability below 1e-4; hand-made counts at n = 1e6 and 3e6 do.
    # The curves.csv digest is of the per-row formatter's file for the
    # same rows as trial 0's.
    points = np.array([1_000_000, 3_000_000])
    counts = np.zeros((1, 2, 256), dtype=np.int64)
    for j, n in enumerate(points.tolist()):
        counts[0, j, :9] = (0, 1, 3, 7, 99, 100, 12345, n - 1, n)
    curves = experiment._CURVES_HEADER + "".join(
        experiment._curve_blocks(0, (3,), points, counts))
    assert "1e-06" in curves
    records = render_files(run_experiment(small(n_trials=2)))["records.jsonl"]
    assert (_sha256(records), _sha256(curves)) == (
        "8de2056202c1a122ffb54c119ff5804fbbd4fb92da93e047dfc0ab0e8f96d1d2",
        "858f5fedeb0b02cb52ab22ffc83ae3dc91ac82c2839edc9b7c3144877a1660e8")


def _reference_rows(positions, points, counts):
    """The curves.csv rows without the trial column, as lists."""
    return [[position, value, n, count / n]
            for position, per_point in zip(positions, counts.tolist())
            for n, per_value in zip(points.tolist(), per_point)
            for value, count in enumerate(per_value)]


def _curves_case(positions, points, fill):
    points = np.asarray(points, dtype=np.int64)
    counts = np.empty((len(positions), points.size, 256), dtype=np.int64)
    for j, n in enumerate(points.tolist()):
        counts[:, j] = fill(n, counts[:, j].shape)
    return tuple(positions), points, counts


def _uniform(seed):
    draw = np.random.default_rng(seed)
    return lambda n, shape: draw.integers(0, n + 1, shape)


def _edges(n, shape):
    # counts 0 and n, and the exponent-form ratios 1/n, 3/n and 7/n
    row = np.resize([0, n, 1, 3, 7, n - 1, n // 3], shape[-1])
    return np.broadcast_to(np.minimum(row, n), shape)


CURVE_CASES = {
    "no_grid_points": lambda: _curves_case((0,), [], _uniform(1)),
    "no_positions": lambda: _curves_case((), [100, 200], _uniform(2)),
    "repeated_positions": lambda: _curves_case((5, 5, 2), [100, 200, 300],
                                               _uniform(3)),
    "more_points_than_a_block": lambda: _curves_case(
        (9,), np.arange(1, experiment._BLOCK_POINTS + 3) * 7, _uniform(4)),
    "zero_and_full_counts": lambda: _curves_case((0, 15), [1, 2, 100],
                                                 _edges),
    "exponent_form": lambda: _curves_case((3,), [1_000_000, 3_000_000],
                                          _edges),
}


@pytest.mark.parametrize("case", sorted(CURVE_CASES))
@pytest.mark.parametrize("block_points", [1, 2, None])
def test_curve_text_matches_the_per_row_formatter(case, block_points,
                                                  monkeypatch):
    if block_points is not None:
        monkeypatch.setattr(experiment, "_BLOCK_POINTS", block_points)
    curves = CURVE_CASES[case]()
    text = "".join(block for trial in (0, 2)
                   for block in experiment._curve_blocks(trial, *curves))
    expected = "".join(f"{trial},{position},{value},{n},{probability!r}\n"
                       for trial in (0, 2)
                       for position, value, n, probability
                       in _reference_rows(*curves))
    assert text == expected
    if case == "exponent_form":
        assert ",1e-06\n" in text


def test_curve_probabilities_are_exact_integer_ratios(monkeypatch):
    # Capture each trial's emitted stream as run_trial encrypts it.
    streams = []
    encrypt = experiment.encrypt_blocks

    def capture(*args, **kwargs):
        streams.append(encrypt(*args, **kwargs))
        return streams[-1]

    monkeypatch.setattr(experiment, "encrypt_blocks", capture)
    config = small(n_ciphertexts=1000, curve_trials=2, curve_positions=(0, 9),
                   curve_grid=100)
    result = run_experiment(config)
    expected = ["trial,position,value,n,probability"]
    for trial in range(config.curve_trials):
        for position in config.curve_positions:
            counts = [0] * 256
            column = streams[trial][:, position].tolist()
            for n_seen, byte in enumerate(column, 1):
                counts[byte] += 1
                if n_seen % config.curve_grid == 0:
                    expected += (f"{trial},{position},{value},{n_seen},"
                                 f"{count / n_seen!r}"
                                 for value, count in enumerate(counts))
    assert render_files(result)["curves.csv"].splitlines() == expected


def test_table3_statistics_and_na():
    def rec(impl, value):
        return {"implementation": impl, "min_ciphertexts": value}

    header = "implementation,min,median,p90,not_reached_fraction\n"
    ori = [rec("ori", 20), rec("ori", 10), rec("ori", None), rec("ori", 30)]
    assert emit_table3(ori) == header + "ori,10,20,30,0.25\n"
    dmr = [rec("dmr", None), rec("dmr", None)]
    assert emit_table3(dmr) == header + "dmr,NA,NA,NA,1.0\n"


def test_dmr_defenses_shape_the_emitted_stream():
    zco, _ = run_trial(small(implementation="dmr"), 0)
    assert zco["n_emitted"] == 600
    assert zco["n_attack"] < 600
    assert zco["dmr_mismatches"] == 600 - zco["n_attack"]

    nco, _ = run_trial(small(implementation="dmr", dmr_defense=NCO), 0)
    assert nco["n_emitted"] < 600
    assert nco["n_emitted"] == nco["n_attack"]

    rco, _ = run_trial(small(implementation="dmr", dmr_defense=RCO), 0)
    assert rco["n_emitted"] == rco["n_attack"] == 600


# dmr defaults to ZCO, whose histogram leaves the zero blocks out, so
# it needs a longer stream for its key bytes to show.
@pytest.mark.parametrize("implementation,n", [("ori", 3000), ("dmr", 5000)])
def test_records_rescore_from_their_stored_histogram(implementation, n):
    config = small(implementation=implementation, n_ciphertexts=n,
                   n_trials=1)
    r = json.loads(render_files(run_experiment(config))["records.jsonl"])
    counts = np.array(r["histogram"]["counts"])
    assert (counts.sum(axis=1) == r["histogram"]["n"]).all()
    assert r["histogram"]["n"] == r["n_attack"]
    assert (r["n_attack"] < r["n_emitted"]) == (implementation == "dmr")
    again = recover_key_maxmin(counts, r["v"])
    assert again.to_json_dict() == r["recovery"]


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
