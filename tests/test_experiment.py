import dataclasses
import hashlib
import json

import numpy as np
import pytest

from pfalab import experiment
from pfalab.attack import recover_key_maxmin
from pfalab.classic import IDDMR, MODULE_ONE_ONLY, NCO, RCO, SHARED, ZCO
from pfalab.experiment import (
    CHOICES,
    ConfigError,
    Curves,
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
    for rounds in (0, 2.5, True):
        with pytest.raises(ConfigError):
            ExperimentConfig(implementation="dc", dc_max_rounds=rounds)
    # A bool or non-int count is rejected up front, not written to
    # config.json or left to fail inside a trial.
    for name in ("seed", "n_faults", "n_ciphertexts", "n_trials",
                 "gap_threshold", "curve_trials", "curve_grid"):
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
    curves = records[0]["curves"]
    assert curves.positions == (0, 7)
    assert curves.points.tolist() == [300, 600]
    assert curves.counts.shape == (2, 2, 256)
    # Each (position, n) bucket's 256 probabilities count / n sum to one.
    assert (curves.counts.sum(axis=2) == curves.points).all()


def test_curves_are_a_frozen_value():
    curves = run_trial(small(), 0)["curves"]
    copy = Curves(curves.positions, curves.points.copy(), curves.counts.copy())
    assert copy == curves and copy is not curves
    with pytest.raises(dataclasses.FrozenInstanceError):
        curves.counts = None
    with pytest.raises(ValueError):
        curves.counts[0, 0, 0] += 1
    counts = curves.counts.copy()
    counts[0, -1, 0] += 1
    assert dataclasses.replace(curves, counts=counts) != curves
    assert dataclasses.replace(curves, positions=(1,)) != curves


def _digests(result):
    files = render_files(result)
    return tuple(hashlib.sha256(files[name].encode()).hexdigest()
                 for name in ("records.jsonl", "curves.csv"))


# SHA-256 of records.jsonl and curves.csv as the per-row formatter wrote
# them before curve rows were formatted once for both files.
GOLDEN = {
    "two_tracked_positions": (
        dict(curve_trials=2, curve_positions=(0, 7)),
        "2414ffca8d4cc7a314f57f420b6bdf1c74f7c5e7b291ef03e7e296dded8b5c95",
        "3aa47e855a8570b54efdcfc4ddfb59eb2ebe706a6d214ef73650842726f84b67"),
    "dmr_nco_partial_grid": (
        dict(implementation="dmr", dmr_defense=NCO, curve_trials=2),
        "cc18c8e6f2cd85f28c906d1ade3fcd420ac0730bceeab1536bcc60f5c25af2b7",
        "6fe0aa3781c78a3ee611bc6135aa1ec9b064ee075ac75b0409788a88e61154b2"),
    "stream_below_grid": (
        dict(n_ciphertexts=150),
        "a1ee50e743beb3eff7b8b51e608d4eaddc15944b615c2f564224281bf17084db",
        "fd70025648cb285ac3c73a54e1d35140b8d4114627e2c4b05a5a671e30ae784d"),
    "untracked": (
        dict(curve_trials=0),
        "cdd5828ad3f8b84de549f4689fb3f70c7f2ec852aea74521e1ca5aa18d036942",
        "fd70025648cb285ac3c73a54e1d35140b8d4114627e2c4b05a5a671e30ae784d"),
    # One per device configuration, as the five-branch trial wrote them
    # before each --impl became its own device function.
    "bs_shared": (
        dict(implementation="bs", fault_scope=SHARED),
        "85e1e9357e596fdf4902f66d67ddea5d0a0b28609e11779f5d2d36d0fd68e068",
        "508ebcf1f019590c5bd80f8cf80efdd42b0ff86580a252dc53b05c1530168135"),
    "bs_module_one": (
        dict(implementation="bs", fault_scope=MODULE_ONE_ONLY),
        "41c6ec9688b35460aed94756080cab400fe27d2ae10d22997dd3201fe8311e9f",
        "508ebcf1f019590c5bd80f8cf80efdd42b0ff86580a252dc53b05c1530168135"),
    "bs_module_one_no_shiftrows": (
        dict(implementation="bs", fault_scope=MODULE_ONE_ONLY,
             shift_rows=False),
        "711f3489697b7bd47fb24041ac79801f8c91c88d8ab407d35d578abccc6c91b7",
        "6b270fbd816eb8492ca785c695df0feb22e44afc03218f8e659451a22fd9d018"),
    "dmr_zco": (
        dict(implementation="dmr", dmr_defense=ZCO),
        "3e6e9f9244d251e53c1c7e51848ca4073fe68236c6427dfae4d9670bd5351946",
        "e993053c83b850be5b1f80ffd14b5610319e3a24c71bf93f918e0080e786a950"),
    "dmr_rco": (
        dict(implementation="dmr", dmr_defense=RCO),
        "ff2bb9a4ad1210e80fa9335c4c706fa60d9be7f55ed172537a5892bb5470891d",
        "d1de6b9a489e924ca8fc087eeafc6a23005e9bbeaf2e7cdfcf896f7a8fa2f32d"),
    "dmr_iddmr": (
        dict(implementation="dmr", dmr_mode=IDDMR),
        "b6eb4d4675b477f179aa8bb67b5333bc13b21c33a7f89f9acc6073b9448f3fd7",
        "e993053c83b850be5b1f80ffd14b5610319e3a24c71bf93f918e0080e786a950"),
    "dmr_shared_scope": (
        dict(implementation="dmr", fault_scope=SHARED),
        "18931c9e2d54c72054d8c2de3f9dd2feba3afeb12cee44e70da826dcc6de1682",
        "508ebcf1f019590c5bd80f8cf80efdd42b0ff86580a252dc53b05c1530168135"),
    "dmr_iddmr_rco_3_faults": (
        dict(implementation="dmr", dmr_mode=IDDMR, dmr_defense=RCO,
             n_faults=3),
        "cc7e29d3647914f9b540c743c4762f0f7392f79e3d46aca0ad79b2e679ba1bb3",
        "61f536740b9fb1b33af2da3ee4c30f375e4cb1bc751c171ca426a912831e74ca"),
    "dc": (
        dict(implementation="dc"),
        "2e72dd65957fd819bddc0b0ed53645118b4c3c890d5d9cb074caf40a8a4e985f",
        "899047f66b00d502c9cb1e0ed858e103e262ccb94254459c92aca161567d9b95"),
    "dc_9_clustered_2_rounds": (
        dict(implementation="dc", n_faults=9, placement=CLUSTERED,
             dc_max_rounds=2),
        "9bfe3bcac02562ca0e45def51945533e66817ba41832d8bb7fa65fb4ee027424",
        "9bef2c713618fb1fe004ca2a2859e17e1b2d25082e737b84a0da3ebbc4de87e1"),
    "dc_9_clustered_16_rounds": (
        dict(implementation="dc", n_faults=9, placement=CLUSTERED,
             dc_max_rounds=16),
        "a6c2f33ccd82d49f0a6e71762379333ba33b388148a2cd9a6df1159b540d7eeb",
        "899047f66b00d502c9cb1e0ed858e103e262ccb94254459c92aca161567d9b95"),
    "dc_precorrect": (
        dict(implementation="dc_precorrect"),
        "54e711eeb415ee3afee74097ee3f9ac9acbf3c167c55fc45704cec05dc781e2a",
        "899047f66b00d502c9cb1e0ed858e103e262ccb94254459c92aca161567d9b95"),
    "dc_precorrect_4_bit_flips": (
        dict(implementation="dc_precorrect", n_faults=4,
             value_policy=BIT_FLIP),
        "cbecccf1ed4e970208a15dca4b40e7be64dba59e0870c7c2848e2de24ac04d5b",
        "899047f66b00d502c9cb1e0ed858e103e262ccb94254459c92aca161567d9b95"),
    "ori_no_shiftrows": (
        dict(shift_rows=False),
        "a1300e6d89d033233d2061f39adb2a9873d695e068a483701dea993bfd41a85a",
        "6b270fbd816eb8492ca785c695df0feb22e44afc03218f8e659451a22fd9d018"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_artifacts_match_golden_digests(case):
    overrides, records_sha, curves_sha = GOLDEN[case]
    result = run_experiment(small(**overrides))
    if case == "dmr_nco_partial_grid":
        assert all(r["n_emitted"] % 200 for r in result.records[:2])
    if case == "stream_below_grid":
        assert result.records[0]["curves"].counts.shape == (1, 0, 256)
    assert _digests(result) == (records_sha, curves_sha)


def test_exponent_probabilities_match_golden_digests():
    # Emitted values are near uniform, so no run at a feasible n prints
    # a probability below 1e-4; hand-made counts at n = 1e6 and 3e6 do.
    # The digests are of the per-row formatter's files for the same rows.
    result = run_experiment(small(n_trials=2))
    points = np.array([1_000_000, 3_000_000])
    counts = np.zeros((1, 2, 256), dtype=np.int64)
    for j, n in enumerate(points.tolist()):
        counts[0, j, :9] = (0, 1, 3, 7, 99, 100, 12345, n - 1, n)
    result.records[0]["curves"] = Curves((3,), points, counts)
    assert "1e-06" in render_files(result)["curves.csv"]
    assert _digests(result) == (
        "31d587fc3872fa5ac80655f295b83f2366e8d4bad36dd050701bc406bb066ac9",
        "858f5fedeb0b02cb52ab22ffc83ae3dc91ac82c2839edc9b7c3144877a1660e8")


def _reference_rows(curves):
    """The rows as lists, as records held them before they held counts."""
    return [[position, value, n, count / n]
            for position, per_point in zip(curves.positions,
                                           curves.counts.tolist())
            for n, per_value in zip(curves.points.tolist(), per_point)
            for value, count in enumerate(per_value)]


def _curves_case(positions, points, fill):
    points = np.asarray(points, dtype=np.int64)
    counts = np.empty((len(positions), points.size, 256), dtype=np.int64)
    for j, n in enumerate(points.tolist()):
        counts[:, j] = fill(n, counts[:, j].shape)
    return Curves(tuple(positions), points, counts)


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
    result = run_experiment(small(n_trials=3, curve_trials=0))
    for trial in (0, 2):
        result.records[trial]["curves"] = curves
    files = render_files(result)

    rows = _reference_rows(curves)
    expected = ["trial,position,value,n,probability\n"]
    expected += (f"{trial},{position},{value},{n},{probability!r}\n"
                 for trial in (0, 2)
                 for position, value, n, probability in rows)
    assert files["curves.csv"] == "".join(expected)
    lines = files["records.jsonl"].splitlines(keepends=True)
    assert lines[1] == experiment._canonical_json(result.records[1]) + "\n"
    for trial in (0, 2):
        record = {**result.records[trial], "curves": rows}
        assert lines[trial] == experiment._canonical_json(record) + "\n"
    if case == "exponent_form":
        assert ",1e-06\n" in files["curves.csv"]


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
    files = render_files(result)
    lines = files["curves.csv"].splitlines()
    assert lines == expected
    rows = [line.split(",", 1)[1] for line in lines[1:]]
    records = map(json.loads, files["records.jsonl"].splitlines())
    assert rows == [",".join(map(repr, row)) for record in records
                    for row in record.get("curves", ())]


def test_table3_statistics_and_na():
    def rec(impl, value):
        return {"implementation": impl, "min_ciphertexts": value}

    header = "implementation,min,median,p90,not_reached_fraction\n"
    ori = [rec("ori", 20), rec("ori", 10), rec("ori", None), rec("ori", 30)]
    assert emit_table3(ori) == header + "ori,10,20,30,0.25\n"
    dmr = [rec("dmr", None), rec("dmr", None)]
    assert emit_table3(dmr) == header + "dmr,NA,NA,NA,1.0\n"


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


# dmr defaults to ZCO, whose histogram leaves the zero blocks out, so
# it needs a longer stream for its key bytes to show.
@pytest.mark.parametrize("implementation,n", [("ori", 3000), ("dmr", 5000)])
def test_records_rescore_from_their_stored_histogram(implementation, n):
    config = small(implementation=implementation, n_ciphertexts=n,
                   n_trials=1, gap_threshold=4)
    text = render_files(run_experiment(config))["records.jsonl"]
    r = json.loads(text)
    counts = np.array(r["histogram"]["counts"])
    assert (counts.sum(axis=1) == r["histogram"]["n"]).all()
    assert r["histogram"]["n"] == r["n_attack"]
    assert (r["n_attack"] < r["n_emitted"]) == (implementation == "dmr")
    again = recover_key_maxmin(counts, r["v"], r["v_star"],
                               gap_threshold=r["config"]["gap_threshold"])
    assert again.to_json_dict() == r["recovery"]
    assert list(again.confident) == r["confident"]
    # Neither all nor none of the bytes pass, so the gate is exercised.
    assert 0 < sum(r["confident"]) < 16


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
