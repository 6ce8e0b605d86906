import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pfalab import cli, experiment
from pfalab.aes import BLOCK_SIZE, encrypt_blocks, key_expand
from pfalab.cli import build_parser, main
from pfalab.experiment import IMPLEMENTATIONS, ExperimentConfig
from pfalab.faults import FaultSpec, inject
from pfalab.rng import Rng
from pfalab.sbox import AES_INV_SBOX, AES_SBOX


@pytest.fixture()
def stream_file(tmp_path):
    rng = Rng(77)
    key = rng.randbytes(BLOCK_SIZE)
    rk = key_expand(key)
    table = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    pts = np.frombuffer(rng.randbytes(BLOCK_SIZE * 6000), dtype=np.uint8)
    cts = encrypt_blocks(pts.reshape(6000, BLOCK_SIZE), rk, table)
    path = tmp_path / "stream.txt"
    path.write_text("".join(bytes(row).hex() + "\n" for row in cts))
    return path, rk[10]


def test_analyze_sbox_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze-sbox", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["t"] == 20
    assert len(report) == 8
    assert report["h_table"][0] == "1f"
    assert main(["analyze-sbox"]) == 0
    assert json.loads(capsys.readouterr().out) == report


def test_cost_table_on_stdout(capsys):
    assert main(["cost"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "implementation,lower,upper"
    assert "algo,120.25,184" in lines
    assert "dmr,200,200" in lines


def test_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "--impl", "ori", "--n", "400", "--trials", "2",
                 "--seed", "9", "--out", str(out), "--check"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("implementation,min,median,p90")
    assert "check passed" in stdout
    names = sorted(p.name for p in out.iterdir())
    assert names == ["config.json", "curves.csv", "records.jsonl",
                     "table3.csv"]
    config = json.loads((out / "config.json").read_text())
    assert config["implementation"] == "ori"
    assert config["n_ciphertexts"] == 400
    assert config["seed"] == 9


def test_run_check_renders_each_result_once(tmp_path, capsys, monkeypatch):
    renders = []
    render = experiment.render_files

    def counting_render(result):
        renders.append(result)
        return render(result)

    monkeypatch.setattr(experiment, "render_files", counting_render)
    monkeypatch.setattr(cli, "render_files", counting_render)
    # Two tracked trials, and NCO drops blocks, so the last grid segment
    # of the emitted stream is partial.
    argv = ["run", "--impl", "dmr", "--dmr-defense", "nco", "--trials", "3",
            "--n", "250", "--curve-trials", "2", "--check"]
    assert main([*argv, "--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out.endswith(
        "check passed: rerun reproduced all files\n")
    assert len(renders) == 2

    runs = []

    def tampered_rerun(config):
        result = experiment.run_experiment(config)
        if runs:
            # One count of the last grid point, one line of curves.csv.
            result.curves[1][-1, -1, 0] += 1
        runs.append(result)
        return result

    monkeypatch.setattr(cli, "run_experiment", tampered_rerun)
    assert main([*argv, "--out", str(tmp_path / "b")]) == 2
    captured = capsys.readouterr()
    assert "check passed" not in captured.out
    assert captured.err == "check failed: rerun produced different files\n"


def _run_dests():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {action.dest for action in sub.choices["run"]._actions}


def test_run_flags_are_config_fields():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert _run_dests() - fields == {"out", "check", "help"}


@pytest.mark.parametrize("impl", IMPLEMENTATIONS)
def test_run_takes_the_config_defaults(impl, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--impl", impl, "--trials", "1", "--n", "100",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    want = ExperimentConfig(implementation=impl, n_trials=1,
                            n_ciphertexts=100)
    assert json.loads((out / "config.json").read_text()) == \
        want.to_json_dict()


def test_run_passes_every_flag(tmp_path, capsys):
    flags = {
        "--impl": ("implementation", "dmr"),
        "--faults": ("n_faults", 3),
        "--placement": ("placement", "clustered"),
        "--value-policy": ("value_policy", "bit_flip"),
        "--n": ("n_ciphertexts", 150),
        "--trials": ("n_trials", 2),
        "--seed": ("seed", 7),
        "--key": ("key_hex", "000102030405060708090a0b0c0d0e0f"),
        "--dmr-mode": ("dmr_mode", "iddmr"),
        "--dmr-defense": ("dmr_defense", "rco"),
        "--fault-scope": ("fault_scope", "shared"),
        "--dc-rounds": ("dc_max_rounds", 3),
        "--gap-threshold": ("gap_threshold", 4),
        "--curve-trials": ("curve_trials", 2),
    }
    want = dict(flags.values(), shift_rows=False)
    assert set(want) == _run_dests() - {"out", "check", "help"}
    default = ExperimentConfig(implementation="ori")
    assert all(getattr(default, name) != value
               for name, value in want.items())
    out = tmp_path / "run"
    argv = ["run", "--no-shiftrows", "--out", str(out)]
    for flag, (_, value) in flags.items():
        argv += [flag, str(value)]
    assert main(argv) == 0
    capsys.readouterr()
    assert json.loads((out / "config.json").read_text()) == \
        ExperimentConfig(**want).to_json_dict()


def test_run_rejects_bad_flags(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--impl", "tmr", "--out", str(tmp_path / "x")])
    assert exc.value.code == 1
    capsys.readouterr()
    code = main(["run", "--impl", "ori", "--faults", "0",
                 "--out", str(tmp_path / "y")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_run_rejects_seed_outside_64_bits(tmp_path, capsys, seed):
    # Rng keeps a seed mod 2**64, so -1 would draw the keys of 2**64 - 1.
    out = tmp_path / "run"
    assert main(["run", "--impl", "ori", "--seed", seed, "--trials", "1",
                 "--n", "10", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be in 0..2**64-1\n"
    assert not out.exists()
    for bound in (0, (1 << 64) - 1):
        assert ExperimentConfig(implementation="ori", seed=bound).seed == bound


def test_run_reports_memory_error_in_one_line(tmp_path, capsys, monkeypatch):
    def run_experiment(config):
        raise MemoryError("Unable to allocate 146. TiB")

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    assert main(["run", "--impl", "ori", "--out", str(tmp_path / "run")]) == 1
    captured = capsys.readouterr()
    assert captured.err == \
        "error: out of memory: Unable to allocate 146. TiB\n"


def test_attack_with_known_hypothesis(stream_file, tmp_path, capsys):
    path, k10 = stream_file
    out = tmp_path / "attack.json"
    code = main(["attack", str(path), "--v", "0x42",
                 "--v-star", hex(AES_INV_SBOX[0x00]),
                 "--true-k10", k10.hex(),
                 "--hist-out", str(tmp_path / "hist.csv"),
                 "--out", str(out)])
    assert code == 0
    output = json.loads(out.read_text())
    assert output["k10"] == list(k10)
    assert output["v"] == 0x42
    assert 0 < output["min_ciphertexts"] <= 6000
    hist_lines = (tmp_path / "hist.csv").read_text().splitlines()
    assert hist_lines[0] == "position,value,count"
    assert len(hist_lines) == 1 + 16 * 256


@pytest.mark.parametrize("v,v_star,n_correct", [
    (0x42, AES_INV_SBOX[0x00], 16),
    # A wrong v still recovers 16 confident bytes, each off by
    # S[0] ^ S[0x42]; only the count against the truth shows it.
    (0x00, 0x92, 0),
])
def test_attack_counts_correct_bytes_against_a_true_key(
        stream_file, capsys, v, v_star, n_correct):
    path, k10 = stream_file
    assert main(["attack", str(path), "--v", hex(v), "--v-star", hex(v_star),
                 "--true-k10", k10.hex()]) == 0
    output = json.loads(capsys.readouterr().out)
    assert all(output["confident"])
    assert output["n_correct"] == n_correct
    assert output["n_correct"] == sum(
        1 for got, want in zip(output["k10"], k10) if got == want)
    # Without the truth there is nothing to count against.
    assert main(["attack", str(path), "--v", hex(v),
                 "--v-star", hex(v_star)]) == 0
    assert "n_correct" not in json.loads(capsys.readouterr().out)


def test_attack_search_mode(stream_file, capsys):
    path, k10 = stream_file
    assert main(["attack", str(path), "--search"]) == 0
    output = json.loads(capsys.readouterr().out)
    assert output["search"]["inconclusive"] is False
    # Ciphertext counts pin down only the output difference S[v]^S[v*],
    # so the reported key equals the truth up to that class offset.
    delta = AES_SBOX[output["v"]] ^ AES_SBOX[0x42]
    assert [b ^ delta for b in output["k10"]] == list(k10)
    # The search names that class and the 256 pairs tied in it.
    assert output["v"] == 0
    assert output["search"]["difference"] == AES_SBOX[0x42] ^ 0x00
    assert output["search"]["candidates"] == 256


def test_attack_argument_errors(stream_file, capsys):
    path, _ = stream_file
    assert main(["attack", str(path), "--v", "0x42"]) == 1
    assert main(["attack", str(path), "--search", "--v", "1"]) == 1
    capsys.readouterr()


def test_attack_search_refuses_a_true_key(tmp_path, capsys):
    # The search knows v only up to its class, so a minimum count scored
    # against v = 0 would read null on a stream that recovers.  The
    # combination is refused before the file is read.
    missing = tmp_path / "missing.txt"
    argv = ["attack", str(missing), "--search", "--true-k10", "00" * 16]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --true-k10 needs --v/--v-star, "
                            "not --search\n")


# The last two texts' hex bytes are not a whole number of blocks.  hex()
# counts its separators from the right, so a short first line would read
# back as one block per line were the length left unchecked.
@pytest.mark.parametrize("text,line", [
    pytest.param("00ff\n", 1, id="short-line"),
    pytest.param("00112233445566778899aabbccddeeff\n00ff\n", 2,
                 id="short-last-line"),
    pytest.param("00ff\n00112233445566778899aabbccddeeff\n", 1,
                 id="short-first-line"),
])
def test_attack_rejects_bad_hex(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main(["attack", str(bad), "--v", "1", "--v-star", "2"]) == 1
    err = capsys.readouterr().err
    assert f"bad.txt:{line}" in err


def _attack_output(path, capsys):
    assert main(["attack", str(path), "--search"]) == 0
    return capsys.readouterr().out


def test_attack_reads_crlf_and_blank_lines(stream_file, tmp_path, capsys):
    path, _ = stream_file
    expected = _attack_output(path, capsys)
    lines = path.read_text().splitlines()
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes("".join(line + "\r\n" for line in lines).encode())
    assert _attack_output(crlf, capsys) == expected
    padded = tmp_path / "padded.txt"
    padded.write_text("\n  \n" + "\n \t \n".join(" " + line for line in lines))
    assert _attack_output(padded, capsys) == expected
    unended = tmp_path / "unended.txt"
    unended.write_text("\n".join(lines))
    assert _attack_output(unended, capsys) == expected


def test_attack_names_the_first_uppercase_line(tmp_path, capsys):
    block = "00112233445566778899aabbccddeeff"
    bad = tmp_path / "upper.txt"
    bad.write_text(f"{block}\n\n{block}\n{block.upper()}\n{block}\n")
    assert main(["attack", str(bad), "--search"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {bad}:4: expected 32 lowercase hex "
                            f"chars, got {block.upper()!r}\n")


def test_attack_shortens_a_stream_on_one_line(tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.chdir(tmp_path)
    Path("one.txt").write_text("00112233445566778899aabbccddeeff" * 2000
                               + "\n")
    assert main(["attack", "one.txt", "--search"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 200
    assert captured.err.startswith("error: one.txt:1: expected 32 lowercase")
    assert "64000 chars" in captured.err


@pytest.mark.parametrize("text", ["", "\n \n\t\n"])
def test_attack_rejects_a_file_without_blocks(tmp_path, capsys, text):
    empty = tmp_path / "empty.txt"
    empty.write_text(text)
    assert main(["attack", str(empty), "--search"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {empty}: no ciphertext blocks\n"


def test_attack_names_a_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin.txt"
    bad.write_bytes(b"\xff00112233445566778899aabbccddeeff\n")
    assert main(["attack", str(bad), "--search"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flag,value", [("--v", "-1"), ("--v", "0x100"),
                                        ("--v-star", "-1"),
                                        ("--v-star", "0x100")])
def test_attack_rejects_out_of_range_index(stream_file, capsys, flag, value):
    path, _ = stream_file
    args = {"--v": "0x42", "--v-star": "0x52", flag: value}
    argv = ["attack", str(path)] + [x for kv in args.items() for x in kv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("value", ["0", "-1"])
def test_attack_rejects_gap_threshold_below_one(stream_file, capsys, value):
    path, _ = stream_file
    argv = ["attack", str(path), "--search", "--gap-threshold", value]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --gap-threshold")
    assert captured.err.count("\n") == 1


def test_attack_reports_gap_threshold(stream_file, capsys):
    path, _ = stream_file
    argv = ["attack", str(path), "--v", "0x42",
            "--v-star", hex(AES_INV_SBOX[0x00])]
    assert main(argv) == 0
    default = json.loads(capsys.readouterr().out)
    assert default["gap_threshold"] == 5
    assert default["confident"] == [True] * 16
    assert main(argv + ["--gap-threshold", "9999"]) == 0
    strict = json.loads(capsys.readouterr().out)
    assert strict["gap_threshold"] == 9999
    assert strict["confident"] == [False] * 16
    assert strict["k10"] == default["k10"]


def test_attack_missing_file_is_an_error(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    assert main(["attack", str(missing), "--search"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "missing.txt" in err


def test_run_infeasible_scatter_is_an_error(tmp_path, capsys):
    # Random draws of 24 cells almost never leave every cell with at
    # most one faulty neighbour; the rejection loop gives up after
    # 10,000 of them.
    out = tmp_path / "run"
    code = main(["run", "--impl", "ori", "--faults", "24", "--trials", "1",
                 "--n", "100", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: no best-case scatter of 24 faults in 10000 tries"]
    assert not out.exists()


def test_run_unwritable_out_is_an_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["run", "--impl", "ori", "--n", "100", "--trials", "1",
                 "--out", str(blocker / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def _fresh_process(argv):
    env = dict(os.environ, COLUMNS="80")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "pfalab.cli", *argv],
                          capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def _in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["run", "--impl", "tmr", "--out", "unused"],
    ["run", "--impl", "ori", "--n", "abc", "--out", "unused"],
    ["run", "--impl", "ori"],
    ["attack", "unused.txt", "--v", "zz", "--v-star", "1"],
], ids=["bad-choice", "non-int", "missing-required", "bad-v-literal"])
def test_usage_error_is_one_line(argv, capsys):
    code, out, err = _in_process(argv, capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")


def test_reused_parser_matches_fresh_processes(stream_file, capsys,
                                               monkeypatch):
    # main reuses one parser per process; a usage error must leave it
    # fit for the calls after it.
    monkeypatch.setenv("COLUMNS", "80")
    path, k10 = stream_file
    calls = (
        ["run", "--impl", "tmr", "--out", "unused"],
        ["attack", str(path), "--v", "0x42", "--v-star", "0x52",
         "--true-k10", k10.hex()],
        ["cost"],
    )
    for argv in calls:
        assert _in_process(argv, capsys) == _fresh_process(argv), argv
    assert _in_process(calls[0], capsys)[0] == 1
