"""Seeded trial harness tying tables, faults and the attack together.

A trial draws a key, a fault pattern and a plaintext stream from
per-purpose substreams of the master seed, encrypts the stream under
the chosen implementation, and evaluates the ciphertext-only recovery
against what the device actually emitted.  Every randomness source is
labeled by (seed, trial, purpose), so two implementations run with the
same seed face identical keys, faults and plaintexts, and any single
trial can be replayed without rerunning the others.

Run artifacts are a config snapshot, one JSON record per trial, the
per-value distribution curves for the tracked trials, and the summary
table over minimum-ciphertext counts.  All files are pure functions of
the config; nothing time- or host-dependent is written.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .aes import (
    BLOCK_SIZE,
    block_from_hex,
    encrypt_blocks,
    key_expand,
)
from .attack import (
    GAP_THRESHOLD,
    accumulate,
    min_ciphertexts_to_recover,
    recover_key_maxmin,
)
from .classic import (
    IDDMR,
    MODULE_ONE_ONLY,
    NCO,
    RCO,
    REDMR,
    SHARED,
    ZCO,
    DmrConfig,
    bs_encrypt_blocks,
    dmr_encrypt_blocks,
)
from .faults import (
    BIT_FLIP,
    CLUSTERED,
    RANDOM_BYTE,
    SCATTERED,
    classify_case,
    inject,
    random_faults,
)
from .guard import (
    CorrectionReport,
    GuardConfig,
    correct,
    detect,
    precorrect_table,
)
from .rng import MASK64, RNG_ALGORITHM, Rng, derive_seed
from .sbox import AES_INV_SBOX, AES_SBOX
from .sbox_analysis import build_detection_pair, build_redundant_tables

ORI = "ori"
DMR = "dmr"
BS = "bs"
DC = "dc"
DC_PRECORRECT = "dc_precorrect"

SINGLE_FAULT = "single_fault"
MULTI_FAULT = "multi_fault"

# Every record's "schema": the version of the records.jsonl line layout.
RECORD_SCHEMA = 2


class ConfigError(ValueError):
    """An ExperimentConfig field is missing, malformed or inconsistent."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; the seed pins all randomness.

    fault_scope may be left None and is then resolved from the
    implementation (DMR gets per-module tables, byte scrambling a shared
    one).  key_hex fixes the key across trials; by default each trial
    draws its own.
    """

    implementation: str
    n_faults: int = 1
    placement: str = SCATTERED
    value_policy: str = RANDOM_BYTE
    n_ciphertexts: int = 10_000
    n_trials: int = 100
    seed: int = 0
    key_hex: str | None = None
    shift_rows: bool = True
    dmr_mode: str = REDMR
    dmr_defense: str = ZCO
    fault_scope: str | None = None
    dc_max_rounds: int = 2
    gap_threshold: int = GAP_THRESHOLD
    curve_trials: int = 1
    curve_positions: tuple = (0,)
    curve_grid: int = 100

    def __post_init__(self):
        if self.fault_scope is None:
            scope = SHARED if self.implementation == BS else MODULE_ONE_ONLY
            object.__setattr__(self, "fault_scope", scope)
        for name, accepted in CHOICES.items():
            value = getattr(self, name)
            if value not in accepted:
                raise ConfigError(f"unknown {name} {value!r}")
        # A bool or a float compares like an int but would be written to
        # config.json as such, or fail later inside a trial.
        for name in ("n_faults", "n_ciphertexts", "n_trials", "seed",
                     "dc_max_rounds", "gap_threshold", "curve_trials",
                     "curve_grid"):
            if type(getattr(self, name)) is not int:
                raise ConfigError(f"{name} must be an int")
        # Rng keeps a seed mod 2**64: a seed outside the range would
        # name the experiment of another seed.
        if not 0 <= self.seed <= MASK64:
            raise ConfigError("seed must be in 0..2**64-1")
        if not 1 <= self.n_faults <= 255:
            raise ConfigError("n_faults must be in 1..255")
        if self.n_ciphertexts < 1:
            raise ConfigError("n_ciphertexts must be positive")
        if self.n_trials < 1:
            raise ConfigError("n_trials must be positive")
        if type(self.shift_rows) is not bool:
            raise ConfigError("shift_rows must be a bool")
        if self.key_hex is not None:
            if not isinstance(self.key_hex, str):
                raise ConfigError("key_hex must be a str")
            try:
                block_from_hex(self.key_hex)
            except ValueError as exc:
                raise ConfigError(f"bad key_hex: {exc}") from exc
        if self.dc_max_rounds < 1:
            raise ConfigError("dc_max_rounds must be at least 1")
        if self.gap_threshold < 1:
            raise ConfigError("gap_threshold must be at least 1")
        if not 0 <= self.curve_trials <= self.n_trials:
            raise ConfigError("curve_trials must be in 0..n_trials")
        try:
            positions = tuple(self.curve_positions)
        except TypeError:
            raise ConfigError("curve positions must be iterable") from None
        # config.json and curves.csv print the positions: a bool or
        # numpy position would print as something else, or not at all.
        if any(type(p) is not int or not 0 <= p < BLOCK_SIZE
               for p in positions):
            raise ConfigError("curve positions must be integers in 0..15")
        object.__setattr__(self, "curve_positions", positions)
        if self.curve_grid < 1:
            raise ConfigError("curve_grid must be positive")

    @property
    def scenario(self) -> str:
        """multi_fault above one fault, else single_fault."""
        return MULTI_FAULT if self.n_faults > 1 else SINGLE_FAULT

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["scenario"] = self.scenario
        out["curve_positions"] = list(self.curve_positions)
        out["rng_algorithm"] = RNG_ALGORITHM
        return out


@dataclass
class ExperimentResult:
    """A run's records, plus the curve counts of its tracked trials:
    curves[t] is trial t's (position, grid point, value) count array."""

    config: ExperimentConfig
    records: list = field(default_factory=list)
    curves: list = field(default_factory=list)


# A device takes (config, round_keys, faulted, plaintexts, rco_rng) and
# returns the blocks it emits plus its own record fields.
def _ori(config, round_keys, faulted, plaintexts, rco_rng):
    return encrypt_blocks(plaintexts, round_keys, faulted,
                          shift_rows=config.shift_rows), {}


def _dmr(config, round_keys, faulted, plaintexts, rco_rng):
    """Under NCO a mismatched block is never emitted; under ZCO it is
    emitted as zeros, under RCO as seeded random bytes."""
    cfg = DmrConfig(mode=config.dmr_mode, defense=config.dmr_defense,
                    fault_scope=config.fault_scope)
    out, mismatch = dmr_encrypt_blocks(
        plaintexts, round_keys, AES_SBOX, faulted, cfg,
        rng=rco_rng, shift_rows=config.shift_rows)
    if cfg.defense == NCO:
        out = out[~mismatch]
    return out, {"dmr_mismatches": int(mismatch.sum())}


def _bs(config, round_keys, faulted, plaintexts, rco_rng):
    table_b = faulted if config.fault_scope == SHARED else AES_SBOX
    return bs_encrypt_blocks(plaintexts, round_keys, faulted, table_b,
                             shift_rows=config.shift_rows), {}


def _dc(config, round_keys, faulted, plaintexts, rco_rng):
    guard = GuardConfig(max_correction_rounds=config.dc_max_rounds)
    pair = _detection_pair()
    tables = _redundant_tables()
    detected = detect(faulted, pair)
    if detected:
        working, report = correct(faulted, tables, pair, guard)
    else:
        working, report = faulted, CorrectionReport(converged=True,
                                                    rounds_used=0)
    cts = encrypt_blocks(plaintexts, round_keys, working,
                         shift_rows=config.shift_rows)
    return cts, {
        "detected": detected,
        "correction": report.to_json_dict(),
        "table_restored": working == AES_SBOX,
    }


def _dc_precorrect(config, round_keys, faulted, plaintexts, rco_rng):
    effective = precorrect_table(faulted, _redundant_tables())
    cts = encrypt_blocks(plaintexts, round_keys, effective,
                         shift_rows=config.shift_rows)
    return cts, {"table_restored": effective == AES_SBOX}


_DEVICES = {ORI: _ori, DMR: _dmr, BS: _bs, DC: _dc,
            DC_PRECORRECT: _dc_precorrect}

IMPLEMENTATIONS = tuple(_DEVICES)

# The accepted values of each str field of ExperimentConfig, in the order
# `pfalab run --help` lists them.
CHOICES = {
    "implementation": IMPLEMENTATIONS,
    "placement": (SCATTERED, CLUSTERED),
    "value_policy": (RANDOM_BYTE, BIT_FLIP),
    "dmr_mode": (REDMR, IDDMR),
    "dmr_defense": (NCO, ZCO, RCO),
    "fault_scope": (MODULE_ONE_ONLY, SHARED),
}


@functools.cache
def _detection_pair():
    return build_detection_pair(AES_SBOX)


@functools.cache
def _redundant_tables():
    return build_redundant_tables(AES_SBOX)


def _curve_counts(public: np.ndarray, positions, grid_step: int):
    """Running per-value counts of the emitted stream: counts[i, j, value]
    is how often value was seen at byte positions[i] in the first
    (j + 1) * grid_step emitted blocks."""
    n_points = public.shape[0] // grid_step
    segment = np.repeat(np.arange(n_points), grid_step)
    counts = np.empty((len(positions), n_points, 256), dtype=np.int64)
    for i, position in enumerate(positions):
        seen = np.bincount(segment * 256 + public[:segment.size, position],
                           minlength=n_points * 256)
        np.cumsum(seen.reshape(n_points, 256), axis=0, out=counts[i])
    return counts


def run_trial(config: ExperimentConfig, trial: int):
    """Run one seeded trial and return (record, curve counts).

    The record is the JSON object of the trial's records.jsonl line.  The
    curve counts are _curve_counts' array for a tracked trial (trial <
    curve_trials) and None otherwise; render_files writes them to
    curves.csv.
    """
    key_rng = Rng(derive_seed(config.seed, trial, "key"))
    fault_rng = Rng(derive_seed(config.seed, trial, "fault"))
    pt_rng = Rng(derive_seed(config.seed, trial, "plaintext"))
    rco_rng = Rng(derive_seed(config.seed, trial, "rco"))

    if config.key_hex is not None:
        key = block_from_hex(config.key_hex)
    else:
        key = key_rng.randbytes(BLOCK_SIZE)
    round_keys = key_expand(key)
    true_k10 = round_keys[10]

    spec = random_faults(fault_rng, config.n_faults,
                         placement=config.placement,
                         value_policy=config.value_policy)
    faulted = inject(AES_SBOX, spec)

    raw = pt_rng.randbytes(BLOCK_SIZE * config.n_ciphertexts)
    plaintexts = np.frombuffer(raw, dtype=np.uint8).reshape(
        config.n_ciphertexts, BLOCK_SIZE)

    # Curves are drawn over every emitted block.  Under ZCO the attacker
    # leaves the all-zero blocks out of the histogram, and the
    # minimum-ciphertext scan skips them while still counting them.
    public, extras = _DEVICES[config.implementation](
        config, round_keys, faulted, plaintexts, rco_rng)
    zco_filter = config.implementation == DMR and config.dmr_defense == ZCO
    kept = public.any(axis=1) if zco_filter else None
    attack_stream = public if kept is None else public[kept]

    x0, e0 = spec.faults[0]
    v = x0
    v_star = AES_INV_SBOX[e0]

    counts = accumulate(attack_stream)
    recovery = recover_key_maxmin(counts, v, v_star,
                                  gap_threshold=config.gap_threshold)
    min_ct = min_ciphertexts_to_recover(
        attack_stream, true_k10, v, kept=kept)

    n_attack = attack_stream.shape[0]
    n_present = sum(1 for b in recovery.recovered if b is not None)
    n_correct = sum(1 for j, b in enumerate(recovery.recovered)
                    if b == true_k10[j])

    record = {
        "schema": RECORD_SCHEMA,
        "trial": trial,
        "implementation": config.implementation,
        "scenario": config.scenario,
        "seed": config.seed,
        "rng_algorithm": RNG_ALGORITHM,
        "key": key.hex(),
        "true_k10": true_k10.hex(),
        "fault_spec": spec.to_json_dict(),
        "fault_case": classify_case(spec),
        "v": v,
        "v_star": v_star,
        "n_emitted": int(public.shape[0]),
        "n_attack": n_attack,
        "min_ciphertexts": min_ct,
        "not_reached": min_ct is None,
        "recovery": recovery.to_json_dict(),
        "confident": [bool(flag) for flag in recovery.confident],
        "n_recovered": n_present,
        "n_correct": n_correct,
        "full_recovery": n_present == BLOCK_SIZE and n_correct == BLOCK_SIZE,
        "histogram": {"n": n_attack, "counts": counts.tolist()},
    }
    record.update(extras)
    curves = None
    if trial < config.curve_trials:
        curves = _curve_counts(public, config.curve_positions,
                               config.curve_grid)
    return record, curves


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    result = ExperimentResult(config=config)
    for trial in range(config.n_trials):
        record, curves = run_trial(config, trial)
        result.records.append(record)
        if curves is not None:
            result.curves.append(curves)
    return result


def _summary(records):
    """(stats, not-reached fraction) of one run's records.

    stats are the min, median and p90 (the value at rank ceil(0.9 n)) of
    the minimum counts of the trials that reached recovery, or None when
    no trial did.
    """
    reached = sorted(r["min_ciphertexts"] for r in records
                     if r["min_ciphertexts"] is not None)
    stats = None
    if reached:
        stats = (reached[0], statistics.median(reached),
                 reached[math.ceil(0.9 * len(reached)) - 1])
    return stats, (len(records) - len(reached)) / len(records)


def emit_table3(records) -> str:
    """Minimum-ciphertext summary of one run's records: a header and one
    row, named after the run's implementation.

    not_reached_fraction counts the trials that never reached recovery;
    a run with no reached trial gets NA statistics.
    """
    stats, fraction = _summary(records)
    low, mid, p90 = stats or ("NA",) * 3
    return ("implementation,min,median,p90,not_reached_fraction\n"
            f"{records[0]['implementation']},{low},{mid},{p90},{fraction}\n")


_CURVES_HEADER = "trial,position,value,n,probability\n"


# Grid points formatted at a time.  A block's lines are joined into one
# string, so a long stream's line pieces are never all held at once.
_BLOCK_POINTS = 128


def _curve_blocks(trial: int, positions, all_points: np.ndarray,
                 all_counts: np.ndarray):
    """Yield a tracked trial's curves.csv lines as text, a block of grid
    points at a time.

    Each (positions[i], all_points[j], value) gives the line
    trial,position,value,n,count / n (repr'd) for n = all_points[j] and
    count = all_counts[i, j, value], in all_counts order.  The heads are
    formatted once per position.  A block's tails are built per distinct
    (n, count) pair from its n texts and one repr per distinct count / n
    value, since many pairs share a probability.  The float64 division
    is correctly rounded, as Python's int / int is, so the probabilities
    equal the exact-integer ones.
    """
    for position, per_point in zip(positions, all_counts):
        heads = [f"{trial},{position},{value}" for value in range(256)]
        for start in range(0, all_points.size, _BLOCK_POINTS):
            points = all_points[start:start + _BLOCK_POINTS]
            counts = per_point[start:start + _BLOCK_POINTS]
            keys = counts * points.size + np.arange(points.size)[:, None]
            pairs, inverse = np.unique(keys, return_inverse=True)
            point_of_pair = pairs % points.size
            probabilities, text_of_pair = np.unique(
                pairs // points.size / points[point_of_pair],
                return_inverse=True)
            n_texts = np.array([f",{n}," for n in points.tolist()],
                               dtype=object)
            probability_texts = np.array(
                [f"{value!r}\n" for value in probabilities.tolist()],
                dtype=object)
            tails = n_texts[point_of_pair] + probability_texts[text_of_pair]
            pieces = np.empty((*counts.shape, 2), dtype=object)
            pieces[..., 0] = heads
            pieces[..., 1] = tails[inverse.reshape(counts.shape)]
            yield "".join(pieces.ravel().tolist())


def summarize(records) -> str:
    """Human-readable one-line digest of one run's records."""
    stats, fraction = _summary(records)
    full = sum(1 for r in records if r["full_recovery"])
    parts = [f"{records[0]['implementation']}: trials={len(records)}",
             f"full_recovery={full}"]
    if stats:
        parts += (f"{name}={value}" for name, value
                  in zip(("min", "median", "p90"), stats))
    parts.append(f"not_reached={fraction}")
    return "  ".join(parts) + "\n"


def _canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def render_files(result: ExperimentResult) -> dict:
    """The run directory's contents as filename -> text.

    Byte-for-byte reproducible: identical configs yield identical file
    contents, which `--check` relies on.  Each file is written from its
    own source: config.json from the config, records.jsonl from one
    canonical JSON line per record, curves.csv from the tracked trials'
    counts, whose grid points are the multiples of curve_grid, and
    table3.csv from the records.
    """
    config = result.config
    curves = [_CURVES_HEADER]
    for trial, counts in enumerate(result.curves):
        points = config.curve_grid * np.arange(1, counts.shape[1] + 1)
        curves += _curve_blocks(trial, config.curve_positions, points,
                                counts)
    return {
        "config.json": _canonical_json(config.to_json_dict()) + "\n",
        "records.jsonl": "".join(_canonical_json(record) + "\n"
                                 for record in result.records),
        "curves.csv": "".join(curves),
        "table3.csv": emit_table3(result.records),
    }


def write_run(result: ExperimentResult, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in render_files(result).items():
        (out / name).write_text(text)
    return out
