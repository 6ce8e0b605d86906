"""Classical redundancy countermeasures: DMR and byte scrambling.

Dual modular redundancy runs the cipher twice.  REDMR compares the two
ciphertexts; IDDMR decrypts module 1's ciphertext with the pristine
inverse table and compares against the plaintext.  On mismatch one of
three defenses fires: suppress the output (NCO), emit sixteen zero
bytes (ZCO), or emit random bytes (RCO).

Byte scrambling runs two full encryption paths A and B and, in the last
round's ShiftRows, routes each shifted byte from the other path when
(row + target column) is even.  A transient fault in one path's final
state thereby migrates to the other path's output, so the observed path
stays correct.  A persistent fault in a shared table corrupts both
paths identically, which the routing cannot hide.  Both paths add the
same round-10 key after the crossing, so it is done on the two paths'
ciphertexts.  With one table for both paths, path A stands in for path
B and the cipher runs once; the emitted path-B ciphertext is then
exactly the plain encryption, and a transient fault replaces one of its
bytes.

Both schemes are built on the public encrypt_blocks/decrypt_blocks of
pfalab.aes; the one-block calls are one-row batches of the (n, 16)
calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aes import (
    BLOCK_SIZE,
    DEFAULT_OPTIONS,
    INV_SHIFT_ROWS_PERM,
    NUM_ROUNDS,
    CipherOptions,
    _row,
    decrypt_blocks,
    encrypt_blocks,
)
from .rng import Rng
from .sbox import SBoxTable

REDMR = "redmr"
IDDMR = "iddmr"

NCO = "nco"
ZCO = "zco"
RCO = "rco"

MODULE_ONE_ONLY = "module_one"
SHARED = "shared"

OK = "ok"
SUPPRESSED = "suppressed"

ZERO_BLOCK = bytes(BLOCK_SIZE)


@dataclass(frozen=True)
class DmrConfig:
    """Mode, mismatch defense, and which modules the fault reaches.

    fault_scope module_one models independent per-module tables with
    only the observed module corrupted; shared models one table in
    memory feeding both modules, in which case REDMR's comparison can
    never fire.  IDDMR's second module holds the inverse table, which
    the forward-table fault does not reach, so scope does not affect it.
    """

    mode: str = REDMR
    defense: str = ZCO
    fault_scope: str = MODULE_ONE_ONLY

    def __post_init__(self):
        if self.mode not in (REDMR, IDDMR):
            raise ValueError(f"unknown DMR mode {self.mode!r}")
        if self.defense not in (NCO, ZCO, RCO):
            raise ValueError(f"unknown defense {self.defense!r}")
        if self.fault_scope not in (MODULE_ONE_ONLY, SHARED):
            raise ValueError(f"unknown fault scope {self.fault_scope!r}")


@dataclass(frozen=True)
class GuardedOutput:
    """What the device emits: a ciphertext unless NCO suppressed it.

    mismatch records whether the discriminator fired, independent of
    the defense applied.
    """

    status: str
    ciphertext: bytes | None
    mismatch: bool


def dmr_encrypt(
    plaintext: bytes,
    round_keys: list[bytes],
    pristine_table: SBoxTable,
    faulted_table: SBoxTable,
    cfg: DmrConfig,
    rng: Rng | None = None,
    options: CipherOptions = DEFAULT_OPTIONS,
) -> GuardedOutput:
    """One DMR-guarded encryption: dmr_encrypt_blocks on a one-row batch.

    Module 1 (the observed one) always encrypts with faulted_table;
    module 2's table follows cfg.fault_scope.  The mismatch predicate
    never depends on the defense chosen.
    """
    out, mismatch = dmr_encrypt_blocks(_row(plaintext), round_keys,
                                       pristine_table, faulted_table, cfg,
                                       rng, options)
    if mismatch[0] and cfg.defense == NCO:
        return GuardedOutput(status=SUPPRESSED, ciphertext=None, mismatch=True)
    return GuardedOutput(status=OK, ciphertext=out[0].tobytes(),
                         mismatch=bool(mismatch[0]))


def dmr_encrypt_blocks(
    plaintexts: np.ndarray,
    round_keys: list[bytes],
    pristine_table: SBoxTable,
    faulted_table: SBoxTable,
    cfg: DmrConfig,
    rng: Rng | None = None,
    options: CipherOptions = DEFAULT_OPTIONS,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched dmr_encrypt: returns (emitted blocks, mismatch mask).

    Under NCO the mismatched rows are still present in the array but
    carry no meaning; callers drop them via the mask.  Under ZCO they
    are zeroed, under RCO filled with seeded random bytes drawn in row
    order, so one call on n rows draws what n one-block calls draw.
    """
    c1 = encrypt_blocks(plaintexts, round_keys, faulted_table, options)
    if cfg.mode == REDMR:
        table2 = faulted_table if cfg.fault_scope == SHARED else pristine_table
        c2 = encrypt_blocks(plaintexts, round_keys, table2, options)
        mismatch = (c1 != c2).any(axis=1)
    else:
        back = decrypt_blocks(c1, round_keys, pristine_table.inverse(), options)
        mismatch = (back != plaintexts).any(axis=1)
    if cfg.defense == ZCO:
        c1[mismatch] = 0
    elif cfg.defense == RCO:
        count = int(mismatch.sum())
        if count:
            if rng is None:
                raise ValueError("RCO defense needs an rng")
            fill = np.frombuffer(rng.randbytes(count * BLOCK_SIZE), dtype=np.uint8)
            c1[mismatch] = fill.reshape(count, BLOCK_SIZE)
    return c1, mismatch


# Byte-routing parity for the last-round crossing: target 4*c + r takes
# its byte from the other path when (r + c) is even.
BS_CROSS = tuple((p % 4 + p // 4) % 2 == 0 for p in range(16))
_BS_CROSS_COLUMNS = np.flatnonzero(BS_CROSS)


def _bs_paths(plaintexts, round_keys, table_a, table_b, options,
              transient_b=None):
    """Both paths' (n, 16) ciphertexts before the crossing.

    The crossing moves whole last-round bytes and both paths then add
    the same round-10 key, so it commutes with AddRoundKey and acts on
    the ciphertexts.  transient_b=(position, value) overwrites one byte
    of path B's pre-shift last-round state in every block: the
    ciphertext byte that ShiftRows moves it to becomes value ^ k10 there.
    With one table for both paths, path B is path A.
    """
    if transient_b is not None:
        pos, value = transient_b
        if not (0 <= pos < BLOCK_SIZE and 0 <= value <= 0xFF):
            raise ValueError("transient_b must be a (position in 0..15, "
                             f"byte value) pair, got {transient_b!r}")
    path_a = encrypt_blocks(plaintexts, round_keys, table_a, options)
    path_b = path_a
    if table_b != table_a:
        path_b = encrypt_blocks(plaintexts, round_keys, table_b, options)
    if transient_b is not None:
        j = INV_SHIFT_ROWS_PERM[pos] if options.shift_rows_enabled else pos
        path_b = path_b.copy()
        path_b[:, j] = value ^ round_keys[NUM_ROUNDS][j]
    return path_a, path_b


def _bs_output(own, other):
    """One path's ciphertexts: its own bytes, except those the crossing
    routes from the other path."""
    if own is other:
        return own
    out = own.copy()
    out[:, _BS_CROSS_COLUMNS] = other[:, _BS_CROSS_COLUMNS]
    return out


def bs_encrypt_pair(
    plaintext: bytes,
    round_keys: list[bytes],
    table_a: SBoxTable,
    table_b: SBoxTable,
    options: CipherOptions = DEFAULT_OPTIONS,
    transient_b: tuple[int, int] | None = None,
) -> tuple[bytes, bytes]:
    """Both path outputs of a byte-scrambled encryption of one block.

    transient_b=(position, value) overwrites one byte of path B's
    pre-shift last-round state, modeling the transient fault the scheme
    is built to divert.
    """
    path_a, path_b = _bs_paths(_row(plaintext), round_keys, table_a,
                               table_b, options, transient_b)
    return (_bs_output(path_a, path_b)[0].tobytes(),
            _bs_output(path_b, path_a)[0].tobytes())


def bs_encrypt(
    plaintext: bytes,
    round_keys: list[bytes],
    table_a: SBoxTable,
    table_b: SBoxTable,
    options: CipherOptions = DEFAULT_OPTIONS,
    transient_b: tuple[int, int] | None = None,
) -> bytes:
    """The adversary-visible path-B ciphertext."""
    return bs_encrypt_pair(plaintext, round_keys, table_a, table_b,
                           options, transient_b)[1]


def bs_encrypt_blocks(
    plaintexts: np.ndarray,
    round_keys: list[bytes],
    table_a: SBoxTable,
    table_b: SBoxTable,
    options: CipherOptions = DEFAULT_OPTIONS,
) -> np.ndarray:
    """Batched path-B ciphertexts (the adversary's view)."""
    path_a, path_b = _bs_paths(plaintexts, round_keys, table_a, table_b,
                               options)
    return _bs_output(path_b, path_a)
