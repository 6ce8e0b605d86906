"""Classical redundancy countermeasures: DMR and byte scrambling.

Dual modular redundancy runs the cipher twice.  REDMR compares the two
ciphertexts; IDDMR decrypts module 1's ciphertext with the pristine
inverse table and compares against the plaintext.  On mismatch one of
three defenses fires: suppress the output (NCO), emit sixteen zero
bytes (ZCO), or emit random bytes (RCO).  The modelled fault never
reaches the inverse table, and the pristine decryption D is a
bijection, so D(c1) = p exactly when c1 is the pristine encryption of
p: IDDMR flags the blocks that REDMR flags with only module 1 faulted.
Under this model the two modes emit the same stream and differ only in
cost.

Byte scrambling runs two full encryption paths A and B and, in the last
round's ShiftRows, routes each shifted byte from the other path when
(row + target column) is even.  A persistent fault in a shared table
corrupts both paths identically, which the routing cannot hide.  Both
paths add the same round-10 key after the crossing, so it is done on
the two paths' ciphertexts.  With one table for both paths, path A
stands in for path B and the cipher runs once; the emitted path-B
ciphertext is then exactly the plain encryption.

Both schemes are built on the public encrypt_blocks/decrypt_blocks of
pfalab.aes, and both take (n, 16) batches only: a single block is a
one-row batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aes import BLOCK_SIZE, decrypt_blocks, encrypt_blocks, nonzero_blocks
from .rng import Rng
from .sbox import SBoxTable

REDMR = "redmr"
IDDMR = "iddmr"

NCO = "nco"
ZCO = "zco"
RCO = "rco"

MODULE_ONE_ONLY = "module_one"
SHARED = "shared"


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


def dmr_encrypt_blocks(
    plaintexts: np.ndarray,
    round_keys: list[bytes],
    pristine_table: SBoxTable,
    faulted_table: SBoxTable,
    cfg: DmrConfig,
    rng: Rng | None = None,
    *,
    shift_rows: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """DMR-guarded encryption: returns (emitted blocks, mismatch mask).

    Module 1 (the observed one) always encrypts with faulted_table;
    module 2's table follows cfg.fault_scope, and module 1's ciphertexts
    stand in for its own when the tables are equal.  The mismatch
    predicate never depends on the defense chosen.

    Under NCO the mismatched rows are still present in the array but
    carry no meaning; callers drop them via the mask.  Under ZCO they
    are zeroed, under RCO filled with seeded random bytes drawn in row
    order, so one call on n rows draws what calls on consecutive chunks
    of those rows draw from the same rng.
    """
    c1 = encrypt_blocks(plaintexts, round_keys, faulted_table,
                        shift_rows=shift_rows)
    if cfg.mode == REDMR:
        table2 = faulted_table if cfg.fault_scope == SHARED else pristine_table
        c2 = c1 if table2 == faulted_table else encrypt_blocks(
            plaintexts, round_keys, table2, shift_rows=shift_rows)
        mismatch = nonzero_blocks(c1 ^ c2)
    else:
        back = decrypt_blocks(c1, round_keys, pristine_table.inverse(),
                              shift_rows=shift_rows)
        mismatch = nonzero_blocks(back ^ plaintexts)
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
_BS_CROSS_COLUMNS.flags.writeable = False


def bs_encrypt_blocks(
    plaintexts: np.ndarray,
    round_keys: list[bytes],
    table_a: SBoxTable,
    table_b: SBoxTable,
    *,
    shift_rows: bool = True,
) -> np.ndarray:
    """Path-B ciphertexts of a byte-scrambled encryption (the
    adversary's view): path B's bytes, except those the crossing routes
    from path A.  With one table for both paths, path B is path A."""
    path_a = encrypt_blocks(plaintexts, round_keys, table_a,
                            shift_rows=shift_rows)
    if table_b == table_a:
        return path_a
    path_b = encrypt_blocks(plaintexts, round_keys, table_b,
                            shift_rows=shift_rows)
    path_b[:, _BS_CROSS_COLUMNS] = path_a[:, _BS_CROSS_COLUMNS]
    return path_b
