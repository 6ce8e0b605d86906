"""pfalab's batched cipher, DMR and byte scrambling against the literal
FIPS-197 reference in fips197.py, on faulted, permuted and arbitrary
tables."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pfalab.aes import (
    decrypt_blocks,
    encrypt_blocks,
    inverse_key_expand,
    key_expand,
)
from pfalab.classic import (
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
from pfalab.rng import Rng
from pfalab.sbox import AES_SBOX, SBoxTable

from fips197 import INV_SBOX, SBOX, cipher, inv_cipher, key_expansion
from helpers import shuffle


def test_reference_meets_the_fips_vectors():
    # Appendix A.1's last schedule word, and the Appendix B and C.1
    # examples both ways; the S-box the reference computes is pfalab's.
    assert SBOX == AES_SBOX.entries
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    assert key_expansion(key)[10][12:] == bytes.fromhex("b6630ca6")
    for key, plaintext, ciphertext in (
            ("2b7e151628aed2a6abf7158809cf4f3c",
             "3243f6a8885a308d313198a2e0370734",
             "3925841d02dc09fbdc118597196a0b32"),
            ("000102030405060708090a0b0c0d0e0f",
             "00112233445566778899aabbccddeeff",
             "69c4e0d86a7b0430d8cdb78070b4c55a")):
        round_keys = key_expansion(bytes.fromhex(key))
        plaintext, ciphertext = (bytes.fromhex(plaintext),
                                 bytes.fromhex(ciphertext))
        assert cipher(plaintext, round_keys, SBOX) == ciphertext
        assert inv_cipher(ciphertext, round_keys, INV_SBOX) == plaintext


def _permutation(seed):
    entries = list(range(256))
    shuffle(Rng(seed), entries)
    return bytes(entries)


_BYTE = st.integers(0, 255)
_TABLES = st.one_of(
    # Faulted: one to eight entries of the S-box overwritten.
    st.dictionaries(_BYTE, _BYTE, min_size=1, max_size=8).map(
        lambda faults: bytes(faults.get(x, b)
                             for x, b in enumerate(SBOX))),
    # Permuted, by a seeded shuffle: one draw instead of 256.
    st.integers(0, 2**32).map(_permutation),
    st.binary(min_size=256, max_size=256))


def _rows(blocks):
    return np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(-1, 16)


def _dmr_reference(plaintexts, encrypt, round_keys, table, cfg, seed,
                   shift_rows):
    """dmr_encrypt_blocks by its docstring, on the reference, where
    encrypt(t) is the reference encryption of the plaintexts under t:
    module 1 encrypts with the faulted table; REDMR compares module 2's
    encryption, IDDMR the pristine decryption of c1 with the plaintext.
    ZCO zeroes a mismatched row and RCO fills it with the rng's bytes in
    row order; NCO's rows there carry no meaning and come out as None."""
    c1 = encrypt(table)
    if cfg.mode == REDMR:
        table2 = table if cfg.fault_scope == SHARED else SBOX
        mismatch = [a != b for a, b in zip(c1, encrypt(table2))]
    else:
        mismatch = [inv_cipher(c, round_keys, INV_SBOX, shift_rows) != p
                    for p, c in zip(plaintexts, c1)]
    fill = Rng(seed).randbytes(16 * sum(mismatch))
    emitted = []
    for c, bad in zip(c1, mismatch):
        if bad and cfg.defense == RCO:
            c, fill = fill[:16], fill[16:]
        elif bad:
            c = bytes(16) if cfg.defense == ZCO else None
        emitted.append(c)
    return emitted, mismatch


def _bs_reference(path_a, path_b):
    """bs_encrypt_blocks by its docstring: path B's bytes, except that
    target 4c + r takes path A's byte when r + c is even."""
    return [bytes(a[i] if (i % 4 + i // 4) % 2 == 0 else b[i]
                  for i in range(16)) for a, b in zip(path_a, path_b)]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(key=st.binary(min_size=16, max_size=16), table=_TABLES,
       plaintexts=st.lists(st.binary(min_size=16, max_size=16),
                           min_size=1, max_size=8),
       shift_rows=st.booleans(),
       dmr=st.builds(DmrConfig, st.sampled_from((REDMR, IDDMR)),
                     st.sampled_from((NCO, ZCO, RCO)),
                     st.sampled_from((MODULE_ONE_ONLY, SHARED))),
       seed=st.integers(0, 2**32), bs_shared=st.booleans())
def test_batched_cipher_matches_the_reference(key, table, plaintexts,
                                              shift_rows, dmr, seed,
                                              bs_shared):
    round_keys = key_expansion(key)
    assert key_expand(key) == round_keys
    assert inverse_key_expand(round_keys[10]) == key
    encryptions = {}

    def encrypt(t):
        if t not in encryptions:
            encryptions[t] = [cipher(p, round_keys, t, shift_rows)
                              for p in plaintexts]
        return encryptions[t]

    faulted = SBoxTable(table)
    ciphertexts = encrypt(table)
    assert encrypt_blocks(_rows(plaintexts), round_keys, faulted,
                          shift_rows=shift_rows).tobytes() == \
        b"".join(ciphertexts)
    # The drawn table also serves as an inverse table, whatever it is.
    assert decrypt_blocks(_rows(ciphertexts), round_keys, faulted,
                          shift_rows=shift_rows).tobytes() == b"".join(
        inv_cipher(c, round_keys, table, shift_rows) for c in ciphertexts)

    emitted, mismatch = dmr_encrypt_blocks(
        _rows(plaintexts), round_keys, AES_SBOX, faulted, dmr, Rng(seed),
        shift_rows=shift_rows)
    want, want_mismatch = _dmr_reference(plaintexts, encrypt, round_keys,
                                         table, dmr, seed, shift_rows)
    assert mismatch.tolist() == want_mismatch
    assert [bytes(row) if c is not None else None
            for row, c in zip(emitted, want)] == want

    table_b = table if bs_shared else SBOX
    assert bs_encrypt_blocks(
        _rows(plaintexts), round_keys, faulted, SBoxTable(table_b),
        shift_rows=shift_rows).tobytes() == b"".join(
        _bs_reference(ciphertexts, encrypt(table_b)))
