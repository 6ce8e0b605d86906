import hashlib
from itertools import product

import numpy as np
import pytest

from pfalab import classic
from pfalab.aes import (
    BLOCK_SIZE,
    INV_SHIFT_ROWS_PERM,
    NUM_ROUNDS,
    block_from_hex,
    encrypt,
    encrypt_blocks,
    key_expand,
)
from pfalab.classic import (
    BS_CROSS,
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
from pfalab.faults import FaultSpec, inject, random_faults
from pfalab.rng import Rng
from pfalab.sbox import AES_SBOX, SBoxTable

from helpers import with_entry


def fresh_material(seed):
    rng = Rng(seed)
    key = rng.randbytes(BLOCK_SIZE)
    return rng, key, key_expand(key)


def blocks(rng, n):
    return np.frombuffer(rng.randbytes(BLOCK_SIZE * n),
                         dtype=np.uint8).reshape(n, BLOCK_SIZE)


def row(block):
    """One block as a one-row batch."""
    return np.frombuffer(block, dtype=np.uint8).reshape(1, BLOCK_SIZE)


def dmr_one(block, rk, faulted, cfg, rng=None):
    """What a DMR device emits for one block: (status, ciphertext or
    None, mismatch), with NCO's suppressed output as None."""
    out, mismatch = dmr_encrypt_blocks(row(block), rk, AES_SBOX, faulted,
                                       cfg, rng)
    if mismatch[0] and cfg.defense == NCO:
        return "suppressed", None, True
    return "ok", out[0].tobytes(), bool(mismatch[0])


def _crossed(own, other):
    return bytes(o if cross else w
                 for w, o, cross in zip(own, other, BS_CROSS))


def bs_pair(block, rk, table_a, table_b, shift_rows=True, transient_b=None):
    """Reference for both path outputs of a byte-scrambled encryption of
    one block, built from two plain encryptions.

    The crossing moves whole last-round bytes and both paths then add
    the same round-10 key, so it acts on the two ciphertexts.
    transient_b=(position, value) overwrites one byte of path B's
    pre-shift last-round state: the ciphertext byte that ShiftRows moves
    it to becomes value ^ k10 there.
    """
    path_a = encrypt(block, rk, table_a, shift_rows=shift_rows)
    path_b = bytearray(encrypt(block, rk, table_b, shift_rows=shift_rows))
    if transient_b is not None:
        pos, value = transient_b
        j = INV_SHIFT_ROWS_PERM[pos] if shift_rows else pos
        path_b[j] = value ^ rk[NUM_ROUNDS][j]
    return _crossed(path_a, path_b), _crossed(path_b, path_a)


def bs_reference(pts, rk, table_a, table_b, shift_rows=True):
    """bs_pair's path-A and path-B outputs for every row of pts, after
    checking that bs_encrypt_blocks emits exactly the path-B ones."""
    pairs = [bs_pair(pt.tobytes(), rk, table_a, table_b, shift_rows)
             for pt in pts]
    got = bs_encrypt_blocks(pts, rk, table_a, table_b, shift_rows=shift_rows)
    assert [c.tobytes() for c in got] == [b for _, b in pairs]
    return [a for a, _ in pairs], [b for _, b in pairs]


def test_dmr_config_validation():
    with pytest.raises(ValueError):
        DmrConfig(mode="triple")
    with pytest.raises(ValueError):
        DmrConfig(defense="explode")
    with pytest.raises(ValueError):
        DmrConfig(fault_scope="both")


def test_dmr_pristine_matches_plain_encryption():
    rng, _, rk = fresh_material(21)
    pts = blocks(rng, 200)
    out, mismatch = dmr_encrypt_blocks(pts, rk, AES_SBOX, AES_SBOX,
                                       DmrConfig())
    assert not mismatch.any()
    assert (out == encrypt_blocks(pts, rk)).all()


def test_redmr_module_one_fires_iff_fault_touched():
    rng, _, rk = fresh_material(22)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    cfg = DmrConfig(mode=REDMR, defense=ZCO, fault_scope=MODULE_ONE_ONLY)
    pts = blocks(rng, 300)
    out, mismatch = dmr_encrypt_blocks(pts, rk, AES_SBOX, faulted, cfg)
    clean = encrypt_blocks(pts, rk)
    touched = (encrypt_blocks(pts, rk, faulted) != clean).any(axis=1)
    assert (mismatch == touched).all()
    assert (out[touched] == 0).all()
    assert (out[~touched] == clean[~touched]).all()
    assert 0 < touched.sum() < 300


def test_redmr_shared_fault_never_fires():
    rng, _, rk = fresh_material(23)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    pts = blocks(rng, 200)
    out, mismatch = dmr_encrypt_blocks(pts, rk, AES_SBOX, faulted,
                                       DmrConfig(fault_scope=SHARED))
    assert not mismatch.any()
    assert (out == encrypt_blocks(pts, rk, faulted)).all()


@pytest.mark.parametrize("scope,calls", [(SHARED, 1), (MODULE_ONE_ONLY, 2)])
def test_redmr_encrypts_once_per_distinct_table(monkeypatch, scope, calls):
    # With one table in both modules, module 1's ciphertexts stand in for
    # module 2's.
    made = []

    def counting_encrypt(*args, **kwargs):
        made.append(args)
        return encrypt_blocks(*args, **kwargs)

    monkeypatch.setattr(classic, "encrypt_blocks", counting_encrypt)
    rng, _, rk = fresh_material(23)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    dmr_encrypt_blocks(blocks(rng, 20), rk, AES_SBOX, faulted,
                       DmrConfig(fault_scope=scope))
    assert len(made) == calls


def test_iddmr_agrees_with_redmr_module_one():
    # IDDMR's pristine decryption inverts exactly the pristine encryption
    # of REDMR's module 2, and the fault never reaches the inverse table,
    # so IDDMR under either scope emits REDMR's module-one stream.
    rng, _, rk = fresh_material(24)
    pts = blocks(rng, 200)
    specs = [FaultSpec(((0x13, 0x37),))]
    specs += [random_faults(Rng(seed), 1 + seed % 3) for seed in range(9)]
    for spec, defense, shift_rows in product(specs, (NCO, ZCO, RCO),
                                             (True, False)):
        faulted = inject(AES_SBOX, spec)

        def emit(mode, scope):
            return dmr_encrypt_blocks(pts, rk, AES_SBOX, faulted,
                                      DmrConfig(mode, defense, scope),
                                      rng=Rng(1), shift_rows=shift_rows)

        want, want_mask = emit(REDMR, MODULE_ONE_ONLY)
        assert want_mask.any() and not want_mask.all()
        for scope in (MODULE_ONE_ONLY, SHARED):
            out, mask = emit(IDDMR, scope)
            assert (mask == want_mask).all()
            assert (out == want).all()


def test_defenses_share_the_mismatch_predicate():
    rng, _, rk = fresh_material(25)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    pts = blocks(rng, 100)
    outs = {
        defense: dmr_encrypt_blocks(pts, rk, AES_SBOX, faulted,
                                    DmrConfig(defense=defense), rng=Rng(1))
        for defense in (NCO, ZCO, RCO)
    }
    mismatch = outs[NCO][1]
    assert mismatch.any()
    for _, mask in outs.values():
        assert (mask == mismatch).all()
    assert (outs[ZCO][0][mismatch] == 0).all()
    fill = Rng(1).randbytes(int(mismatch.sum()) * BLOCK_SIZE)
    assert outs[RCO][0][mismatch].tobytes() == fill


def test_rco_needs_an_rng():
    rng, _, rk = fresh_material(26)
    faulted = inject(AES_SBOX, FaultSpec(((0x00, 0x00),)))
    with pytest.raises(ValueError, match="RCO defense needs an rng"):
        dmr_encrypt_blocks(blocks(rng, 200), rk, AES_SBOX, faulted,
                           DmrConfig(defense=RCO))


def test_dmr_rco_draws_match_row_chunks():
    # One call on n rows draws what calls on consecutive chunks of those
    # rows draw from one rng, so trials may encrypt in chunks.
    rng, _, rk = fresh_material(27)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00), (0x91, 0x11))))
    pts = blocks(rng, 300)
    for mode in (REDMR, IDDMR):
        cfg = DmrConfig(mode=mode, defense=RCO)
        out, mismatch = dmr_encrypt_blocks(pts, rk, AES_SBOX, faulted, cfg,
                                           rng=Rng(55))
        chunk_rng = Rng(55)
        chunks = [dmr_encrypt_blocks(pts[a:b], rk, AES_SBOX, faulted, cfg,
                                     rng=chunk_rng)
                  for a, b in ((0, 1), (1, 8), (8, 300))]
        assert (np.concatenate([c[0] for c in chunks]) == out).all()
        assert (np.concatenate([c[1] for c in chunks]) == mismatch).all()
        assert mismatch[1:8].any() and mismatch[8:].any()
        assert not mismatch.all()


def test_bs_pristine_paths_match_plain_encryption():
    rng, _, rk = fresh_material(28)
    pts = blocks(rng, 200)
    clean = [c.tobytes() for c in encrypt_blocks(pts, rk)]
    assert bs_reference(pts, rk, AES_SBOX, AES_SBOX) == (clean, clean)


def test_bs_shared_fault_equals_plain_faulted_encryption():
    rng, _, rk = fresh_material(29)
    for trial in range(100):
        spec = random_faults(Rng(trial), 1)
        faulted = inject(AES_SBOX, spec)
        pts = blocks(rng, 3)
        assert (bs_encrypt_blocks(pts, rk, faulted, faulted)
                == encrypt_blocks(pts, rk, faulted)).all()


def test_bs_swapping_tables_swaps_outputs():
    rng, _, rk = fresh_material(30)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    pts = blocks(rng, 100)
    a1, b1 = bs_reference(pts, rk, AES_SBOX, faulted)
    a2, b2 = bs_reference(pts, rk, faulted, AES_SBOX)
    assert a1 == b2
    assert b1 == a2
    assert a1 != b1


def _corrupt_one_byte(pt, rk, q):
    # One of two values must differ from the actual pre-shift byte.
    for value in (0xAA, 0x55):
        a, b = bs_pair(pt, rk, AES_SBOX, AES_SBOX, transient_b=(q, value))
        clean = encrypt(pt, rk)
        if a != clean or b != clean:
            return a, b, clean
    raise AssertionError("transient fault never took effect")


def test_bs_transient_fault_migrates_to_the_other_path():
    rng, _, rk = fresh_material(31)
    pt = rng.randbytes(BLOCK_SIZE)
    crossed = 0
    for q in range(16):
        a, b, clean = _corrupt_one_byte(pt, rk, q)
        assert (a != clean) != (b != clean)  # exactly one path corrupted
        if b == clean:
            crossed += 1
    assert crossed == 8  # half the lanes divert to the unobserved path


def test_bs_transient_at_origin_lands_in_path_a():
    rng, _, rk = fresh_material(32)
    pt = rng.randbytes(BLOCK_SIZE)
    a, b, clean = _corrupt_one_byte(pt, rk, 0)
    assert b == clean
    assert a != clean
    assert a[0] != clean[0]
    assert a[1:] == clean[1:]


def test_bs_with_one_shared_table_is_plain_encryption():
    rng, _, rk = fresh_material(35)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00), (0x43, 0x01))))
    pts = blocks(rng, 301)
    for table in (AES_SBOX, faulted):
        for shift_rows in (True, False):
            want = encrypt_blocks(pts, rk, table, shift_rows=shift_rows)
            # An equal table that is a different object shares as well.
            for table_b in (table, SBoxTable(table.entries)):
                assert (bs_encrypt_blocks(pts, rk, table, table_b,
                                          shift_rows=shift_rows)
                        == want).all()


def test_bs_two_tables_or_a_transient_still_run_two_paths():
    rng, _, rk = fresh_material(36)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    pts = blocks(rng, 40)
    a, b = bs_reference(pts, rk, faulted, AES_SBOX)
    assert a != b
    # One table for both paths, but a transient in path B.
    pt = rng.randbytes(BLOCK_SIZE)
    clean = encrypt(pt, rk, faulted)
    for q in range(BLOCK_SIZE):
        pairs = [bs_pair(pt, rk, faulted, faulted, transient_b=(q, value))
                 for value in (0xAA, 0x55)]
        assert any(a != b for a, b in pairs)
        assert all(clean in (a, b) for a, b in pairs)


def test_bs_without_shiftrows_still_pairs_up():
    rng, _, rk = fresh_material(34)
    pts = blocks(rng, 50)
    clean = [c.tobytes() for c in encrypt_blocks(pts, rk, shift_rows=False)]
    assert bs_reference(pts, rk, AES_SBOX, AES_SBOX, False) == (clean, clean)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    a, b = bs_reference(pts, rk, faulted, AES_SBOX, False)
    assert a != b


# Golden vectors recorded from the byte-at-a-time reference rounds that
# preceded the batched kernel: FIPS-197 key and plaintext, entry 0x00
# faulted.
FIPS_KEY = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c")
FIPS_PT = block_from_hex("3243f6a8885a308d313198a2e0370734")
FAULTED_00 = with_entry(AES_SBOX, 0x00, 0x00)


def test_bs_golden_pairs():
    rk = key_expand(FIPS_KEY)
    cases = (
        ((AES_SBOX, FAULTED_00), True, None,
         ("b525261d02ea0966ef11219719a60bef",
          "393b84354edc9efbdcf08511fc6ae732")),
        ((FAULTED_00, AES_SBOX), True, (6, 0xA5),
         ("393b84354edc9efbdcf08511fc6ae732",
          "b525261d02ea0966ef11219719a6a9ef")),
        ((FAULTED_00, AES_SBOX), False, (6, 0xA5),
         ("de4a19166aca3b22cadbc5ce6af0c504",
          "de4a19166aca8022a414447c6af0c504")),
    )
    for (table_a, table_b), shift_rows, transient, want in cases:
        pair = bs_pair(FIPS_PT, rk, table_a, table_b, shift_rows, transient)
        assert tuple(c.hex() for c in pair) == want
        if transient is None:
            cts = bs_encrypt_blocks(row(FIPS_PT), rk, table_a, table_b,
                                    shift_rows=shift_rows)
            assert cts[0].tobytes().hex() == want[1]


def test_dmr_golden_defenses():
    rk = key_expand(FIPS_KEY)
    for mode in (REDMR, IDDMR):
        for defense, status, want in (
                (NCO, "suppressed", None),
                (ZCO, "ok", "00" * BLOCK_SIZE),
                (RCO, "ok", "5ac389a30c3b0363f83697934d3197c0")):
            got, ciphertext, mismatch = dmr_one(
                FIPS_PT, rk, FAULTED_00,
                DmrConfig(mode=mode, defense=defense), Rng(5))
            assert mismatch is True
            assert got == status
            assert (ciphertext and ciphertext.hex()) == want


def test_golden_digests_of_faulted_cases(faulted_cases):
    h = hashlib.sha256()
    for i, rk, block, table, _ in faulted_cases:
        for shift_rows in (True, False):
            pair = bs_pair(block, rk, table, AES_SBOX, shift_rows)
            cts = bs_encrypt_blocks(row(block), rk, table, AES_SBOX,
                                    shift_rows=shift_rows)
            assert cts[0].tobytes() == pair[1]
            h.update(b"".join(pair))
            h.update(b"".join(bs_pair(block, rk, AES_SBOX, table, shift_rows,
                                      (i % 16, 37 * i % 256))))
    assert h.hexdigest() == \
        "1c9e3069a5bbf0e1a1d1f74f23c28ae345384f1073bccdc6ef93be7dcbcc54a0"
    h = hashlib.sha256()
    for mode in (REDMR, IDDMR):
        for defense in (NCO, ZCO, RCO):
            rng = Rng(7)  # one stream per configuration, drawn in order
            for _, rk, block, table, _ in faulted_cases:
                status, ciphertext, mismatch = dmr_one(
                    block, rk, table, DmrConfig(mode, defense), rng)
                h.update(f"{status},{mismatch},".encode()
                         + (ciphertext or b"-"))
    assert h.hexdigest() == \
        "d83cf4545403ffbe91704d7840fecefb00a8cbff5d26aebdcf5cbf7574e98531"


def test_classic_calls_reject_malformed_blocks():
    rk = key_expand(FIPS_KEY)
    cfg = DmrConfig()
    for shape in ((16,), (4, 15), (4, 17)):
        blocks = np.zeros(shape, dtype=np.uint8)
        with pytest.raises(ValueError, match=r"expected an \(n, 16\) array"):
            bs_encrypt_blocks(blocks, rk, AES_SBOX, AES_SBOX)
        with pytest.raises(ValueError, match=r"expected an \(n, 16\) array"):
            dmr_encrypt_blocks(blocks, rk, AES_SBOX, AES_SBOX, cfg)
