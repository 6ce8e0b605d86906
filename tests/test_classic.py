import hashlib

import numpy as np
import pytest

from pfalab.aes import (
    BLOCK_SIZE,
    CipherOptions,
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
    OK,
    RCO,
    REDMR,
    SHARED,
    SUPPRESSED,
    ZCO,
    ZERO_BLOCK,
    DmrConfig,
    bs_encrypt,
    bs_encrypt_blocks,
    bs_encrypt_pair,
    dmr_encrypt,
    dmr_encrypt_blocks,
)
from pfalab.faults import FaultSpec, inject, random_faults
from pfalab.rng import Rng
from pfalab.sbox import AES_SBOX, SBoxTable


def fresh_material(seed):
    rng = Rng(seed)
    key = rng.randbytes(BLOCK_SIZE)
    return rng, key, key_expand(key)


def test_dmr_config_validation():
    with pytest.raises(ValueError):
        DmrConfig(mode="triple")
    with pytest.raises(ValueError):
        DmrConfig(defense="explode")
    with pytest.raises(ValueError):
        DmrConfig(fault_scope="both")


def test_dmr_pristine_matches_plain_encryption():
    rng, _, rk = fresh_material(21)
    cfg = DmrConfig()
    for _ in range(200):
        pt = rng.randbytes(BLOCK_SIZE)
        out = dmr_encrypt(pt, rk, AES_SBOX, AES_SBOX, cfg)
        assert out.status == OK
        assert out.mismatch is False
        assert out.ciphertext == encrypt(pt, rk)


def test_redmr_module_one_fires_iff_fault_touched():
    rng, _, rk = fresh_material(22)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    cfg = DmrConfig(mode=REDMR, defense=ZCO, fault_scope=MODULE_ONE_ONLY)
    fired = 0
    for _ in range(300):
        pt = rng.randbytes(BLOCK_SIZE)
        out = dmr_encrypt(pt, rk, AES_SBOX, faulted, cfg)
        clean = encrypt(pt, rk)
        touched = encrypt(pt, rk, faulted) != clean
        assert out.mismatch == touched
        if touched:
            fired += 1
            assert out.ciphertext == ZERO_BLOCK
        else:
            assert out.ciphertext == clean
    assert 0 < fired < 300


def test_redmr_shared_fault_never_fires():
    rng, _, rk = fresh_material(23)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    cfg = DmrConfig(fault_scope=SHARED)
    for _ in range(200):
        pt = rng.randbytes(BLOCK_SIZE)
        out = dmr_encrypt(pt, rk, AES_SBOX, faulted, cfg)
        assert out.mismatch is False
        assert out.ciphertext == encrypt(pt, rk, faulted)


def test_iddmr_agrees_with_redmr_module_one():
    rng, _, rk = fresh_material(24)
    faulted = inject(AES_SBOX, FaultSpec(((0x13, 0x37),)))
    re_cfg = DmrConfig(mode=REDMR, fault_scope=MODULE_ONE_ONLY)
    id_cfg = DmrConfig(mode=IDDMR, fault_scope=MODULE_ONE_ONLY)
    for _ in range(200):
        pt = rng.randbytes(BLOCK_SIZE)
        a = dmr_encrypt(pt, rk, AES_SBOX, faulted, re_cfg)
        b = dmr_encrypt(pt, rk, AES_SBOX, faulted, id_cfg)
        assert a.mismatch == b.mismatch


def test_defenses_share_the_mismatch_predicate():
    rng, _, rk = fresh_material(25)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    for _ in range(100):
        pt = rng.randbytes(BLOCK_SIZE)
        outs = {
            defense: dmr_encrypt(pt, rk, AES_SBOX, faulted,
                                 DmrConfig(defense=defense), rng=Rng(1))
            for defense in (NCO, ZCO, RCO)
        }
        flags = {out.mismatch for out in outs.values()}
        assert len(flags) == 1
        if outs[ZCO].mismatch:
            assert outs[NCO].status == SUPPRESSED
            assert outs[NCO].ciphertext is None
            assert outs[ZCO].ciphertext == ZERO_BLOCK
            assert len(outs[RCO].ciphertext) == BLOCK_SIZE


def test_rco_needs_an_rng():
    rng, _, rk = fresh_material(26)
    faulted = inject(AES_SBOX, FaultSpec(((0x00, 0x00),)))
    cfg = DmrConfig(defense=RCO)
    with pytest.raises(ValueError):
        for _ in range(200):
            dmr_encrypt(rng.randbytes(BLOCK_SIZE), rk, AES_SBOX, faulted, cfg)


def test_dmr_batched_matches_scalar():
    rng, _, rk = fresh_material(27)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00), (0x91, 0x11))))
    pts = np.frombuffer(rng.randbytes(BLOCK_SIZE * 300), dtype=np.uint8)
    pts = pts.reshape(300, BLOCK_SIZE)
    for defense in (NCO, ZCO, RCO):
        cfg = DmrConfig(defense=defense)
        out, mask = dmr_encrypt_blocks(pts, rk, AES_SBOX, faulted, cfg,
                                       rng=Rng(55))
        scalar_rng = Rng(55)
        for i in range(300):
            res = dmr_encrypt(bytes(pts[i]), rk, AES_SBOX, faulted, cfg,
                              rng=scalar_rng)
            assert bool(mask[i]) == res.mismatch
            if res.ciphertext is not None:
                assert bytes(out[i]) == res.ciphertext


def test_bs_pristine_paths_match_plain_encryption():
    rng, _, rk = fresh_material(28)
    for _ in range(200):
        pt = rng.randbytes(BLOCK_SIZE)
        a, b = bs_encrypt_pair(pt, rk, AES_SBOX, AES_SBOX)
        clean = encrypt(pt, rk)
        assert a == clean
        assert b == clean


def test_bs_shared_fault_equals_plain_faulted_encryption():
    rng, _, rk = fresh_material(29)
    for trial in range(100):
        spec = random_faults(trial, 1)
        faulted = inject(AES_SBOX, spec)
        pt = rng.randbytes(BLOCK_SIZE)
        assert bs_encrypt(pt, rk, faulted, faulted) == \
            encrypt(pt, rk, faulted)


def test_bs_swapping_tables_swaps_outputs():
    rng, _, rk = fresh_material(30)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    for _ in range(100):
        pt = rng.randbytes(BLOCK_SIZE)
        a1, b1 = bs_encrypt_pair(pt, rk, AES_SBOX, faulted)
        a2, b2 = bs_encrypt_pair(pt, rk, faulted, AES_SBOX)
        assert (a1, b1) == (b2, a2)


def _corrupt_one_byte(pt, rk, q):
    # One of two values must differ from the actual pre-shift byte.
    for value in (0xAA, 0x55):
        a, b = bs_encrypt_pair(pt, rk, AES_SBOX, AES_SBOX,
                               transient_b=(q, value))
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


def test_bs_batched_matches_scalar():
    rng, _, rk = fresh_material(33)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    pts = np.frombuffer(rng.randbytes(BLOCK_SIZE * 200), dtype=np.uint8)
    pts = pts.reshape(200, BLOCK_SIZE)
    for table_a, table_b in ((AES_SBOX, faulted), (faulted, faulted)):
        cts = bs_encrypt_blocks(pts, rk, table_a, table_b)
        for i in range(0, 200, 11):
            assert bytes(cts[i]) == bs_encrypt(bytes(pts[i]), rk,
                                               table_a, table_b)


def test_bs_with_one_shared_table_is_plain_encryption():
    rng, _, rk = fresh_material(35)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00), (0x43, 0x01))))
    pts = np.frombuffer(rng.randbytes(BLOCK_SIZE * 301), dtype=np.uint8)
    pts = pts.reshape(301, BLOCK_SIZE)
    for table in (AES_SBOX, faulted):
        for options in (CipherOptions(), CipherOptions(False)):
            want = encrypt_blocks(pts, rk, table, options)
            # An equal table that is a different object shares as well.
            for table_b in (table, SBoxTable(table.entries)):
                assert (bs_encrypt_blocks(pts, rk, table, table_b, options)
                        == want).all()


def _crossed(own, other):
    return bytes(o if cross else w
                 for w, o, cross in zip(own, other, BS_CROSS))


def test_bs_two_tables_or_a_transient_still_run_two_paths():
    rng, _, rk = fresh_material(36)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    differed = 0
    for _ in range(40):
        pt = rng.randbytes(BLOCK_SIZE)
        a, b = bs_encrypt_pair(pt, rk, faulted, AES_SBOX)
        c_a, c_b = encrypt(pt, rk, faulted), encrypt(pt, rk)
        assert (a, b) == (_crossed(c_a, c_b), _crossed(c_b, c_a))
        differed += a != b
    assert differed
    # One table for both paths, but a transient in path B.
    pt = rng.randbytes(BLOCK_SIZE)
    clean = encrypt(pt, rk, faulted)
    for q in range(BLOCK_SIZE):
        pairs = [bs_encrypt_pair(pt, rk, faulted, faulted,
                                 transient_b=(q, value))
                 for value in (0xAA, 0x55)]
        assert any(a != b for a, b in pairs)
        assert all(clean in (a, b) for a, b in pairs)


def test_bs_without_shiftrows_still_pairs_up():
    rng, _, rk = fresh_material(34)
    options = CipherOptions(shift_rows_enabled=False)
    for _ in range(50):
        pt = rng.randbytes(BLOCK_SIZE)
        a, b = bs_encrypt_pair(pt, rk, AES_SBOX, AES_SBOX, options=options)
        clean = encrypt(pt, rk, options=options)
        assert a == clean and b == clean


# Golden vectors recorded from the byte-at-a-time reference rounds that
# preceded the batched kernel: FIPS-197 key and plaintext, entry 0x00
# faulted.
FIPS_KEY = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c")
FIPS_PT = block_from_hex("3243f6a8885a308d313198a2e0370734")
FAULTED_00 = AES_SBOX.with_entry(0x00, 0x00)


def test_bs_golden_pairs():
    rk = key_expand(FIPS_KEY)
    no_shift = CipherOptions(shift_rows_enabled=False)
    cases = (
        ((AES_SBOX, FAULTED_00), CipherOptions(), None,
         ("b525261d02ea0966ef11219719a60bef",
          "393b84354edc9efbdcf08511fc6ae732")),
        ((FAULTED_00, AES_SBOX), CipherOptions(), (6, 0xA5),
         ("393b84354edc9efbdcf08511fc6ae732",
          "b525261d02ea0966ef11219719a6a9ef")),
        ((FAULTED_00, AES_SBOX), no_shift, (6, 0xA5),
         ("de4a19166aca3b22cadbc5ce6af0c504",
          "de4a19166aca8022a414447c6af0c504")),
    )
    for (table_a, table_b), options, transient, want in cases:
        pair = bs_encrypt_pair(FIPS_PT, rk, table_a, table_b, options,
                               transient)
        assert tuple(c.hex() for c in pair) == want
        if transient is None:
            row = np.frombuffer(FIPS_PT, dtype=np.uint8).reshape(1, -1)
            cts = bs_encrypt_blocks(row, rk, table_a, table_b, options)
            assert cts[0].tobytes().hex() == want[1]


def test_dmr_golden_defenses():
    rk = key_expand(FIPS_KEY)
    for mode in (REDMR, IDDMR):
        for defense, status, want in (
                (NCO, SUPPRESSED, None),
                (ZCO, OK, "00" * BLOCK_SIZE),
                (RCO, OK, "5ac389a30c3b0363f83697934d3197c0")):
            out = dmr_encrypt(FIPS_PT, rk, AES_SBOX, FAULTED_00,
                              DmrConfig(mode=mode, defense=defense),
                              rng=Rng(5))
            assert out.mismatch is True
            assert out.status == status
            assert (out.ciphertext and out.ciphertext.hex()) == want


def test_golden_digests_of_faulted_cases(faulted_cases):
    h = hashlib.sha256()
    for i, rk, block, table, _ in faulted_cases:
        for options in (CipherOptions(), CipherOptions(False)):
            for pair in (bs_encrypt_pair(block, rk, table, AES_SBOX, options),
                         bs_encrypt_pair(block, rk, AES_SBOX, table, options,
                                         (i % 16, 37 * i % 256))):
                h.update(b"".join(pair))
    assert h.hexdigest() == \
        "1c9e3069a5bbf0e1a1d1f74f23c28ae345384f1073bccdc6ef93be7dcbcc54a0"
    h = hashlib.sha256()
    for mode in (REDMR, IDDMR):
        for defense in (NCO, ZCO, RCO):
            rng = Rng(7)  # one stream per configuration, drawn in order
            for _, rk, block, table, _ in faulted_cases:
                out = dmr_encrypt(block, rk, AES_SBOX, table,
                                  DmrConfig(mode, defense), rng)
                h.update(f"{out.status},{out.mismatch},".encode()
                         + (out.ciphertext or b"-"))
    assert h.hexdigest() == \
        "d83cf4545403ffbe91704d7840fecefb00a8cbff5d26aebdcf5cbf7574e98531"


@pytest.mark.parametrize("transient", [(-1, 0xA5), (16, 0xA5), (0, -1),
                                       (0, 0x100)])
def test_bs_rejects_transient_outside_the_block(transient):
    rk = key_expand(FIPS_KEY)
    with pytest.raises(ValueError, match="transient_b"):
        bs_encrypt_pair(FIPS_PT, rk, AES_SBOX, AES_SBOX,
                        transient_b=transient)
    with pytest.raises(ValueError, match="transient_b"):
        bs_encrypt(FIPS_PT, rk, AES_SBOX, AES_SBOX, transient_b=transient)


def test_classic_calls_reject_malformed_blocks():
    rk = key_expand(FIPS_KEY)
    cfg = DmrConfig()
    for block in (b"", FIPS_PT[:15], FIPS_PT + b"\x00"):
        with pytest.raises(ValueError, match="expected a 16-byte block"):
            bs_encrypt_pair(block, rk, AES_SBOX, AES_SBOX)
        with pytest.raises(ValueError, match="expected a 16-byte block"):
            bs_encrypt(block, rk, AES_SBOX, AES_SBOX, transient_b=(0, 1))
        with pytest.raises(ValueError, match="expected a 16-byte block"):
            dmr_encrypt(block, rk, AES_SBOX, AES_SBOX, cfg)
    for shape in ((16,), (4, 15), (4, 17)):
        blocks = np.zeros(shape, dtype=np.uint8)
        with pytest.raises(ValueError, match=r"expected an \(n, 16\) array"):
            bs_encrypt_blocks(blocks, rk, AES_SBOX, AES_SBOX)
        with pytest.raises(ValueError, match=r"expected an \(n, 16\) array"):
            dmr_encrypt_blocks(blocks, rk, AES_SBOX, AES_SBOX, cfg)
