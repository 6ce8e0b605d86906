import hashlib
from functools import cache, partial

import numpy as np
import pytest

from pfalab import aes, classic
from pfalab.aes import (
    BLOCK_SIZE,
    SHIFT_ROWS_PERM,
    _pairs,
    _row,
    _sub,
    _words,
    _xtime_words,
    block_from_hex,
    block_to_hex,
    decrypt_blocks,
    encrypt,
    encrypt_blocks,
    inverse_key_expand,
    key_expand,
    nonzero_blocks,
)
from pfalab.faults import FaultSpec, inject
from pfalab.rng import Rng
from pfalab.sbox import AES_INV_SBOX, AES_SBOX, SBoxTable

from helpers import shuffle, with_entry

FIPS_KEY = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c")
FIPS_PT = block_from_hex("3243f6a8885a308d313198a2e0370734")
FIPS_CT = block_from_hex("3925841d02dc09fbdc118597196a0b32")


def decrypt(ciphertext, round_keys, inv_table=AES_INV_SBOX, *,
            shift_rows=True):
    """One block through decrypt_blocks, as encrypt runs one through
    encrypt_blocks."""
    return decrypt_blocks(_row(ciphertext), round_keys, inv_table,
                          shift_rows=shift_rows)[0].tobytes()


def test_fips_example_vector():
    assert encrypt(FIPS_PT, key_expand(FIPS_KEY)) == FIPS_CT


def test_fips_appendix_c1_vector():
    key = block_from_hex("000102030405060708090a0b0c0d0e0f")
    pt = block_from_hex("00112233445566778899aabbccddeeff")
    ct = block_from_hex("69c4e0d86a7b0430d8cdb78070b4c55a")
    assert encrypt(pt, key_expand(key)) == ct


def test_last_round_key_value():
    rk = key_expand(FIPS_KEY)
    assert rk[10] == block_from_hex("d014f9a8c9ee2589e13f0cc8b6630ca6")
    assert len(rk) == 11
    assert rk[0] == FIPS_KEY


def test_block_hex_round_trip():
    assert block_to_hex(FIPS_PT) == "3243f6a8885a308d313198a2e0370734"
    with pytest.raises(ValueError):
        block_from_hex("00")
    with pytest.raises(ValueError):
        block_from_hex("zz" * 16)


def _one_byte_rows():
    rows = np.zeros((BLOCK_SIZE, BLOCK_SIZE), dtype=np.uint8)
    rows[np.arange(BLOCK_SIZE), np.arange(BLOCK_SIZE)] = 0x80
    return rows


_WIDE = np.random.default_rng(8).integers(0, 256, (40, 40), dtype=np.uint8)
_WIDE[::3] = 0


@pytest.mark.parametrize("blocks", [
    pytest.param(np.random.default_rng(7).integers(
        0, 256, (300, BLOCK_SIZE), dtype=np.uint8), id="random"),
    # One nonzero byte, at each of the 16 positions in turn.
    pytest.param(_one_byte_rows(), id="one-byte"),
    pytest.param(np.zeros((5, BLOCK_SIZE), dtype=np.uint8), id="all-zero"),
    pytest.param(np.zeros((0, BLOCK_SIZE), dtype=np.uint8), id="empty"),
    # Rows 40 bytes apart, starting 3 bytes in: a view that is neither
    # contiguous nor word-aligned.
    pytest.param(_WIDE[:, 3:3 + BLOCK_SIZE], id="strided-view"),
])
def test_nonzero_blocks_matches_any(blocks):
    mask = nonzero_blocks(blocks)
    assert mask.dtype == bool
    assert np.array_equal(mask, blocks.any(axis=1))


def test_encrypt_decrypt_inverse():
    rng = Rng(41)
    for _ in range(1000):
        key = rng.randbytes(BLOCK_SIZE)
        pt = rng.randbytes(BLOCK_SIZE)
        rk = key_expand(key)
        assert decrypt(encrypt(pt, rk), rk) == pt


def test_inverse_without_shiftrows():
    rng = Rng(42)
    for _ in range(200):
        key = rng.randbytes(BLOCK_SIZE)
        pt = rng.randbytes(BLOCK_SIZE)
        rk = key_expand(key)
        ct = encrypt(pt, rk, shift_rows=False)
        assert ct != encrypt(pt, rk)
        assert decrypt(ct, rk, shift_rows=False) == pt


def test_inverse_key_expand_round_trip():
    rng = Rng(43)
    for _ in range(1000):
        key = rng.randbytes(BLOCK_SIZE)
        assert inverse_key_expand(key_expand(key)[10]) == key


def test_shift_rows_permutation_shape():
    # Row r of the state rotates left by r positions (column-major index).
    assert SHIFT_ROWS_PERM[0] == 0
    assert SHIFT_ROWS_PERM[1] == 5
    assert SHIFT_ROWS_PERM[2] == 10
    assert SHIFT_ROWS_PERM[3] == 15
    assert sorted(SHIFT_ROWS_PERM) == list(range(16))


@cache
def _entries_that_change_fips_ct(flip):
    # The table entries whose flip by `flip` changes the FIPS-197 B
    # ciphertext, found by trying every entry in turn.
    rk = key_expand(FIPS_KEY)
    return frozenset(
        x for x in range(256)
        if encrypt(FIPS_PT, rk,
                   with_entry(AES_SBOX, x, AES_SBOX[x] ^ flip)) != FIPS_CT)


def test_trace_collects_table_indices():
    # The 160 lookups of the FIPS-197 B vector hit 119 distinct entries.
    # The digest pins the sorted set, recorded from a kernel that listed
    # the indices it read.
    read = _entries_that_change_fips_ct(0x01)
    assert read <= set(range(256))
    assert len(read) == 119
    assert hashlib.sha256(bytes(sorted(read))).hexdigest() == \
        "6e449a43ca6c9cac8640998501953b75abd8db442da342a47b8c067063ed885e"


def test_encryption_with_modified_table_differs():
    # Every entry the vector reads changes the ciphertext under either mask.
    assert _entries_that_change_fips_ct(0x01) <= \
        _entries_that_change_fips_ct(0xFF)


def test_untouched_entry_leaves_ciphertext_alone():
    # None of the 137 entries the vector never reads changes it.
    read = _entries_that_change_fips_ct(0x01)
    untouched = set(range(256)) - read
    assert untouched, "vector unexpectedly touches all 256 entries"
    assert not untouched & _entries_that_change_fips_ct(0xFF)


def test_batched_matches_scalar():
    rng = Rng(44)
    rk = key_expand(rng.randbytes(BLOCK_SIZE))
    pts = np.frombuffer(rng.randbytes(BLOCK_SIZE * 500), dtype=np.uint8)
    pts = pts.reshape(500, BLOCK_SIZE)
    cts = encrypt_blocks(pts, rk)
    for i in range(0, 500, 7):
        assert bytes(cts[i]) == encrypt(bytes(pts[i]), rk)
    back = decrypt_blocks(cts, rk)
    assert (back == pts).all()


def test_batched_matches_scalar_with_faulted_table():
    rng = Rng(45)
    rk = key_expand(rng.randbytes(BLOCK_SIZE))
    faulted = with_entry(AES_SBOX, 0x42, 0x00)
    pts = np.frombuffer(rng.randbytes(BLOCK_SIZE * 64), dtype=np.uint8)
    pts = pts.reshape(64, BLOCK_SIZE)
    cts = encrypt_blocks(pts, rk, faulted, shift_rows=False)
    for i in range(64):
        assert bytes(cts[i]) == encrypt(bytes(pts[i]), rk, faulted,
                                        shift_rows=False)


@pytest.mark.parametrize("n", [1, 7, 64])
@pytest.mark.parametrize("shift_rows", [True, False])
def test_round_trip_on_random_permutations(n, shift_rows):
    # Any bijective table and its inverse round-trip, not only the AES
    # pair: decryption is the equivalent inverse cipher for every table.
    rng = Rng(47)
    rk = key_expand(rng.randbytes(BLOCK_SIZE))
    blocks = np.frombuffer(rng.randbytes(BLOCK_SIZE * n), dtype=np.uint8)
    blocks = blocks.reshape(n, BLOCK_SIZE)
    for seed in range(4):
        entries = list(range(256))
        shuffle(Rng(seed), entries)
        table = SBoxTable(entries)
        cts = encrypt_blocks(blocks, rk, table, shift_rows=shift_rows)
        back = decrypt_blocks(cts, rk, table.inverse(), shift_rows=shift_rows)
        assert (back == blocks).all()


# Golden vectors recorded from the byte-at-a-time reference rounds that
# preceded the batched kernel (FIPS key; entry 0x00 faulted).
def test_golden_faulted_encrypt():
    rk = key_expand(FIPS_KEY)
    faulted = with_entry(AES_SBOX, 0x00, 0x00)
    for shift_rows, want in (
            (True, "b53b26354eea9e66eff02111fca6e7ef"),
            (False, "de4a19166aca3b22a4db44ce6af0c504")):
        assert encrypt(FIPS_PT, rk, faulted,
                       shift_rows=shift_rows).hex() == want
        row = np.frombuffer(FIPS_PT, dtype=np.uint8).reshape(1, BLOCK_SIZE)
        out = encrypt_blocks(row, rk, faulted, shift_rows=shift_rows)
        assert out[0].tobytes().hex() == want


def test_golden_decrypt():
    rk = key_expand(FIPS_KEY)
    inv_faulted = with_entry(AES_INV_SBOX, 0x00,
                             AES_INV_SBOX[0x00] ^ 0xFF)
    assert decrypt(FIPS_PT, rk).hex() == "cb13389c1d59c1d50d11f6b90c38ce7f"
    assert decrypt(FIPS_PT, rk, inv_faulted).hex() == \
        "0a17d765f2c73e396bbace9011ff8f91"
    assert decrypt(FIPS_PT, rk, inv_faulted, shift_rows=False).hex() == \
        "f935c7afbba5aef9f0f65a0bda6e5cb7"


def test_golden_digest_of_faulted_cases(faulted_cases):
    h = hashlib.sha256()
    for _, rk, block, table, inv_table in faulted_cases:
        for shift_rows in (True, False):
            h.update(encrypt(block, rk, table, shift_rows=shift_rows))
            h.update(decrypt(block, rk, inv_table, shift_rows=shift_rows))
    assert h.hexdigest() == \
        "f3c6bba4904e759312bd88d5aaea304b7f5f5575dc091f41314a633215fed799"


@pytest.mark.parametrize("block", [b"", bytes(15), bytes(17)])
def test_one_block_calls_reject_wrong_length(block):
    rk = key_expand(FIPS_KEY)
    with pytest.raises(ValueError, match="expected a 16-byte block"):
        encrypt(block, rk)
    with pytest.raises(ValueError, match="expected a 16-byte block"):
        decrypt(block, rk)


@pytest.mark.parametrize("shape", [(16,), (4, 15), (4, 17), (2, 4, 16)])
def test_batched_calls_reject_wrong_shape(shape):
    rk = key_expand(FIPS_KEY)
    blocks = np.zeros(shape, dtype=np.uint8)
    with pytest.raises(ValueError, match=r"expected an \(n, 16\) array"):
        encrypt_blocks(blocks, rk)
    with pytest.raises(ValueError, match=r"expected an \(n, 16\) array"):
        decrypt_blocks(blocks, rk)


def _xtime(x):
    return (x << 1 ^ (0x1B if x & 0x80 else 0)) & 0xFF


# Two faults that copy a neighbour's value: the table is not a bijection.
TWO_FAULTS = inject(AES_SBOX, FaultSpec(((0x00, AES_SBOX[0x01]),
                                         (0x53, AES_SBOX[0x52]))))


# Both helpers return partials: they carry no __name__, so pytest names the
# cases pairs0..pairs3 by position.
def _gather(entries):
    """SubBytes' pair gather for a 256-byte table."""
    return partial(_sub, _pairs(np.frombuffer(entries, dtype=np.uint8)))


def _xtime_times(times, src, out, idx):
    """{02} applied times times, as MixColumns runs it on uint64 words."""
    words = _words(src)
    for _ in range(times):
        _xtime_words(words, _words(out), idx)
        words = _words(out)


def _lanes(times):
    return partial(_xtime_times, times)


@pytest.mark.parametrize("name, pairs, table", [
    ("sbox", _gather(AES_SBOX.entries), AES_SBOX.entries),
    ("two faults", _gather(TWO_FAULTS.entries), TWO_FAULTS.entries),
    ("xtime", _lanes(1), bytes(_xtime(x) for x in range(256))),
    ("xtime twice", _lanes(2), bytes(_xtime(_xtime(x)) for x in range(256))),
])
def test_pair_gather_matches_byte_lookup_on_every_pair(name, pairs, table):
    assert not TWO_FAULTS.is_permutation()
    # Every (first, second) byte pair once, as a (16, 8192) state.  The
    # second byte is turned by the first, so that every byte value also
    # meets every byte lane of a uint64 word.
    first, second = np.divmod(np.arange(1 << 16), 256)
    second = (second + first) % 256
    flat = np.stack([first, second], axis=1).astype(np.uint8).reshape(-1)
    lanes = flat.reshape(-1, 8)
    assert all(len(np.unique(lanes[:, k])) == 256 for k in range(8))
    state = flat.reshape(BLOCK_SIZE, -1)
    out = np.empty_like(state)
    idx = np.empty(state.size // 2, dtype=np.intp)
    pairs(state, out, idx)
    want = np.frombuffer(table, dtype=np.uint8)[state]
    assert (out == want).all()
    pairs(state, state, idx)  # in place
    assert (state == want).all()


@pytest.mark.parametrize("n", [1, 3, 10_000])
def test_batched_calls_match_golden_vectors_and_one_block_calls(n):
    rk = key_expand(FIPS_KEY)
    faulted = with_entry(AES_SBOX, 0x00, 0x00)
    inv_faulted = with_entry(AES_INV_SBOX, 0x00,
                             AES_INV_SBOX[0x00] ^ 0xFF)
    rng = Rng(46)
    blocks = np.frombuffer(rng.randbytes(BLOCK_SIZE * n), dtype=np.uint8)
    blocks = blocks.reshape(n, BLOCK_SIZE).copy()
    golden_rows = sorted({0, n // 2, n - 1})
    blocks[golden_rows] = np.frombuffer(FIPS_PT, dtype=np.uint8)
    checked = range(0, n, max(1, n // 97))
    for args, want in (
            ((encrypt_blocks, AES_SBOX, True), FIPS_CT),
            ((encrypt_blocks, faulted, True),
             "b53b26354eea9e66eff02111fca6e7ef"),
            ((encrypt_blocks, faulted, False),
             "de4a19166aca3b22a4db44ce6af0c504"),
            ((decrypt_blocks, AES_INV_SBOX, True),
             "cb13389c1d59c1d50d11f6b90c38ce7f"),
            ((decrypt_blocks, inv_faulted, True),
             "0a17d765f2c73e396bbace9011ff8f91"),
            ((decrypt_blocks, inv_faulted, False),
             "f935c7afbba5aef9f0f65a0bda6e5cb7")):
        batched, table, shift_rows = args
        one = encrypt if batched is encrypt_blocks else decrypt
        out = batched(blocks, rk, table, shift_rows=shift_rows)
        assert out.shape == (n, BLOCK_SIZE)
        want = want if isinstance(want, bytes) else bytes.fromhex(want)
        for i in golden_rows:
            assert out[i].tobytes() == want
        for i in checked:
            assert out[i].tobytes() == one(blocks[i].tobytes(), rk, table,
                                           shift_rows=shift_rows)


@pytest.mark.parametrize("module,name", [
    (aes, "_SR_IDX"), (aes, "_INV_SR_IDX"), (aes, "_ROT"), (aes, "_ROT2"),
    (aes, "_IDENTITY"), (classic, "_BS_CROSS_COLUMNS")])
def test_module_index_arrays_are_read_only(module, name):
    array = getattr(module, name)
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0] = array[1]
