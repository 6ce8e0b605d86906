"""AES-128 with a pluggable byte-substitution table.

The substitution step reads a plain 256-byte table, entry for entry, so
that a corrupted table propagates through encryption exactly like a
persistent memory fault would on a real device.  Round keys are always expanded
with the reference table: the fault model covers the substitution table
read during encryption, not the key schedule computed beforehand.

State layout follows the standard column-major convention: byte i of a
block is state[row=i % 4, col=i // 4], i.e. flat index 4*c + r.

The rounds are written once, for both directions, as a kernel over a
(16, n) state: row i holds byte i of every block, so ShiftRows and the
rotations inside a column are row gathers.  Decryption runs the kernel
as the equivalent inverse cipher of FIPS-197 section 5.3.5 (see
_rounds).  encrypt_blocks/decrypt_blocks take (n, 16) arrays; encrypt
takes one 16-byte ``bytes`` block and runs as a one-row batch.  No other
module sees the rounds: DMR and byte scrambling (pfalab.classic) are
built on encrypt_blocks/decrypt_blocks.

SubBytes reads two state bytes at once: the flat state, 16n bytes and
so always of even length, is viewed as 8n uint16 words and gathered
from a 65,536-entry pair table whose entry hi<<8|lo holds
lut[hi]<<8|lut[lo].  Each byte of a word maps to the table entry of
that byte alone, in the same place in the word, so the result equals
the byte lookup exactly, whatever the byte order of the host.  A
substitution table's pair table is built per call (about 15 us); no
lookup table is built at import.  The {02} and {04} multiplications
of MixColumns and its inverse are lane arithmetic on the state viewed
as uint64 words, eight bytes at a time, with masks that keep every
byte to itself.  A call runs its rounds in place in a few buffers
allocated once, so no round allocates memory.
"""

from __future__ import annotations

import re

import numpy as np

from .sbox import AES_INV_SBOX, AES_SBOX, SBoxTable

BLOCK_SIZE = 16
KEY_SIZE = 16
NUM_ROUNDS = 10

_HEX_BLOCK = re.compile(r"[0-9a-f]{32}")

# ShiftRows sends old flat index 4*((c + r) % 4) + r to new index 4*c + r.
SHIFT_ROWS_PERM = tuple(4 * ((c + r) % 4) + r for c in range(4) for r in range(4))
INV_SHIFT_ROWS_PERM = tuple(SHIFT_ROWS_PERM.index(i) for i in range(16))

_SR_IDX = np.array(SHIFT_ROWS_PERM, dtype=np.intp)
_INV_SR_IDX = np.array(INV_SHIFT_ROWS_PERM, dtype=np.intp)
_IDENTITY = np.arange(BLOCK_SIZE, dtype=np.intp)

# Row 4*c + r of s[_ROT] is row 4*c + (r + 1) % 4 of s: one step up its column.
_ROT = np.array([4 * (i // 4) + (i + 1) % 4 for i in range(16)], dtype=np.intp)
_ROT2 = _ROT[_ROT]
# Index arrays are shared by every call: one stray write would change
# every later encryption in the process.
for _index in (_SR_IDX, _INV_SR_IDX, _IDENTITY, _ROT, _ROT2):
    _index.flags.writeable = False


def _pairs(lut: np.ndarray) -> np.ndarray:
    """The pair table of a 256-entry uint8 table: entry hi<<8|lo of the
    65,536 uint16 entries holds lut[hi]<<8|lut[lo]."""
    wide = lut.astype(np.uint16)
    return (wide[:, None] << 8 | wide).ravel()


# Per-byte masks for {02} on uint64 words: bit 0 of every byte, and
# the seven bits below bit 7 of every byte.
_LOW_BITS = np.uint64(0x0101010101010101)
_HIGH7 = np.uint64(0x7F7F7F7F7F7F7F7F)

RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def block_from_hex(text: str) -> bytes:
    """Parse one block from exactly 32 lowercase hex characters."""
    if not _HEX_BLOCK.fullmatch(text):
        # A whole stream on one line would otherwise be echoed whole.
        shown = (repr(text) if len(text) <= 64
                 else f"{text[:16]!r}... ({len(text)} chars)")
        raise ValueError(f"expected 32 lowercase hex chars, got {shown}")
    return bytes.fromhex(text)


def block_to_hex(block: bytes) -> str:
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"expected a {BLOCK_SIZE}-byte block")
    return block.hex()


def nonzero_blocks(blocks: np.ndarray) -> np.ndarray:
    """Bool mask of the rows of an (n, 16) uint8 array that are not all
    zero, read as two uint64 words per block (a word is zero exactly
    when its eight bytes are, whatever the byte order)."""
    words = np.ascontiguousarray(blocks).view(np.uint64)
    return (words[:, 0] | words[:, 1]) != 0


def _schedule_step(word: bytes, previous: bytes, i: int) -> bytes:
    """word XOR T(previous), where T is RotWord, SubWord and the XOR of
    Rcon when schedule word i starts a round key, and the identity
    otherwise.

    Since w[i] = w[i - 4] ^ T(w[i - 1]), this steps the schedule forwards
    (word = w[i - 4]) and backwards (word = w[i]).
    """
    if i % 4 == 0:
        sbox = AES_SBOX.entries
        previous = (sbox[previous[1]] ^ RCON[i // 4 - 1], sbox[previous[2]],
                    sbox[previous[3]], sbox[previous[0]])
    return bytes(a ^ b for a, b in zip(word, previous))


def key_expand(key: bytes) -> list[bytes]:
    """Expand a 16-byte key into the 11 round keys.

    Always uses the reference substitution table; see the module
    docstring for why faulted tables never enter the schedule.
    """
    if len(key) != KEY_SIZE:
        raise ValueError(f"expected a {KEY_SIZE}-byte key")
    words = [key[4 * i:4 * i + 4] for i in range(4)]
    for i in range(4, 44):
        words.append(_schedule_step(words[i - 4], words[i - 1], i))
    return [b"".join(words[4 * r:4 * r + 4]) for r in range(11)]


def inverse_key_expand(last_round_key: bytes) -> bytes:
    """Recover the master key from round key 10 by running the schedule
    backwards.  This is what makes last-round-key recovery equivalent to
    full key recovery."""
    if len(last_round_key) != KEY_SIZE:
        raise ValueError(f"expected a {KEY_SIZE}-byte round key")
    words: list[bytes | None] = [None] * 40 + [
        last_round_key[4 * i:4 * i + 4] for i in range(4)]
    for i in range(43, 3, -1):
        words[i - 4] = _schedule_step(words[i], words[i - 1], i)
    return b"".join(words[0:4])


def _sub(pairs, src, out, idx):
    """out = the table of pairs applied to every byte of src.

    src and out are C-ordered (16, n) uint8 states and may be the same
    array: the 8n two-byte indices are first copied into idx, an intp
    buffer, so the gather neither reads what it writes nor allocates.
    """
    # With out given, take's default mode="raise" writes through a
    # temporary copy; a uint16 index never wraps, so "wrap" changes nothing.
    np.copyto(idx, src.reshape(-1).view(np.uint16))
    np.take(pairs, idx, out=out.reshape(-1).view(np.uint16), mode="wrap")


def _permute_rows(src, perm, out):
    """out = src[perm] for a permutation perm of the 16 rows."""
    np.take(src, perm, axis=0, out=out, mode="wrap")


def _words(state):
    """A (16, n) uint8 state as 2n uint64 words (a view)."""
    return state.reshape(-1).view(np.uint64)


def _xtime_words(src, out, idx):
    """out = {02} times every byte of src, with src and out uint64 word
    views, possibly of the same array.

    Bit 7 of each byte is masked off before the shift, and the reduction
    {1b} lands in the byte whose bit 7 it replaces, so no bit crosses a
    byte, whatever the byte order of the host.  idx is the intp index
    buffer of _sub, at least as large as src, and holds the carries.
    """
    carry = idx.view(np.uint64)[:src.size]
    np.right_shift(src, 7, out=carry)
    carry &= _LOW_BITS
    carry *= 0x1B
    np.bitwise_and(src, _HIGH7, out=out)
    out <<= 1
    out ^= carry


def _mix_columns(s, out, a, idx):
    """out = MixColumns(s); a and idx are scratch and s is overwritten."""
    # Output row r is s_r ^ t ^ {02}(s_r ^ s_{r+1}), where the column sum
    # t = s_0 ^ s_1 ^ s_2 ^ s_3 is a ^ a[_ROT2] for a = s ^ s[_ROT].
    _permute_rows(s, _ROT, a)
    a ^= s
    _xtime_words(_words(a), _words(out), idx)
    out ^= s
    out ^= a
    _permute_rows(a, _ROT2, s)
    out ^= s


def _inv_mix_columns(s, out, a, idx):
    """out = InvMixColumns(s); a and idx are scratch and s is overwritten."""
    # The inverse matrix factors as MixColumns times {04}x^2 + {05}
    # (Daemen & Rijmen, The Design of Rijndael, section 4.1.3).
    _permute_rows(s, _ROT2, a)
    a ^= s
    words = _words(a)
    _xtime_words(words, words, idx)
    _xtime_words(words, words, idx)
    s ^= a
    _mix_columns(s, out, a, idx)


def _round_keys_array(round_keys: list[bytes]) -> np.ndarray:
    """The 11 round keys as (11, 16, 1), to XOR into a (16, n) state."""
    keys = np.array([np.frombuffer(k, dtype=np.uint8) for k in round_keys])
    return keys[:, :, None]


def _inverse_round_keys(round_keys: list[bytes]) -> np.ndarray:
    """The keys of the equivalent inverse cipher, as _round_keys_array
    lays them out: the round keys reversed, with InvMixColumns applied
    to the nine inner ones (a (16, 9) state)."""
    keys = _round_keys_array(round_keys[::-1])
    inner = _state(keys[1:NUM_ROUNDS, :, 0])
    out, a, idx = _scratch(inner)
    _inv_mix_columns(inner, out, a, idx)
    keys[1:NUM_ROUNDS, :, 0] = out.T
    return keys


def _state(blocks: np.ndarray) -> np.ndarray:
    """(n, 16) blocks as a fresh C-ordered (16, n) uint8 state."""
    if blocks.ndim != 2 or blocks.shape[1] != BLOCK_SIZE:
        raise ValueError("expected an (n, 16) array of blocks")
    return blocks.T.astype(np.uint8, order="C")


def _blocks(state: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(state.T)


def _row(block: bytes) -> np.ndarray:
    """One block as a (1, 16) batch."""
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"expected a {BLOCK_SIZE}-byte block")
    return np.frombuffer(block, dtype=np.uint8).reshape(1, BLOCK_SIZE)


def _scratch(state):
    """Two state buffers and the intp buffer of _sub and _xtime_words."""
    return (np.empty_like(state), np.empty_like(state),
            np.empty(state.size // 2, dtype=np.intp))


def _rounds(blocks, keys, table, shift, mix):
    """All NUM_ROUNDS rounds: (n, 16) uint8 in, (n, 16) uint8 out.

    keys[0] is added first; then each round is SubBytes with table, the
    row permutation shift, mix in every round but the last, and the next
    key.  With the forward table, ShiftRows and MixColumns this is the
    cipher.  With the inverse table, InvShiftRows, InvMixColumns and
    _inverse_round_keys it is the equivalent inverse cipher (FIPS-197
    section 5.3.5), which equals the inverse cipher for every table,
    faulted and without ShiftRows included: a byte permutation commutes
    with any byte substitution, and InvMixColumns is linear, so
    InvMixColumns(s ^ k) = InvMixColumns(s) ^ InvMixColumns(k).
    """
    lut = _pairs(np.frombuffer(table.entries, dtype=np.uint8))
    state = _state(blocks)
    state ^= keys[0]
    s, a, idx = _scratch(state)
    for rnd in range(1, NUM_ROUNDS + 1):
        _sub(lut, state, state, idx)
        _permute_rows(state, shift, s)
        if rnd < NUM_ROUNDS:
            mix(s, state, a, idx)
        else:
            state, s = s, state
        state ^= keys[rnd]
    # Free the scratch buffers before the output copy, so that the copy
    # does not raise the call's peak memory.
    del s, a, idx
    return _blocks(state)


def encrypt_blocks(
    plaintexts: np.ndarray,
    round_keys: list[bytes],
    table: SBoxTable = AES_SBOX,
    *,
    shift_rows: bool = True,
) -> np.ndarray:
    """Batched encrypt: (n, 16) uint8 in, (n, 16) uint8 out.

    shift_rows=False makes ShiftRows, here and in decrypt_blocks, the
    identity: that leaves the per-byte lookup statistics the attack
    relies on alone and isolates the substitution layer in experiments.
    """
    return _rounds(plaintexts, _round_keys_array(round_keys), table,
                   _SR_IDX if shift_rows else _IDENTITY, _mix_columns)


def decrypt_blocks(
    ciphertexts: np.ndarray,
    round_keys: list[bytes],
    inv_table: SBoxTable = AES_INV_SBOX,
    *,
    shift_rows: bool = True,
) -> np.ndarray:
    return _rounds(ciphertexts, _inverse_round_keys(round_keys), inv_table,
                   _INV_SR_IDX if shift_rows else _IDENTITY,
                   _inv_mix_columns)


def encrypt(
    plaintext: bytes,
    round_keys: list[bytes],
    table: SBoxTable = AES_SBOX,
    *,
    shift_rows: bool = True,
) -> bytes:
    """Encrypt one block with the given (possibly faulted) table."""
    return encrypt_blocks(_row(plaintext), round_keys, table,
                          shift_rows=shift_rows)[0].tobytes()

