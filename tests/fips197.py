"""A literal FIPS-197 AES-128, byte by byte: the tests' reference cipher.

The key expansion (section 5.2), the cipher (section 5.1) and the
inverse cipher (section 5.3) are written as the standard states them,
over a 4x4 state s[r][c] = in[r + 4c].  MixColumns and its inverse
multiply by their constants through products tabled from xtime (section
4.2.1).  The substitution table is a parameter, so a faulted or
arbitrary table goes through the same steps; the key expansion always
uses the S-box of section 5.1.1, which this module computes from the
inverse in GF(2^8) and the affine map.
shift_rows=False makes ShiftRows and InvShiftRows the identity.
Nothing here imports pfalab.
"""

NB, NK, NR = 4, 4, 10


def xtime(b: int) -> int:
    """{02} times b, reduced by the AES polynomial x^8 + x^4 + x^3 + x + 1."""
    b <<= 1
    return b ^ 0x11B if b & 0x100 else b


def multiply(a: int, b: int) -> int:
    """a times b in GF(2^8): the xtime powers of a that b's bits select."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        a, b = xtime(a), b >> 1
    return product


def _inverse(a: int) -> int:
    """a^254, the multiplicative inverse of a, with 0 mapped to 0, by
    square and multiply."""
    result = 1
    for bit in f"{254:b}":
        result = multiply(result, result)
        if bit == "1":
            result = multiply(result, a)
    return result


def _affine(b: int) -> int:
    """Bit i of the result is b_i + b_(i+4) + b_(i+5) + b_(i+6) + b_(i+7)
    + c_i, indices mod 8, with c = {63} (equation 5.1)."""
    out = 0
    for i in range(8):
        bit = 0x63 >> i
        for j in (0, 4, 5, 6, 7):
            bit ^= b >> (i + j) % 8
        out |= (bit & 1) << i
    return out


SBOX = bytes(_affine(_inverse(a)) for a in range(256))
INV_SBOX = bytes(SBOX.index(y) for y in range(256))
# The products by the constants of MixColumns and InvMixColumns, one
# table per constant.
_TIMES = {k: bytes(multiply(k, b) for b in range(256))
          for k in (0x01, 0x02, 0x03, 0x09, 0x0B, 0x0D, 0x0E)}


def key_expansion(key: bytes) -> list[bytes]:
    """The 44 schedule words w[i] as 11 round keys of 16 bytes."""
    w = [list(key[4 * i:4 * i + 4]) for i in range(NK)]
    rcon = 0x01
    for i in range(NK, NB * (NR + 1)):
        temp = w[i - 1]
        if i % NK == 0:
            temp = [SBOX[b] for b in temp[1:] + temp[:1]]  # SubWord(RotWord)
            temp[0] ^= rcon
            rcon = xtime(rcon)
        w.append([a ^ b for a, b in zip(w[i - NK], temp)])
    return [bytes(sum(w[NB * r:NB * r + NB], [])) for r in range(NR + 1)]


def _state(block: bytes) -> list[list[int]]:
    return [[block[r + 4 * c] for c in range(NB)] for r in range(4)]


def _output(state: list[list[int]]) -> bytes:
    return bytes(state[r][c] for c in range(NB) for r in range(4))


def _add_round_key(state, round_key: bytes) -> None:
    for r in range(4):
        for c in range(NB):
            state[r][c] ^= round_key[r + 4 * c]


def _sub_bytes(state, table: bytes) -> None:
    for row in state:
        row[:] = [table[b] for b in row]


def _shift_rows(state, direction: int) -> None:
    """Row r moves r places left (direction 1) or right (direction -1)."""
    for r, row in enumerate(state):
        row[:] = [row[(c + direction * r) % NB] for c in range(NB)]


def _mix(state, matrix) -> None:
    """Each column times matrix, a 4x4 matrix of product tables."""
    for c in range(NB):
        a0, a1, a2, a3 = (state[r][c] for r in range(4))
        for r, (t0, t1, t2, t3) in enumerate(matrix):
            state[r][c] = t0[a0] ^ t1[a1] ^ t2[a2] ^ t3[a3]


def _circulant(first_row) -> list:
    """The circulant matrix with first_row, as product tables."""
    return [[_TIMES[first_row[(i - r) % 4]] for i in range(4)]
            for r in range(4)]


_MIX_COLUMNS = _circulant((0x02, 0x03, 0x01, 0x01))  # section 5.1.3
_INV_MIX_COLUMNS = _circulant((0x0E, 0x0B, 0x0D, 0x09))  # section 5.3.3


def cipher(block: bytes, round_keys: list[bytes], table: bytes,
           shift_rows: bool = True) -> bytes:
    """Cipher() of section 5.1, with table as SubBytes' S-box."""
    state = _state(block)
    _add_round_key(state, round_keys[0])
    for rnd in range(1, NR + 1):
        _sub_bytes(state, table)
        if shift_rows:
            _shift_rows(state, 1)
        if rnd < NR:
            _mix(state, _MIX_COLUMNS)
        _add_round_key(state, round_keys[rnd])
    return _output(state)


def inv_cipher(block: bytes, round_keys: list[bytes], inv_table: bytes,
               shift_rows: bool = True) -> bytes:
    """InvCipher() of section 5.3, with inv_table as InvSubBytes' S-box."""
    state = _state(block)
    _add_round_key(state, round_keys[NR])
    for rnd in range(NR - 1, -1, -1):
        if shift_rows:
            _shift_rows(state, -1)
        _sub_bytes(state, inv_table)
        _add_round_key(state, round_keys[rnd])
        if rnd > 0:
            _mix(state, _INV_MIX_COLUMNS)
    return _output(state)
