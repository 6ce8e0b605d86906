"""Table, grid, permutation and stream helpers the tests share."""

import numpy as np

from pfalab.sbox import AES_SBOX, SBoxTable


def with_entry(table: SBoxTable, x: int, value: int) -> SBoxTable:
    """Copy of table with entry x overwritten, whatever it held before
    (faults.inject refuses a value the entry already holds)."""
    if not (0 <= x <= 255 and 0 <= value <= 255):
        raise ValueError(f"entry ({x}, {value}) out of byte range")
    data = bytearray(table.entries)
    data[x] = value
    return SBoxTable(data)


# The scalar moves that pfalab.sbox leaves to its lane moves: lane x of
# lanes_down(t) holds lane down(x) of t, and of lanes_right(t) lane
# right(x).

def down(x: int) -> int:
    return (x + 16) & 0xFF


def right(x: int) -> int:
    return (x & 0xF0) | ((x + 1) & 0x0F)


def shuffle(rng, items: list) -> None:
    """Fisher-Yates shuffle of items in place, drawn from rng.randrange,
    so a seed pins the permutation."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


def min_ct_by_replay(blocks, k10, v, zco_filter=False):
    """Literal re-evaluation after every block, the slow oracle."""
    counts = np.zeros((16, 256), dtype=np.int64)
    positions = np.arange(16)
    for i in range(blocks.shape[0]):
        block = blocks[i]
        if not (zco_filter and not block.any()):
            counts[positions, block] += 1
        done = True
        for j in range(16):
            zeros = np.flatnonzero(counts[j] == 0)
            if len(zeros) != 1 or zeros[0] ^ AES_SBOX[v] != k10[j]:
                done = False
                break
        if done:
            return i + 1
    return None
