"""Table, grid and permutation helpers the tests share."""

from pfalab.sbox import SBoxTable


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
