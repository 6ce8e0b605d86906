"""Table helpers the tests share."""

from pfalab.sbox import SBoxTable


def with_entry(table: SBoxTable, x: int, value: int) -> SBoxTable:
    """Copy of table with entry x overwritten, whatever it held before
    (faults.inject refuses a value the entry already holds)."""
    if not (0 <= x <= 255 and 0 <= value <= 255):
        raise ValueError(f"entry ({x}, {value}) out of byte range")
    data = bytearray(table.entries)
    data[x] = value
    return SBoxTable(data)
