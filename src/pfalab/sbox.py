"""Substitution tables and their 16x16 storage layout.

A table is 256 bytes indexed by the input byte.  For neighbour-based
repair the table is viewed as a 16x16 grid stored row-major: entry x
sits at row x >> 4, column x & 0xF.  Neighbour moves wrap around both
axes (a torus), so every entry has exactly four distinct neighbours.

This is the only module that knows the grid.  The lane moves
lanes_up/lanes_down/lanes_left/lanes_right define it: each moves a
whole table at once, read by to_lanes as one 2048-bit int whose byte
lane x holds entry x, so that lane x of lanes_down(t) holds the entry
below x and lane x of lanes_right(t) the entry to its right.  The
scalar moves up and left name one entry's upper and left neighbour,
which the guard's closed-form vote needs: lane x of lanes_up(t) holds
lane up(x) of t, and lane x of lanes_left(t) lane left(x).
"""

from __future__ import annotations


class NotAPermutation(ValueError):
    """The table does not map 256 inputs onto 256 distinct outputs."""


class SBoxTable:
    """Immutable 256-entry byte lookup table."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        data = bytes(entries)
        if len(data) != 256:
            raise ValueError(f"expected 256 entries, got {len(data)}")
        object.__setattr__(self, "entries", data)

    def __setattr__(self, name, value):
        raise AttributeError("SBoxTable is immutable")

    def __getitem__(self, x: int) -> int:
        return self.entries[x]

    def __eq__(self, other) -> bool:
        if isinstance(other, SBoxTable):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"SBoxTable({self.entries.hex()})"

    def is_permutation(self) -> bool:
        return len(set(self.entries)) == 256

    def inverse(self) -> "SBoxTable":
        if not self.is_permutation():
            raise NotAPermutation("table has duplicate outputs, no inverse")
        inv = bytearray(256)
        for x, y in enumerate(self.entries):
            inv[y] = x
        return SBoxTable(inv)

    def differences(self, other: "SBoxTable") -> list[int]:
        """Indices where the two tables disagree."""
        return [x for x in range(256) if self.entries[x] != other.entries[x]]


# Toroidal neighbours on the 16x16 grid.  A row move is -16 mod 256; a
# column move wraps within the low nibble.

def up(x: int) -> int:
    return (x - 16) & 0xFF


def left(x: int) -> int:
    return (x & 0xF0) | ((x - 1) & 0x0F)


# Lane x of a lane int is bits 8x..8x+7, so grid row r is the 128 bits
# from 128r: a row move is a 128-bit rotation of the whole int, and a
# column move an 8-bit rotation within each row.
_FIRST_ROW = (1 << 128) - 1
_FIRST_15_ROWS = (1 << 1920) - 1
_FIRST_COLUMN = sum(0xFF << 128 * r for r in range(16))
_ALL_BUT_FIRST_COLUMN = (1 << 2048) - 1 - _FIRST_COLUMN
_ALL_BUT_LAST_COLUMN = (1 << 2048) - 1 - (_FIRST_COLUMN << 120)


def to_lanes(entries: bytes) -> int:
    """256 entries as one int, entry x in byte lane x."""
    return int.from_bytes(entries, "little")


def from_lanes(lanes: int) -> bytes:
    """The 256 entries of a lane int, inverse of to_lanes."""
    return lanes.to_bytes(256, "little")


def _table_of_lanes(lanes: int) -> SBoxTable:
    """The table of a lane int, whose 256 bytes need no check."""
    table = object.__new__(SBoxTable)
    object.__setattr__(table, "entries", from_lanes(lanes))
    return table


def lanes_up(lanes: int) -> int:
    return ((lanes & _FIRST_15_ROWS) << 128) | (lanes >> 1920)


def lanes_down(lanes: int) -> int:
    return (lanes >> 128) | ((lanes & _FIRST_ROW) << 1920)


def lanes_left(lanes: int) -> int:
    return (((lanes << 8) & _ALL_BUT_FIRST_COLUMN)
            | ((lanes >> 120) & _FIRST_COLUMN))


def lanes_right(lanes: int) -> int:
    return (((lanes >> 8) & _ALL_BUT_LAST_COLUMN)
            | ((lanes & _FIRST_COLUMN) << 120))


AES_SBOX = SBoxTable(bytes((
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5,
    0x30, 0x01, 0x67, 0x2B, 0xFE, 0xD7, 0xAB, 0x76,
    0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0,
    0xB7, 0xFD, 0x93, 0x26, 0x36, 0x3F, 0xF7, 0xCC,
    0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A,
    0x07, 0x12, 0x80, 0xE2, 0xEB, 0x27, 0xB2, 0x75,
    0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84,
    0x53, 0xD1, 0x00, 0xED, 0x20, 0xFC, 0xB1, 0x5B,
    0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85,
    0x45, 0xF9, 0x02, 0x7F, 0x50, 0x3C, 0x9F, 0xA8,
    0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2,
    0xCD, 0x0C, 0x13, 0xEC, 0x5F, 0x97, 0x44, 0x17,
    0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88,
    0x46, 0xEE, 0xB8, 0x14, 0xDE, 0x5E, 0x0B, 0xDB,
    0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79,
    0xE7, 0xC8, 0x37, 0x6D, 0x8D, 0xD5, 0x4E, 0xA9,
    0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6,
    0xE8, 0xDD, 0x74, 0x1F, 0x4B, 0xBD, 0x8B, 0x8A,
    0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E,
    0xE1, 0xF8, 0x98, 0x11, 0x69, 0xD9, 0x8E, 0x94,
    0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68,
    0x41, 0x99, 0x2D, 0x0F, 0xB0, 0x54, 0xBB, 0x16,
)))

AES_INV_SBOX = AES_SBOX.inverse()
