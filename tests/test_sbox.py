import pytest

from pfalab.sbox import (
    AES_INV_SBOX,
    AES_SBOX,
    NotAPermutation,
    SBoxTable,
    from_lanes,
    lanes_down,
    lanes_left,
    lanes_right,
    lanes_up,
    left,
    to_lanes,
    up,
)
from pfalab.rng import Rng

from helpers import down, right, with_entry


def test_standard_table_known_entries():
    assert AES_SBOX[0x00] == 0x63
    assert AES_SBOX[0x01] == 0x7C
    assert AES_SBOX[0x53] == 0xED
    assert AES_SBOX[0xFF] == 0x16
    assert AES_SBOX[0x73] == 0x8F
    assert AES_SBOX[0x8F] == 0x73


def test_is_permutation_and_inverse():
    assert AES_SBOX.is_permutation()
    inv = AES_SBOX.inverse()
    assert inv == AES_INV_SBOX
    assert all(inv[AES_SBOX[x]] == x for x in range(256))


def test_identity_table():
    identity = SBoxTable(bytes(range(256)))
    assert all(identity[x] == x for x in range(256))


def test_rejects_non_permutation_inverse():
    broken = with_entry(AES_SBOX, 0, AES_SBOX[1])
    assert not broken.is_permutation()
    with pytest.raises(NotAPermutation):
        broken.inverse()


def test_table_is_immutable():
    with pytest.raises(AttributeError):
        AES_SBOX.entries = bytes(256)


def test_with_entry_returns_new_table():
    modified = with_entry(AES_SBOX, 0x10, 0x00)
    assert modified[0x10] == 0x00
    assert AES_SBOX[0x10] == 0xCA
    assert modified != AES_SBOX
    with pytest.raises(ValueError):
        with_entry(AES_SBOX, 256, 0)
    with pytest.raises(ValueError):
        with_entry(AES_SBOX, 0, 300)


def test_equality_and_hash():
    twin = SBoxTable(bytes(AES_SBOX.entries))
    assert twin == AES_SBOX
    assert hash(twin) == hash(AES_SBOX)
    assert len({twin, AES_SBOX}) == 1


def test_differences():
    modified = with_entry(with_entry(AES_SBOX, 5, 0), 250, 1)
    assert AES_SBOX.differences(modified) == [5, 250]
    assert AES_SBOX.differences(AES_SBOX) == []


def test_grid_moves_wrap_toroidally():
    assert up(0x05) == 0xF5
    assert down(0xF5) == 0x05
    assert left(0x10) == 0x1F
    assert right(0x1F) == 0x10
    assert up(0x23) == 0x13
    assert right(0x34) == 0x35


def test_grid_moves_are_inverse_pairs():
    for x in range(256):
        assert down(up(x)) == x
        assert up(down(x)) == x
        assert right(left(x)) == x
        assert left(right(x)) == x


def test_lane_moves_follow_the_scalar_moves():
    rng = Rng(17)
    for _ in range(50):
        entries = rng.randbytes(256)
        lanes = to_lanes(entries)
        assert from_lanes(lanes) == entries
        for lane_move, move in ((lanes_up, up), (lanes_down, down),
                                (lanes_left, left), (lanes_right, right)):
            # to_bytes would raise on bits moved past lane 255.
            assert from_lanes(lane_move(lanes)) == bytes(
                entries[move(x)] for x in range(256))
