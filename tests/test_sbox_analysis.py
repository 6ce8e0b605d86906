import itertools

import numpy as np
import pytest

from pfalab.rng import Rng
from pfalab.sbox import (
    AES_INV_SBOX,
    AES_SBOX,
    SBoxTable,
    from_lanes,
)
from pfalab.sbox_analysis import (
    DetectionPair,
    InfeasibleAllocation,
    allocate_seeds,
    analyze_table,
    build_detection_pair,
    build_redundant_tables,
    cycle_decompose,
    verify_detection,
)

from helpers import down, right, shuffle


def random_permutation_table(seed: int) -> SBoxTable:
    entries = list(range(256))
    shuffle(Rng(seed), entries)
    return SBoxTable(bytes(entries))


def test_standard_cycle_structure():
    dec = cycle_decompose(AES_SBOX)
    assert dec.lengths == (59, 81, 87, 27, 2)
    assert sorted(dec.cycles[4]) == [0x73, 0x8F]


def test_cycles_are_canonical():
    dec = cycle_decompose(AES_SBOX)
    starts = [cycle[0] for cycle in dec.cycles]
    assert starts == sorted(starts)
    for cycle in dec.cycles:
        assert cycle[0] == min(cycle)


def test_cycles_partition_domain():
    for seed in range(100):
        table = random_permutation_table(seed)
        dec = cycle_decompose(table)
        members = [x for cycle in dec.cycles for x in cycle]
        assert sorted(members) == list(range(256))
        for cycle in dec.cycles:
            for i, x in enumerate(cycle):
                assert table[x] == cycle[(i + 1) % len(cycle)]


def _brute_force_min_iterations(lengths):
    best = None
    k = len(lengths)
    for cut in itertools.combinations(range(1, 16), k - 1):
        parts = [b - a for a, b in zip((0,) + cut, cut + (16,))]
        t = max(-(-length // d) for length, d in zip(lengths, parts))
        if best is None or t < best:
            best = t
    return best


def test_allocation_for_standard_table():
    alloc = allocate_seeds((59, 81, 87, 27, 2))
    assert alloc.t == 20
    assert alloc.d == (3, 5, 5, 2, 1)
    assert alloc.r == (20, 17, 18, 14, 2)
    assert sum(alloc.d) == 16


def test_allocation_matches_brute_force():
    cases = [
        (59, 81, 87, 27, 2),
        (5, 3, 2),
        (100, 100),
        (17,),
        (9, 9, 9, 9),
    ]
    for lengths in cases:
        alloc = allocate_seeds(lengths)
        assert alloc.t == _brute_force_min_iterations(lengths)
        assert sum(alloc.d) == 16
        assert all(d >= 1 for d in alloc.d)
        assert alloc.t == max(alloc.r)
        for length, d, r in zip(lengths, alloc.d, alloc.r):
            assert r == -(-length // d)


def test_allocation_needs_one_seed_per_cycle():
    with pytest.raises(InfeasibleAllocation):
        allocate_seeds((3,) * 17)


def test_detection_pair_known_values():
    pair = build_detection_pair(AES_SBOX)
    assert pair.t == 20
    assert pair.p.hex() == "00fd6f01623ae33d041c2837af0b5673"
    assert pair.c.hex() == "fd6f6391bd134b84de18b8b64afaf773"
    assert pair.c_hat.hex() == "54a8fb817a7db35f1dad6c4ed62d688f"


def test_detection_pair_is_consistent(pair):
    block = pair.p
    for _ in range(pair.t):
        block = block.translate(AES_SBOX.entries)
    assert block == pair.c
    assert block.translate(AES_SBOX.entries) == pair.c_hat


def test_verify_detection_flags_never_read_entries(pair):
    # A checkpoint walk that is too short leaves entries unread; every
    # fault on an unread entry must be reported as an escape.
    block = pair.p
    read = set(block)
    for _ in range(3):
        block = block.translate(AES_SBOX.entries)
        read |= set(block)
    short = DetectionPair(p=pair.p, c=block,
                          c_hat=block.translate(AES_SBOX.entries), t=3)
    escapes = set(verify_detection(AES_SBOX, short))
    never_read = set(range(256)) - read
    assert never_read
    for x in never_read:
        for e in range(256):
            if e != AES_SBOX[x]:
                assert (x, e) in escapes


def test_verify_detection_clean_for_standard_table(pair):
    assert verify_detection(AES_SBOX, pair) == []


def test_verify_detection_clean_for_inverse_table():
    pair = build_detection_pair(AES_INV_SBOX)
    assert verify_detection(AES_INV_SBOX, pair) == []


def test_single_checkpoint_escape_is_the_two_cycle(pair):
    escapes = verify_detection(AES_SBOX, pair, use_second_checkpoint=False)
    assert escapes == [(0x73, 0x73)]


def _per_entry_verify_detection(table, pair, use_second_checkpoint=True):
    """Reference: re-walk, for each entry, every lane that reads it."""
    lut = np.frombuffer(table.entries, dtype=np.uint8)
    reads_for = {x: [] for x in range(256)}
    extra = 1 if use_second_checkpoint else 0
    for lane, seed in enumerate(pair.p):
        x = seed
        inputs = set()
        for _ in range(pair.t + extra):
            inputs.add(x)
            x = table[x]
        for idx in inputs:
            reads_for[idx].append(lane)
    escapes = []
    values = np.arange(256, dtype=np.uint8)
    for x in range(256):
        lanes = reads_for[x]
        if not lanes:
            escapes.extend((x, int(e)) for e in values if e != table[x])
            continue
        wrong = values[values != table[x]]
        escaped = np.ones(len(wrong), dtype=bool)
        for lane in lanes:
            s = np.full(len(wrong), pair.p[lane], dtype=np.uint8)
            for _ in range(pair.t):
                s = np.where(s == x, wrong, lut[s])
            lane_ok = s == pair.c[lane]
            if use_second_checkpoint:
                s2 = np.where(s == x, wrong, lut[s])
                lane_ok &= s2 == pair.c_hat[lane]
            escaped &= lane_ok
        escapes.extend((x, int(e)) for e in wrong[escaped])
    return escapes


def _pair_walked(table, p, t):
    c = p
    for _ in range(t):
        c = c.translate(table.entries)
    return DetectionPair(p=p, c=c, c_hat=c.translate(table.entries), t=t)


def _oracle_cases():
    aes = build_detection_pair(AES_SBOX)
    cases = {
        "aes": (AES_SBOX, aes),
        # The short walk of test_verify_detection_flags_never_read_entries.
        "aes-t3": (AES_SBOX, _pair_walked(AES_SBOX, aes.p, 3)),
        # One permutation's pair checked against another leaves many
        # entries unread and many lanes failing fault-free.
        "foreign": (AES_SBOX,
                    build_detection_pair(random_permutation_table(8))),
    }
    for seed in range(8):
        table = random_permutation_table(seed)
        cases[f"random{seed}"] = (table, build_detection_pair(table))
    return cases


_ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("use_second_checkpoint", [True, False])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_verify_detection_matches_per_entry_walk(case, use_second_checkpoint):
    table, pair = _ORACLE_CASES[case]
    assert (verify_detection(table, pair, use_second_checkpoint)
            == _per_entry_verify_detection(table, pair,
                                           use_second_checkpoint))


def test_random_permutations_can_escape_detection():
    # Every entry is read, yet a fault can send a lane round a short
    # cycle and back onto its checkpoint: the pair is not complete for
    # tables in general.
    escapes = [len(verify_detection(*_ORACLE_CASES[f"random{seed}"]))
               for seed in range(8)]
    assert escapes == [8, 6, 21, 4, 0, 0, 5, 0]


def test_redundant_tables_known_values(tables):
    # Lane ints, as the guard's vote reads them: entry x in byte lane x.
    assert type(tables.h) is int and type(tables.v) is int
    assert from_lanes(tables.h)[0x00] == 0x1F
    assert from_lanes(tables.v)[0xF0] == 0xEF


def test_redundant_tables_reconstruction_identity():
    for table in (AES_SBOX, random_permutation_table(21)):
        tables = build_redundant_tables(table)
        h, v = from_lanes(tables.h), from_lanes(tables.v)
        for x in range(256):
            assert table[x] == table[right(x)] ^ h[x]
            assert table[x] == table[down(x)] ^ v[x]


def test_redundant_tables_rows_and_columns_cancel(tables):
    h, v = from_lanes(tables.h), from_lanes(tables.v)
    for row in range(16):
        acc = 0
        for col in range(16):
            acc ^= h[16 * row + col]
        assert acc == 0
    for col in range(16):
        acc = 0
        for row in range(16):
            acc ^= v[16 * row + col]
        assert acc == 0


def test_analyze_table_report_shape():
    report = analyze_table(AES_SBOX)
    assert sorted(report) == sorted(
        ["cycles", "d", "t", "p", "c", "c_hat", "h_table", "v_table"])
    assert report["t"] == 20
    assert report["d"] == [3, 5, 5, 2, 1]
    assert [len(c) for c in report["cycles"]] == [59, 81, 87, 27, 2]
    assert report["p"] == "00fd6f01623ae33d041c2837af0b5673"
    assert report["c"] == "fd6f6391bd134b84de18b8b64afaf773"
    assert report["c_hat"] == "54a8fb817a7db35f1dad6c4ed62d688f"
    assert len(report["h_table"]) == 256
    assert len(report["v_table"]) == 256
    assert report["h_table"][0] == "1f"
    assert report["v_table"][0xF0] == "ef"
