import hashlib
from itertools import permutations

import numpy as np
import pytest

from pfalab import guard
from pfalab.faults import (
    BIT_FLIP,
    CLUSTERED,
    RANDOM_BYTE,
    FaultSpec,
    inject,
    random_faults,
)
from pfalab.guard import (
    CorrectionReport,
    GuardConfig,
    _vote,
    correct,
    detect,
    precorrect_table,
)
from pfalab.rng import Rng
from pfalab.sbox import (
    AES_SBOX,
    SBoxTable,
    down,
    left,
    right,
    to_lanes,
    up,
)
from pfalab.sbox_analysis import build_redundant_tables


def test_detect_pristine_table_is_quiet(pair):
    assert detect(AES_SBOX, pair) is False


def test_detect_sampled_single_faults(pair):
    rng = Rng(11)
    for _ in range(300):
        spec = random_faults(rng.child(rng.u64()), 1)
        assert detect(inject(AES_SBOX, spec), pair) is True


def test_second_checkpoint_catches_the_swap(pair):
    # The swap leaves the block after t steps at C; only the step to
    # C_hat shows it.
    swapped = inject(AES_SBOX, FaultSpec(((0x73, 0x73),)))
    block = pair.p
    for _ in range(pair.t):
        block = block.translate(swapped.entries)
    assert block == pair.c
    assert detect(swapped, pair) is True


def _plant_candidates(tables, x, candidates, current):
    """A table whose entry x holds current and whose four neighbours make
    x's reconstructions (up, down, left, right) equal candidates."""
    entries = bytearray(AES_SBOX.entries)
    entries[x] = current
    for y, parity, c in ((up(x), tables.v[up(x)], candidates[0]),
                         (down(x), tables.v[x], candidates[1]),
                         (left(x), tables.h[left(x)], candidates[2]),
                         (right(x), tables.h[x], candidates[3])):
        entries[y] = c ^ parity
    return SBoxTable(bytes(entries))


def test_vote_rules(tables):
    # Patterns 4-0, 3-1 and 2-1-1 resolve to the majority in any slot
    # order; 2-2 and 1-1-1-1 keep the current entry.
    for pattern, current, want in (((9, 9, 9, 9), 0, 9),
                                   ((9, 9, 9, 4), 0, 9),
                                   ((9, 9, 4, 5), 0, 9),
                                   ((9, 9, 4, 4), 7, 7),
                                   ((1, 2, 3, 4), 7, 7)):
        for candidates in set(permutations(pattern)):
            for x in (0x42, 0x00, 0xFF):
                planted = _plant_candidates(tables, x, candidates, current)
                assert precorrect_table(planted, tables)[x] == want, \
                    (x, candidates)


def test_reconstruction_identity_on_pristine(tables):
    # Every parity check passes, so each entry's four reconstructions
    # equal the entry itself: the vote writes and leaves open no entry.
    entries = list(range(256))
    Rng(16).shuffle(entries)
    identity = SBoxTable(bytes(range(256)))
    for pristine in (AES_SBOX, identity, SBoxTable(entries)):
        parity = build_redundant_tables(pristine)
        assert _vote(to_lanes(pristine.entries), to_lanes(parity.v),
                     to_lanes(parity.h)) == (0, 0)
        assert precorrect_table(pristine, parity) == pristine
    for x in (0x00, 0x42, 0xFF):
        planted = _plant_candidates(tables, x, (AES_SBOX[x],) * 4, AES_SBOX[x])
        assert planted == AES_SBOX


def test_correct_single_fault_one_round(pair, tables):
    spec = FaultSpec(((0x42, 0x00),))
    faulted = inject(AES_SBOX, spec)
    fixed, report = correct(faulted, tables, pair)
    assert fixed == AES_SBOX
    assert report.converged
    assert report.rounds_used == 1
    assert report.changed_entries == ((0x42, 0x00, AES_SBOX[0x42]),)
    assert report.unresolved == ()


def _faulted_block3():
    """The 3x3 block of entries at the grid's corner, seeded values."""
    block3 = [16 * r + c for r in range(3) for c in range(3)]
    rng = Rng(13)
    return inject(AES_SBOX, FaultSpec(tuple(
        (x, AES_SBOX[x] ^ (1 + rng.randrange(255))) for x in block3)))


def test_correct_respects_round_budget(pair, tables):
    faulted = _faulted_block3()
    tight = GuardConfig(max_correction_rounds=2)
    fixed, report = correct(faulted, tables, pair, tight)
    assert not report.converged
    assert report.rounds_used == 2
    assert fixed != AES_SBOX
    roomy = GuardConfig(max_correction_rounds=16)
    fixed, report = correct(faulted, tables, pair, roomy)
    assert report.converged
    assert report.rounds_used == 3
    assert fixed == AES_SBOX


@pytest.mark.parametrize("case,budget,walks", [
    ("single", 16, 1), ("block3", 2, 2), ("block3", 16, 3)])
def test_correct_walks_each_written_table_once(monkeypatch, pair, tables,
                                               case, budget, walks):
    # The caller's detect already rejected the input table, so correct()
    # walks only the tables its rounds write.
    calls = []

    def counting_detect(*args):
        calls.append(args)
        return detect(*args)

    monkeypatch.setattr(guard, "detect", counting_detect)
    faulted = (inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
               if case == "single" else _faulted_block3())
    guard.correct(faulted, tables, pair, GuardConfig(budget))
    assert len(calls) == walks


def test_sweep_never_corrupts_best_case(pair, tables):
    # With at most one bad proposal per entry the majority is always
    # sound, so correction touches only the faulted cells.
    rng = Rng(14)
    for _ in range(100):
        spec = random_faults(rng.child(rng.u64()), 3)
        faulted = inject(AES_SBOX, spec)
        fixed, report = correct(faulted, tables, pair)
        assert fixed == AES_SBOX
        assert report.rounds_used == 1
        assert sorted(x for x, _, _ in report.changed_entries) == \
            sorted(spec.indices)


def test_guard_config_validation():
    for budget in (0, 2.5, 2.0, True):
        with pytest.raises(ValueError):
            GuardConfig(max_correction_rounds=budget)
    assert GuardConfig().max_correction_rounds == 16


def test_correction_report_json_shape():
    report = CorrectionReport(converged=True, rounds_used=1,
                              changed_entries=((7, 1, 2),),
                              unresolved=(9,))
    assert report.to_json_dict() == {
        "changed": [[7, 1, 2]],
        "rounds": 1,
        "unresolved": [9],
        "converged": True,
    }


def test_precorrect_table_masks_single_fault(tables):
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    effective = precorrect_table(faulted, tables)
    for x in (0x42, right(0x42), down(0x42), 0x00, 0xFF):
        assert effective[x] == AES_SBOX[x]
    assert effective == AES_SBOX
    assert faulted[0x42] == 0x00  # the stored table is left as it was


def test_precorrect_table_equivalence(pair, tables):
    h = np.frombuffer(tables.h, dtype=np.uint8)
    v = np.frombuffer(tables.v, dtype=np.uint8)
    rng = Rng(15)
    for _ in range(100):
        spec = random_faults(rng.child(rng.u64()), 2)
        faulted = inject(AES_SBOX, spec)
        effective = precorrect_table(faulted, tables)
        assert effective == AES_SBOX
        # Each lookup is the vote of that entry's four reconstructions.
        dense, _, _ = _dense_sweep(
            np.frombuffer(faulted.entries, dtype=np.uint8), h, v)
        assert effective.entries == dense.tobytes()


# Reference sweep for the oracle test: every entry builds its four
# candidates from the neighbours directly and votes, with no syndromes.
_UP = np.array([up(x) for x in range(256)], dtype=np.intp)
_DOWN = np.array([down(x) for x in range(256)], dtype=np.intp)
_LEFT = np.array([left(x) for x in range(256)], dtype=np.intp)
_RIGHT = np.array([right(x) for x in range(256)], dtype=np.intp)


def _dense_sweep(entries, h, v):
    cand = np.stack((
        entries[_UP] ^ v[_UP],
        entries[_DOWN] ^ v,
        entries[_LEFT] ^ h[_LEFT],
        entries[_RIGHT] ^ h,
    ))
    counts = np.ones((4, 256), dtype=np.int8)
    for i in range(4):
        for j in range(4):
            if i != j:
                counts[i] += cand[i] == cand[j]
    top = counts.max(axis=0)
    pairs = (counts == 2).sum(axis=0)
    resolved = (top >= 3) | ((top == 2) & (pairs == 2))
    winner = np.take_along_axis(cand, counts.argmax(axis=0)[None, :], axis=0)[0]
    new = np.where(resolved, winner, entries)
    return new, resolved & (new != entries), ~resolved


def _oracle_correct(table, tables, pair, cfg):
    """correct() over _dense_sweep, plus the snapshot each write read."""
    entries = np.frombuffer(table.entries, dtype=np.uint8).copy()
    h = np.frombuffer(tables.h, dtype=np.uint8)
    v = np.frombuffer(tables.v, dtype=np.uint8)
    changed_entries, snapshots = [], []
    rounds_used = 0
    for _ in range(cfg.max_correction_rounds):
        working = SBoxTable(entries.tobytes())
        if not detect(working, pair):
            break
        new, changed, _ = _dense_sweep(entries, h, v)
        rounds_used += 1
        for x in np.flatnonzero(changed):
            changed_entries.append((int(x), int(entries[x]), int(new[x])))
            snapshots.append(working)
        if not changed.any():
            break
        entries = new
    final = SBoxTable(entries.tobytes())
    _, _, unresolved_mask = _dense_sweep(entries, h, v)
    report = CorrectionReport(
        converged=not detect(final, pair),
        rounds_used=rounds_used,
        changed_entries=tuple(changed_entries),
        unresolved=tuple(int(i) for i in np.flatnonzero(unresolved_mask)),
    )
    return final, report, snapshots


def _on_failing_edge(table, tables, x):
    """Whether any of the parity checks that read entry x fails."""
    return any(table[a] ^ table[b] != parity for a, b, parity in (
        (up(x), x, tables.v[up(x)]), (x, down(x), tables.v[x]),
        (left(x), x, tables.h[left(x)]), (x, right(x), tables.h[x])))


def _oracle_cases():
    """200 scattered and clustered fault sets of 2 to 255 entries."""
    rng = Rng(18)
    for k in (2, 9, 25, 64, 255):
        for i in range(40):
            if i % 2:
                policy = (RANDOM_BYTE, BIT_FLIP)[i // 2 % 2]
                spec = random_faults(rng.child(rng.u64()), k, CLUSTERED,
                                     policy)
            else:
                spec = FaultSpec(tuple(
                    (x, AES_SBOX[x] ^ (1 + rng.randrange(255)))
                    for x in rng.sample_distinct(256, k)))
            # An unused draw, kept so that the later seeded cases stay fixed.
            rng.sample_distinct(256, 1 + rng.randrange(64))
            yield i, inject(AES_SBOX, spec)


def test_syndrome_sweep_matches_dense_oracle(pair, tables):
    h = np.frombuffer(tables.h, dtype=np.uint8)
    v = np.frombuffer(tables.v, dtype=np.uint8)
    for i, faulted in _oracle_cases():
        dense, _, _ = _dense_sweep(
            np.frombuffer(faulted.entries, dtype=np.uint8), h, v)
        assert precorrect_table(faulted, tables).entries == dense.tobytes()
        cfg = GuardConfig((1, 2, 16)[i % 3])
        fixed, report = correct(faulted, tables, pair, cfg)
        want_fixed, want, snapshots = _oracle_correct(
            faulted, tables, pair, cfg)
        assert (fixed, report) == (want_fixed, want)
        for (x, _, _), snapshot in zip(report.changed_entries, snapshots):
            assert _on_failing_edge(snapshot, tables, x)
        for x in report.unresolved:
            assert _on_failing_edge(fixed, tables, x)


def _torus(r, c):
    return (r % 16) * 16 + (c % 16)


def _golden_cases():
    """All 65,280 single faults at the default config, then the 1,024
    two-fault placements that share two grid neighbours, with seeded
    values and budgets 1, 2 and 16."""
    default = GuardConfig()
    for x in range(256):
        for e in range(256):
            if e != AES_SBOX[x]:
                yield inject(AES_SBOX, FaultSpec(((x, e),))), default
    rng = Rng(19)
    for i in range(1024):
        x1 = i // 4
        r, c = divmod(x1, 16)
        x2 = (_torus(r + 1, c + 1), _torus(r + 1, c - 1),
              _torus(r, c + 2), _torus(r + 2, c))[i % 4]
        spec = FaultSpec(((x1, AES_SBOX[x1] ^ (1 + rng.randrange(255))),
                          (x2, AES_SBOX[x2] ^ (1 + rng.randrange(255)))))
        yield inject(AES_SBOX, spec), GuardConfig((1, 2, 16)[i % 3])


def test_correct_and_precorrect_match_golden_digest(pair, tables):
    # Pinned from the numpy gather vote that the lane kernel replaced;
    # repr keeps int against numpy-scalar differences visible.
    digest = hashlib.sha256()
    for faulted, cfg in _golden_cases():
        fixed, report = correct(faulted, tables, pair, cfg)
        digest.update(repr((fixed.entries, report)).encode())
        digest.update(precorrect_table(faulted, tables).entries)
    assert digest.hexdigest() == (
        "1a23fbc99fb6fdeaef7d7302f311004a27d8a14827a11c9fdcf924980563cace")
