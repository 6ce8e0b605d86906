import hashlib
import inspect
from dataclasses import MISSING, asdict, fields, replace
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _one_entry,
    _syndromes,
    _vote,
    correct,
    detect,
    precorrect_table,
)
from pfalab.rng import Rng, derive_seed
from pfalab.sbox import (
    AES_SBOX,
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
from pfalab.sbox_analysis import build_detection_pair, build_redundant_tables

from helpers import down, right, shuffle, with_entry


def test_detect_pristine_table_is_quiet(pair):
    assert detect(AES_SBOX, pair) is False


def test_detect_sampled_single_faults(pair):
    rng = Rng(11)
    for _ in range(300):
        spec = random_faults(Rng(derive_seed(rng.seed, rng.u64())), 1)
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


def _literal_detect(table, pair):
    """detect as the guard states it: t table steps, then one more."""
    block, entries = pair.p, table.entries
    for _ in range(pair.t):
        block = block.translate(entries)
    return block != pair.c or block.translate(entries) != pair.c_hat


def test_detect_matches_the_literal_walk():
    # detect walks the squared table.  It must answer as the t-step walk
    # does for an even t (the AES pair) and an odd one (a shuffle's), on
    # the pristine tables, every single fault of the odd-t table and 200
    # seeded multi-fault tables each.
    entries = list(range(256))
    shuffle(Rng(0), entries)
    shuffled = SBoxTable(entries)
    rng = Rng(22)
    answers = set()
    for pristine, t in ((AES_SBOX, 20), (shuffled, 17)):
        pair = build_detection_pair(pristine)
        assert pair.t == t
        cases = [pristine]
        for _ in range(200):
            faulted = pristine
            for x in rng.sample_distinct(256, 2 + rng.randrange(31)):
                faulted = with_entry(faulted, x, rng.randrange(256))
            cases.append(faulted)
        for table in cases:
            answer = detect(table, pair)
            assert answer == _literal_detect(table, pair), table
            answers.add(answer)
        if t % 2:
            # Every single fault, written in turn into one reused table:
            # both walks read only its entries.
            single = SimpleNamespace(entries=bytearray(pristine.entries))
            for x in range(256):
                for e in range(256):
                    single.entries[x] = e
                    if e != pristine[x]:
                        assert detect(single, pair) == \
                            _literal_detect(single, pair), (x, e)
                single.entries[x] = pristine[x]
    assert answers == {False, True}


def _plant_candidates(tables, x, candidates, current):
    """A table whose entry x holds current and whose four neighbours make
    x's reconstructions (up, down, left, right) equal candidates."""
    h, v = from_lanes(tables.h), from_lanes(tables.v)
    entries = bytearray(AES_SBOX.entries)
    entries[x] = current
    for y, parity, c in ((up(x), v[up(x)], candidates[0]),
                         (down(x), v[x], candidates[1]),
                         (left(x), h[left(x)], candidates[2]),
                         (right(x), h[x], candidates[3])):
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
    shuffle(Rng(16), entries)
    identity = SBoxTable(bytes(range(256)))
    for pristine in (AES_SBOX, identity, SBoxTable(entries)):
        parity = build_redundant_tables(pristine)
        lanes = to_lanes(pristine.entries)
        assert _syndromes(lanes, parity.v, parity.h) == (0, 0)
        assert _vote(lanes, parity.v, parity.h) == (0, 0)
        assert precorrect_table(pristine, parity) == pristine
    for x in (0x00, 0x42, 0xFF):
        planted = _plant_candidates(tables, x, (AES_SBOX[x],) * 4, AES_SBOX[x])
        assert planted == AES_SBOX


# The general lane vote as it stood before the one-entry closed form,
# with its own lane helpers: every pattern runs the pairwise comparisons.
_REF_HIGH = int.from_bytes(b"\x80" * 256, "little")
_REF_LOW7 = int.from_bytes(b"\x7f" * 256, "little")


def _ref_zero_lanes(lanes):
    return _REF_HIGH & ~(((lanes & _REF_LOW7) + _REF_LOW7) | lanes)


def _ref_widen(high):
    return (high >> 7) * 0xFF


def _reference_vote(lanes, v, h):
    sv = lanes ^ lanes_down(lanes) ^ v
    sh = lanes ^ lanes_right(lanes) ^ h
    if not sv | sh:
        return 0, 0
    s0, s1, s2, s3 = lanes_up(sv), sv, lanes_left(sh), sh
    e01 = _ref_zero_lanes(s0 ^ s1)
    e02 = _ref_zero_lanes(s0 ^ s2)
    e03 = _ref_zero_lanes(s0 ^ s3)
    e12 = _ref_zero_lanes(s1 ^ s2)
    e13 = _ref_zero_lanes(s1 ^ s3)
    e23 = _ref_zero_lanes(s2 ^ s3)
    resolved = (e01 ^ e02 ^ e03 ^ e12 ^ e13 ^ e23) | (e01 & e02 & e03)
    pick0 = e01 | e02 | e03
    pick1 = _ref_widen((e12 | e13) & ~pick0)
    pick0 = _ref_widen(pick0)
    winner = (s0 & pick0) | (s1 & pick1) | (s2 & ~(pick0 | pick1))
    return winner & _ref_widen(resolved), _REF_HIGH & ~resolved


_S5A = SBoxTable(bytes(b ^ 0x5A for b in AES_SBOX.entries))


def _lane_tables():
    """(lanes, v, h) of the AES S-box and of S xor 0x5a, each with its
    own parity tables."""
    for table in (AES_SBOX, _S5A):
        parity = build_redundant_tables(table)
        yield to_lanes(table.entries), parity.v, parity.h


def _assert_votes_agree(lanes, v, h):
    """The vote equals the pairwise vote, and where the syndromes are
    one entry's signature it is the closed form's write, which leaves no
    syndrome.  Returns the vote and whether the closed form applied."""
    got = _vote(lanes, v, h)
    assert got == _reference_vote(lanes, v, h), (hex(lanes ^ v), hex(h))
    closed = _one_entry(*_syndromes(lanes, v, h))
    if closed:
        assert got == (closed, 0), (hex(lanes ^ v), hex(h))
        assert _syndromes(lanes ^ closed, v, h) == (0, 0), \
            (hex(lanes ^ v), hex(h))
    return got + (bool(closed),)


def _no_lane_vote(lanes):
    raise AssertionError("a one-entry pattern reached the lane vote")


def test_one_entry_vote_is_closed_form(monkeypatch):
    # Every (x, e) single fault on both tables: the vote equals the
    # pairwise vote, writes e into lane x alone in closed form, a
    # clearing write (the table it leaves fails no edge), and never
    # reaches the pairwise comparisons (the first of which needs
    # lanes_up).
    monkeypatch.setattr(guard, "lanes_up", _no_lane_vote)
    for lanes, v, h in _lane_tables():
        for x in range(256):
            for e in range(1, 256):
                assert _assert_votes_agree(lanes ^ e << 8 * x, v, h) == \
                    (e << 8 * x, 0, True)


def _lane_errors(max_size):
    """Up to max_size nonzero byte errors at distinct lanes, as one lane
    int."""
    return st.dictionaries(st.integers(0, 255), st.integers(1, 255),
                           max_size=max_size).map(
        lambda errors: sum(e << 8 * x for x, e in errors.items()))


# Lone entry faults and sound parity tables are drawn often enough to
# reach the closed form in about one example of ten.
_ENTRY_ERRORS = st.one_of(_lane_errors(1), _lane_errors(4))
_PARITY_ERRORS = st.one_of(st.just(0), _lane_errors(2))


@st.composite
def _lone_entry_with_a_perturbed_half(draw):
    """(entry, v, h) errors: a lone entry error (x, e) plus parity errors
    on x's two horizontal edges (or its two vertical ones), so that one
    syndrome is x's half of the one-entry signature and the other is
    not."""
    x = draw(st.integers(0, 255))
    e = draw(st.integers(1, 255))
    near, far = draw(st.tuples(st.integers(0, 255),
                               st.integers(0, 255)).filter(any))
    if draw(st.booleans()):
        return e << 8 * x, 0, near << 8 * x | far << 8 * left(x)
    return e << 8 * x, near << 8 * x | far << 8 * up(x), 0


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(table=st.binary(min_size=256, max_size=256),
       pattern=st.one_of(
           st.tuples(_ENTRY_ERRORS, _PARITY_ERRORS, _PARITY_ERRORS),
           _lone_entry_with_a_perturbed_half()))
def test_a_clearing_write_leaves_no_syndrome(table, pattern):
    # Any table, entry errors and parity faults: whenever the syndromes
    # are none or one entry's signature, the vote is the closed form's
    # write, the written table fails no edge, and a vote of it is (0, 0).
    errors, v_errors, h_errors = pattern
    parity = build_redundant_tables(SBoxTable(table))
    lanes = to_lanes(table) ^ errors
    v, h = parity.v ^ v_errors, parity.h ^ h_errors
    sv, sh = _syndromes(lanes, v, h)
    delta = _one_entry(sv, sh)
    if delta or not sv | sh:
        assert _vote(lanes, v, h) == (delta, 0)
        written = lanes ^ delta
        assert written ^ lanes_down(written) == v
        assert written ^ lanes_right(written) == h
        assert _vote(written, v, h) == (0, 0)


def test_one_entry_repair_skips_the_lane_vote(monkeypatch, pair, tables):
    monkeypatch.setattr(guard, "lanes_up", _no_lane_vote)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    fixed, report = correct(faulted, tables, pair)
    assert (fixed, report.converged) == (AES_SBOX, True)
    assert precorrect_table(faulted, tables) == AES_SBOX


def test_two_entries_with_one_error_match_the_lane_vote():
    # A second entry with the same error within Manhattan distance 2
    # shares an edge or a neighbour with the first: no one-entry
    # signature, and the general vote decides.
    offsets = [(dr, dc) for dr in range(-2, 3) for dc in range(-2, 3)
               if 0 < abs(dr) + abs(dc) <= 2]
    for lanes, v, h in _lane_tables():
        for x in range(256):
            r, c = divmod(x, 16)
            for dr, dc in offsets:
                y = _torus(r + dr, c + dc)
                for e in (0x01, 0x5A, 0xFF):
                    _assert_votes_agree(
                        lanes ^ e << 8 * x ^ e << 8 * y, v, h)


def test_one_entry_signature_with_an_extra_failing_edge():
    # Entry x faulted by e, plus one more failing edge anywhere, with
    # the same syndrome e or another one (a faulted parity entry).
    x = 0x42
    for lanes, v, h in _lane_tables():
        faulted = lanes ^ 0x37 << 8 * x
        for y in range(256):
            for f in (0x37, 0x01, 0xC8):
                _assert_votes_agree(faulted, v ^ f << 8 * y, h)
                _assert_votes_agree(faulted, v, h ^ f << 8 * y)


def test_one_axis_signatures_match_the_lane_vote():
    # Only the vertical, or only the horizontal, half of the signature:
    # the entry's two edges on the other axis pass.
    for lanes, v, h in _lane_tables():
        for x in range(256):
            for e in (0x01, 0x5A, 0xFF):
                sv = e << 8 * x | e << 8 * up(x)
                sh = e << 8 * x | e << 8 * left(x)
                # Faulted parity alone, or an entry fault the other
                # axis's parity cancels.
                _assert_votes_agree(lanes, v ^ sv, h)
                _assert_votes_agree(lanes, v, h ^ sh)
                _assert_votes_agree(lanes ^ e << 8 * x, v, h ^ sh)
                _assert_votes_agree(lanes ^ e << 8 * x, v ^ sv, h)


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


_S21 = SBoxTable(bytes(b ^ 0x21 for b in AES_SBOX.entries))


def _fallback_table():
    """S xor 0x21 with entry 0x42 flipped by a further 5.  Its syndromes
    are entry 0x42's alone, but the closed-form write leaves S xor 0x21,
    which passes every parity check and fails the walk."""
    return inject(_S21, FaultSpec(((0x42, _S21[0x42] ^ 5),)))


@pytest.mark.parametrize("budget,rounds", [(1, 1), (2, 2), (16, 2)])
def test_closed_form_write_that_fails_the_walk_stands_as_round_one(
        pair, tables, budget, rounds):
    # The written table fails no edge, so round 2 votes it and changes
    # nothing; S xor 0x21 on its own fails no edge from round 1.
    cfg = GuardConfig(budget)
    fixed, report = correct(_fallback_table(), tables, pair, cfg)
    assert fixed == _S21
    assert report == CorrectionReport(converged=False, rounds_used=rounds,
                                      changed_entries=((0x42, 0x08, 0x0D),),
                                      unresolved=())
    for table in (_fallback_table(), _S21):
        want_fixed, want, _ = _oracle_correct(table, tables, pair, cfg)
        assert correct(table, tables, pair, cfg) == (want_fixed, want)
    assert correct(_S21, tables, pair, cfg) == (
        _S21, CorrectionReport(converged=False, rounds_used=1))


@pytest.mark.parametrize("case,budget,walks", [
    ("single", 16, 1), ("block3", 2, 2), ("block3", 16, 3),
    ("fallback", 1, 1), ("fallback", 16, 1)])
def test_correct_walks_each_written_table_once(monkeypatch, pair, tables,
                                               case, budget, walks):
    # The caller's detect already rejected the input table, so correct()
    # walks only the tables its rounds write.
    calls = []

    def counting_detect(*args):
        calls.append(args)
        return detect(*args)

    monkeypatch.setattr(guard, "detect", counting_detect)
    faulted = {
        "single": lambda: inject(AES_SBOX, FaultSpec(((0x42, 0x00),))),
        "block3": _faulted_block3,
        "fallback": _fallback_table,
    }[case]()
    guard.correct(faulted, tables, pair, GuardConfig(budget))
    assert len(calls) == walks


def test_sweep_never_corrupts_best_case(pair, tables):
    # With at most one bad proposal per entry the majority is always
    # sound, so correction touches only the faulted cells.
    rng = Rng(14)
    for _ in range(100):
        spec = random_faults(Rng(derive_seed(rng.seed, rng.u64())), 3)
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


def test_correction_report_is_an_immutable_value():
    report = CorrectionReport(converged=False, rounds_used=2)
    assert (report.changed_entries, report.unresolved) == ((), ())
    for name in ("converged", "rounds_used", "changed_entries",
                 "unresolved"):
        with pytest.raises(AttributeError):
            setattr(report, name, getattr(report, name))
    full = CorrectionReport(converged=True, rounds_used=1,
                            changed_entries=((7, 1, 2),), unresolved=(9,))
    same = CorrectionReport(converged=True, rounds_used=1,
                            changed_entries=((7, 1, 2),), unresolved=(9,))
    assert full == same and hash(full) == hash(same)
    assert full != CorrectionReport(converged=True, rounds_used=1,
                                    changed_entries=((7, 1, 2),))
    assert report == CorrectionReport(converged=False, rounds_used=2,
                                      changed_entries=(), unresolved=())


def test_correction_report_init_takes_its_fields():
    # The report's own __init__ repeats the field list: its parameters
    # are the fields, in order, with the same defaults, and every field
    # is set, so dataclasses.replace and asdict see the whole report.
    params = inspect.signature(CorrectionReport).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        (f.name, inspect.Parameter.empty if f.default is MISSING
         else f.default) for f in fields(CorrectionReport)]
    full = CorrectionReport(True, 1, ((7, 1, 2),), (9,))
    assert asdict(full) == {"converged": True, "rounds_used": 1,
                            "changed_entries": ((7, 1, 2),),
                            "unresolved": (9,)}
    assert replace(full, unresolved=()) == CorrectionReport(
        True, 1, ((7, 1, 2),))


def test_precorrect_table_masks_single_fault(tables):
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    effective = precorrect_table(faulted, tables)
    for x in (0x42, right(0x42), down(0x42), 0x00, 0xFF):
        assert effective[x] == AES_SBOX[x]
    assert effective == AES_SBOX
    assert faulted[0x42] == 0x00  # the stored table is left as it was


def test_precorrect_table_equivalence(pair, tables):
    h, v = _parity_arrays(tables)
    rng = Rng(15)
    for _ in range(100):
        spec = random_faults(Rng(derive_seed(rng.seed, rng.u64())), 2)
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


def _parity_arrays(tables):
    """The parity tables h and v as uint8 arrays indexed by entry."""
    return (np.frombuffer(from_lanes(tables.h), dtype=np.uint8),
            np.frombuffer(from_lanes(tables.v), dtype=np.uint8))


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
    h, v = _parity_arrays(tables)
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
    h, v = from_lanes(tables.h), from_lanes(tables.v)
    return any(table[a] ^ table[b] != parity for a, b, parity in (
        (up(x), x, v[up(x)]), (x, down(x), v[x]),
        (left(x), x, h[left(x)]), (x, right(x), h[x])))


def _oracle_cases():
    """200 scattered and clustered fault sets of 2 to 255 entries."""
    rng = Rng(18)
    for k in (2, 9, 25, 64, 255):
        for i in range(40):
            if i % 2:
                policy = (RANDOM_BYTE, BIT_FLIP)[i // 2 % 2]
                fault_rng = Rng(derive_seed(rng.seed, rng.u64()))
                spec = random_faults(fault_rng, k, CLUSTERED, policy)
            else:
                spec = FaultSpec(tuple(
                    (x, AES_SBOX[x] ^ (1 + rng.randrange(255)))
                    for x in rng.sample_distinct(256, k)))
            # An unused draw, kept so that the later seeded cases stay fixed.
            rng.sample_distinct(256, 1 + rng.randrange(64))
            yield i, inject(AES_SBOX, spec)


def test_syndrome_sweep_matches_dense_oracle(pair, tables):
    h, v = _parity_arrays(tables)
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
    yield from _double_cases()


def _double_cases():
    """The 1,024 two-fault placements of _golden_cases, in its order."""
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


def _cluster_cases():
    """The 3x3 ring, the 3x3 block and the 5x5 block at 16 seeded
    anchors, with seeded values, at budgets 1, 2 and 16."""
    rng = Rng(20)
    for _ in range(16):
        r0, c0 = divmod(rng.randrange(256), 16)
        for side, ring in ((3, True), (3, False), (5, False)):
            cells = [_torus(r0 + dr, c0 + dc)
                     for dr in range(side) for dc in range(side)
                     if not (ring and dr == dc == side // 2)]
            spec = FaultSpec(tuple(
                (x, AES_SBOX[x] ^ (1 + rng.randrange(255))) for x in cells))
            for budget in (1, 2, 16):
                yield inject(AES_SBOX, spec), GuardConfig(budget)


def _seeded_single_cases():
    """2,000 single faults at seeded cells and values."""
    rng = Rng(21)
    for _ in range(2000):
        x = rng.randrange(256)
        yield inject(AES_SBOX, FaultSpec(
            ((x, AES_SBOX[x] ^ (1 + rng.randrange(255))),))), GuardConfig()


@pytest.mark.parametrize("cases", [
    _seeded_single_cases, _double_cases, _cluster_cases])
def test_correct_matches_the_revoting_oracle(pair, tables, cases):
    # The oracle votes the final table after every write; correct() skips
    # that vote after a clearing write, and no table or report differs.
    for faulted, cfg in cases():
        want_fixed, want, _ = _oracle_correct(faulted, tables, pair, cfg)
        assert correct(faulted, tables, pair, cfg) == (want_fixed, want)
