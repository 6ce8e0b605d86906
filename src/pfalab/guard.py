"""Closed-loop table checking and neighbour-vote repair.

The guard runs before each encryption:

1. detect: walk the stored seed block P through t table applications
   and compare against the precomputed checkpoint C, then one further
   step against C_hat.  Any single corrupted entry of a table that
   sbox_analysis.verify_detection certifies (the AES S-box and its
   inverse) flips the comparison, at the cost of 16*(t+1) lookups (336
   for the AES pair) and no storage beyond three blocks.  The walk takes
   t // 2 steps on the squared table, plus one on the table for odd t.

2. correct: called only once detect has fired, rebuild entries by
   majority vote over the four neighbour reconstructions offered by
   the parity tables, which are stored as the lane ints a sweep reads.
   Each is the entry XOR the syndrome of one of its grid edges (the
   edge's two entries XOR their parity), nonzero only where that check
   fails, so an entry on passing edges only is a fixed point.  A sweep
   votes all 256 entries at once as the byte lanes of one 2048-bit int
   (sbox.to_lanes): the syndromes come from the sbox lane moves, and
   the comparisons, the vote and the write are whole-int bit operations.
   A lone faulty entry (its four edges, and no others, fail with one
   syndrome) is voted in closed form, skipping the pairwise comparisons,
   and correct returns after one walk of that one write.
   One sweep repairs any entry that still has at least two sound votes;
   denser damage is peeled from the outside in over repeated sweeps.
   Every sweep covers the whole table.

Both steps operate on a working copy; the persistent (possibly faulted)
storage is never written, mirroring a device that refreshes its RAM
copy of the table on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sbox import (
    SBoxTable,
    _table_of_lanes,
    lanes_down,
    lanes_left,
    lanes_right,
    lanes_up,
    left,
    to_lanes,
    up,
)
from .sbox_analysis import DetectionPair, RedundantTables


@dataclass(frozen=True)
class GuardConfig:
    """The check-and-repair loop's round budget.

    max_correction_rounds bounds the vote sweeps per invocation.  The
    default is generous; deployments trade it down (two sweeps already
    repair anything but a dense cluster's core) and accept that a
    too-dense cluster stays flagged.
    """

    max_correction_rounds: int = 16

    def __post_init__(self):
        # correct() counts its sweeps up to the budget, which a
        # fractional budget never is; a bool is not a count.
        if (type(self.max_correction_rounds) is not int
                or self.max_correction_rounds < 1):
            raise ValueError("max_correction_rounds must be an int of at "
                             "least 1")


DEFAULT_GUARD = GuardConfig()


def detect(table: SBoxTable, pair: DetectionPair) -> bool:
    """True when the table fails the checkpoint walk (fault present):
    the block after t steps differs from C, or the one after t + 1 steps
    from C_hat.  Lane b of the square entries.translate(entries) is
    entries[entries[b]], so t // 2 steps on it, and one more on the table
    when t is odd, give the t-step block for any table."""
    entries = table.entries
    block, square = pair.p, entries.translate(entries)
    for _ in range(pair.t >> 1):
        block = block.translate(square)
    if pair.t & 1:
        block = block.translate(entries)
    return block != pair.c or block.translate(entries) != pair.c_hat


# Byte-lane constants: bit 7, and bits 0-6, of every lane.
_HIGH = int.from_bytes(b"\x80" * 256, "little")
_LOW7 = int.from_bytes(b"\x7f" * 256, "little")


def _zero_lanes(lanes: int) -> int:
    """Bit 7 set in each zero lane.  (z & 0x7F) + 0x7F carries into bit
    7 exactly when bits 0-6 are not all zero and never past it."""
    return _HIGH & ~(((lanes & _LOW7) + _LOW7) | lanes)


def _widen(high: int) -> int:
    """A bit-7 lane mask widened to 0xFF in each of its lanes."""
    return (high >> 7) * 0xFF


def _lanes_of(lanes: int) -> list[int]:
    """The nonzero lanes of a lane int, ascending.  One lowest-set-bit
    step per lane, shifting the lanes found out: faults are sparse."""
    found, x = [], -1
    while lanes:
        skip = ((lanes & -lanes).bit_length() - 1) >> 3
        x += skip + 1
        found.append(x)
        lanes >>= 8 * skip + 8
    return found


def _syndromes(lanes: int, v: int, h: int) -> tuple[int, int]:
    """(sv, sh): lane x holds the syndrome of x's edge down, and right."""
    return lanes ^ lanes_down(lanes) ^ v, lanes ^ lanes_right(lanes) ^ h


def _one_entry(sv: int, sh: int) -> int:
    """e << 8x when the syndromes are one entry's signature, else 0.

    An error e at entry x alone fails exactly x's four edges, with
    syndrome e: sv is e in lanes x and up(x), sh in lanes x and left(x).
    x then votes 4-0 for e, its neighbours 3-1 and all else 4-0 for
    themselves, so the vote writes e at x alone, clearing both syndromes.
    """
    x = ((sv & sh).bit_length() - 1) >> 3
    if x < 0:  # no lane fails both checks
        return 0
    e = (sv >> 8 * x) & 0xFF
    ex = e << 8 * x
    if sv == ex | e << 8 * up(x) and sh == ex | e << 8 * left(x):
        return ex
    return 0


def _vote(lanes: int, v: int, h: int) -> tuple[int, int]:
    """One simultaneous vote over all 256 entries of a lane int.

    Each entry's candidates are the entry XOR the syndromes s0..s3 of its
    up, down, left and right edges.  A vote resolves to the unique value
    holding at least two of the four; a 2-2 tie or four distinct values
    stay unresolved.  By the number of agreeing candidate pairs: 1
    (2-1-1), 3 (3-1) and 6 (4-0) leave one majority, 0 and 2 (2-2) do
    not, and 4 and 5 cannot occur.  An entry on passing edges only votes
    4-of-4 for itself.  v and h are the parity tables as lane ints.
    Returns (delta, unresolved): lanes ^ delta is the voted table, and
    unresolved has bit 7 set where a vote cannot decide.
    """
    sv, sh = _syndromes(lanes, v, h)
    delta = _one_entry(sv, sh)
    if delta or not sv | sh:
        return delta, 0
    return _lane_vote(sv, sh)


def _lane_vote(sv: int, sh: int) -> tuple[int, int]:
    """_vote's (delta, unresolved) from the pairwise comparisons."""
    s0, s1, s2, s3 = lanes_up(sv), sv, lanes_left(sh), sh
    # eij: candidates i and j agree.
    e01 = _zero_lanes(s0 ^ s1)
    e02 = _zero_lanes(s0 ^ s2)
    e03 = _zero_lanes(s0 ^ s3)
    e12 = _zero_lanes(s1 ^ s2)
    e13 = _zero_lanes(s1 ^ s3)
    e23 = _zero_lanes(s2 ^ s3)
    # An odd count of agreeing pairs (1 or 3), or all six.
    resolved = (e01 ^ e02 ^ e03 ^ e12 ^ e13 ^ e23) | (e01 & e02 & e03)
    # Every agreeing pair of a resolved vote lies in its majority, so the
    # first member of the first agreeing pair wins.
    pick0 = e01 | e02 | e03
    pick1 = _widen((e12 | e13) & ~pick0)
    pick0 = _widen(pick0)
    winner = (s0 & pick0) | (s1 & pick1) | (s2 & ~(pick0 | pick1))
    return winner & _widen(resolved), _HIGH & ~resolved


@dataclass(frozen=True, init=False)
class CorrectionReport:
    """What a correct() invocation did and where it ended up.

    changed_entries lists (index, old value, new value) in write order;
    unresolved lists the indices where the final state's vote still
    cannot decide.  correct() starts from a table detect rejected, so
    converged means a vote changed the table and the walk then passed.
    """

    converged: bool
    rounds_used: int
    changed_entries: tuple[tuple[int, int, int], ...] = ()
    unresolved: tuple[int, ...] = ()

    def __init__(self, converged, rounds_used, changed_entries=(),
                 unresolved=()):
        # One dict update, not the frozen default's setattr per field.
        self.__dict__.update(converged=converged, rounds_used=rounds_used,
                             changed_entries=changed_entries,
                             unresolved=unresolved)

    def to_json_dict(self) -> dict:
        return {
            "changed": [[x, old, new] for x, old, new in self.changed_entries],
            "rounds": self.rounds_used,
            "unresolved": list(self.unresolved),
            "converged": self.converged,
        }


def correct(
    table: SBoxTable,
    tables: RedundantTables,
    pair: DetectionPair,
    cfg: GuardConfig = DEFAULT_GUARD,
) -> tuple[SBoxTable, CorrectionReport]:
    """Repair a working copy of a table that detect has rejected.

    Each round votes, writes, and walks the new table once; rounds stop
    when the walk passes, a vote changes nothing, or the round budget is
    spent.  Writes within a round are simultaneous (every vote reads the
    same snapshot), so entry order never matters and rounds_used is well
    defined.  A lone faulty entry is round 1 in closed form: correct
    writes it, walks the result once and returns, converged or not, as
    that write clears every syndrome and a round 2 would vote no change.
    Otherwise each written table is voted once, for the next round or,
    in the last, for the unresolved entries.
    """
    v, h = tables.v, tables.h
    lanes = to_lanes(table.entries)
    sv, sh = _syndromes(lanes, v, h)
    delta = _one_entry(sv, sh)
    if delta:
        x = (delta.bit_length() - 1) >> 3
        working = _table_of_lanes(lanes ^ delta)
        changed = ((x, table.entries[x], working.entries[x]),)
        if not detect(working, pair):
            return working, CorrectionReport(True, 1, changed)
        return working, CorrectionReport(
            False, min(2, cfg.max_correction_rounds), changed)
    working, changed_entries, converged = table, [], False
    delta, unresolved = _lane_vote(sv, sh)
    for rounds_used in range(1, cfg.max_correction_rounds + 1):
        if not delta:
            break  # the entries stand as the last walk rejected them
        old = working.entries
        lanes ^= delta
        working = _table_of_lanes(lanes)
        changed_entries += [(x, old[x], working.entries[x])
                            for x in _lanes_of(delta)]
        delta, unresolved = _vote(lanes, v, h)
        converged = not detect(working, pair)
        if converged:
            break
    return working, CorrectionReport(
        converged, rounds_used, tuple(changed_entries),
        tuple(_lanes_of(unresolved)))


def precorrect_table(table: SBoxTable, tables: RedundantTables) -> SBoxTable:
    """All 256 voted lookups as an effective table (one vote sweep).

    The always-on variant of repair: every table read is replaced by its
    neighbour vote, so a single fault is masked from the very first
    encryption, at four lookups and three XORs per table read.  An
    unresolved vote keeps the stored entry.
    """
    lanes = to_lanes(table.entries)
    return _table_of_lanes(lanes ^ _vote(lanes, tables.v, tables.h)[0])
