"""Closed-loop table checking and neighbour-vote repair.

The guard runs before each encryption:

1. detect: walk the stored seed block P through t table applications
   and compare against the precomputed checkpoint C, then one further
   step against C_hat.  Any single corrupted entry of a table that
   sbox_analysis.verify_detection certifies (the AES S-box and its
   inverse) flips the comparison, at the cost of 16*t extra lookups and
   no storage beyond three blocks.

2. correct: called only once detect has fired, rebuild entries by
   majority vote over the four neighbour reconstructions offered by
   the parity tables.
   Each is the entry XOR the syndrome of one of its grid edges (the
   edge's two entries XOR their parity), nonzero only where that check
   fails, so an entry on passing edges only is a fixed point.  A sweep
   votes all 256 entries at once as the byte lanes of one 2048-bit int
   (sbox.to_lanes): the syndromes come from the sbox lane moves, and
   the comparisons, the vote and the write are whole-int bit operations.
   One sweep repairs any entry that still has at least two sound votes;
   denser damage is peeled from the outside in over repeated sweeps.
   Every sweep covers the whole table.

Both steps operate on a working copy; the persistent (possibly faulted)
storage is never written, mirroring a device that refreshes its RAM
copy of the table on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .sbox import (
    SBoxTable,
    from_lanes,
    lanes_down,
    lanes_left,
    lanes_right,
    lanes_up,
    to_lanes,
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
    from C_hat."""
    block = pair.p
    for _ in range(pair.t):
        block = block.translate(table.entries)
    return block != pair.c or block.translate(table.entries) != pair.c_hat


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


def _lanes_of(high: int) -> list[int]:
    """The set lanes of a bit-7 lane mask, ascending.  One find per set
    lane: faults are sparse, and a numpy call costs several finds."""
    lanes = from_lanes(high)
    found = []
    x = lanes.find(0x80)
    while x >= 0:
        found.append(x)
        x = lanes.find(0x80, x + 1)
    return found


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
    sv = lanes ^ lanes_down(lanes) ^ v
    sh = lanes ^ lanes_right(lanes) ^ h
    if not sv | sh:
        return 0, 0
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


@dataclass(frozen=True)
class CorrectionReport:
    """What a correct() invocation did and where it ended up.

    changed_entries lists (index, old value, new value) in write order;
    unresolved lists the indices where the final state's vote still
    cannot decide.  correct() starts from a table detect rejected, so
    converged means a vote changed the table and the walk then passed.
    """

    converged: bool
    rounds_used: int
    changed_entries: tuple[tuple[int, int, int], ...] = field(default=())
    unresolved: tuple[int, ...] = field(default=())

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
    defined.
    """
    working = table
    lanes = to_lanes(table.entries)
    v, h = to_lanes(tables.v), to_lanes(tables.h)
    changed_entries: list[tuple[int, int, int]] = []
    converged = False
    for rounds_used in range(1, cfg.max_correction_rounds + 1):
        delta, unresolved = _vote(lanes, v, h)
        if not delta:
            break  # the entries stand as the last walk rejected them
        old = working.entries
        lanes ^= delta
        working = SBoxTable(from_lanes(lanes))
        changed_entries += [(x, old[x], working.entries[x])
                            for x in _lanes_of(_HIGH ^ _zero_lanes(delta))]
        converged = not detect(working, pair)
        if converged:
            break
    if delta:
        unresolved = _vote(lanes, v, h)[1]  # the vote of the final table
    return working, CorrectionReport(
        converged=converged, rounds_used=rounds_used,
        changed_entries=tuple(changed_entries),
        unresolved=tuple(_lanes_of(unresolved)))


def precorrect_table(table: SBoxTable, tables: RedundantTables) -> SBoxTable:
    """All 256 voted lookups as an effective table (one vote sweep).

    The always-on variant of repair: every table read is replaced by its
    neighbour vote, so a single fault is masked from the very first
    encryption, at four lookups and three XORs per table read.  An
    unresolved vote keeps the stored entry.
    """
    lanes = to_lanes(table.entries)
    delta, _ = _vote(lanes, to_lanes(tables.v), to_lanes(tables.h))
    return SBoxTable(from_lanes(lanes ^ delta))
