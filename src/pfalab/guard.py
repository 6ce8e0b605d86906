"""Closed-loop table checking and neighbour-vote repair.

The guard runs before each encryption:

1. detect: walk the stored seed block P through t table applications
   and compare against the precomputed checkpoint C (and one further
   step against C_hat).  Any single corrupted entry flips the
   comparison, at the cost of 16*t extra lookups and no storage beyond
   three blocks.

2. correct: if detection fires, rebuild entries by majority vote over
   the four neighbour reconstructions offered by the parity tables.
   Each is the entry XOR the syndrome of one of its grid edges (the
   edge's two entries XOR their parity), nonzero only where that check
   fails, so an entry on passing edges only is a fixed point, skipped.
   The edges and each entry's four of them are sbox.EDGES and
   sbox.INCIDENT.  One sweep repairs any entry that still has at least
   two sound votes; denser damage is peeled from the outside in over
   repeated sweeps.  Every sweep covers the whole table.

Both steps operate on a working copy; the persistent (possibly faulted)
storage is never written, mirroring a device that refreshes its RAM
copy of the table on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sbox import EDGES, INCIDENT, SBoxTable
from .sbox_analysis import DetectionPair, RedundantTables


@dataclass(frozen=True)
class GuardConfig:
    """Knobs for the check-and-repair loop.

    max_correction_rounds bounds the vote sweeps per invocation.  The
    default is generous; deployments trade it down (two sweeps already
    repair anything but a dense cluster's core) and accept that a
    too-dense cluster stays flagged.  use_second_checkpoint adds the
    C_hat comparison to every detect walk.
    """

    max_correction_rounds: int = 16
    use_second_checkpoint: bool = True

    def __post_init__(self):
        if self.max_correction_rounds < 1:
            raise ValueError("max_correction_rounds must be at least 1")


DEFAULT_GUARD = GuardConfig()


def detect(
    table: SBoxTable,
    pair: DetectionPair,
    use_second_checkpoint: bool = True,
) -> bool:
    """True when the table fails the checkpoint walk (fault present)."""
    block = pair.p
    for _ in range(pair.t):
        block = block.translate(table.entries)
    if block != pair.c:
        return True
    if use_second_checkpoint:
        return block.translate(table.entries) != pair.c_hat
    return False


# A vote resolves to the unique value holding at least two of the four
# candidates; a 2-2 tie or four distinct values stay unresolved.  By the
# number of agreeing candidate pairs: 1 (2-1-1), 3 (3-1) and 6 (4-0)
# leave one majority; 0 and 2 (2-2) do not; 4 and 5 cannot occur.
_PAIR_I, _PAIR_J = np.array([[0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]])
_RESOLVED_BY_AGREEING_PAIRS = np.array([0, 1, 0, 1, 0, 0, 1], dtype=bool)


def _sweep(entries: np.ndarray, tables: RedundantTables):
    """One simultaneous vote over the entries on a failing parity check.

    Candidates are the entry XOR the syndromes of its four edges, so an
    entry on passing edges only votes 4-of-4 for itself and is skipped.
    Returns the voted indices (ascending), winners and resolved mask.
    """
    ends = entries[EDGES]
    parity = np.frombuffer(tables.v + tables.h, dtype=np.uint8)
    syndromes = (ends[0] ^ ends[1] ^ parity)[INCIDENT]
    # An entry's four syndrome bytes read as one word: nonzero iff active.
    active = np.flatnonzero(syndromes.view(np.uint32))
    syndromes = syndromes[active]
    agree = syndromes[:, _PAIR_I] == syndromes[:, _PAIR_J]
    # Every agreeing pair of a resolved vote lies in its majority.
    winner = syndromes[np.arange(active.size), _PAIR_I[agree.argmax(axis=1)]]
    return (active, entries[active] ^ winner,
            _RESOLVED_BY_AGREEING_PAIRS[agree.sum(axis=1)])


@dataclass(frozen=True)
class CorrectionReport:
    """What a correct() invocation did and where it ended up.

    changed_entries lists (index, old value, new value) in write order;
    unresolved lists the indices where the final state's vote still
    cannot decide.  converged means the checkpoint walk passes on the
    final table.
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
    """Repair a working copy of the table by repeated vote sweeps.

    Sweeps run until the checkpoint walk passes, a sweep changes
    nothing, or the round budget is spent.  Writes within a round are
    simultaneous (every vote reads the same snapshot), so entry order
    never matters and rounds_used is well defined.
    """
    entries = np.frombuffer(table.entries, dtype=np.uint8).copy()
    changed_entries: list[tuple[int, int, int]] = []
    rounds_used = 0
    while True:
        converged = not detect(SBoxTable(entries.tobytes()), pair,
                               cfg.use_second_checkpoint)
        if converged or rounds_used == cfg.max_correction_rounds:
            break
        active, winner, resolved = _sweep(entries, tables)
        write = resolved & (winner != entries[active])
        rounds_used += 1
        if not write.any():
            break  # the entries stand as detect just rejected them
        cells = active[write]
        changed_entries += zip(cells.tolist(), entries[cells].tolist(),
                               winner[write].tolist())
        entries[cells] = winner[write]
    # Unresolved is assessed on the final state so that converged
    # (clean detect) always implies an empty list.
    active, _, resolved = _sweep(entries, tables)
    return SBoxTable(entries.tobytes()), CorrectionReport(
        converged=converged, rounds_used=rounds_used,
        changed_entries=tuple(changed_entries),
        unresolved=tuple(active[~resolved].tolist()))


def precorrect_table(table: SBoxTable, tables: RedundantTables) -> SBoxTable:
    """All 256 voted lookups as an effective table (one vote sweep).

    The always-on variant of repair: every table read is replaced by its
    neighbour vote, so a single fault is masked from the very first
    encryption, at four lookups and three XORs per table read.  An
    unresolved vote keeps the stored entry.
    """
    entries = np.frombuffer(table.entries, dtype=np.uint8).copy()
    active, winner, resolved = _sweep(entries, tables)
    entries[active[resolved]] = winner[resolved]
    return SBoxTable(entries.tobytes())

