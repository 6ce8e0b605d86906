"""Offline analysis of a substitution table.

Two artifacts are derived from a table ahead of deployment:

* A detection pair (P, C): a 16-byte seed block P and the block C
  obtained by applying the table to P sixteen bytes at a time for t
  rounds.  Seeds are placed along the cycles of the table's permutation
  so that t applications read every table entry at least once, and the
  (t+1)-th block C_hat is stored as a second checkpoint.  Reading every
  entry does not by itself make every single fault perturb C or C_hat:
  a fault can send a lane round a short cycle and back onto its
  fault-free checkpoint.  verify_detection certifies a pair table by
  table over all single faults.  It finds no escape for the AES S-box
  or its inverse (with C alone, each has one, at entry 0x73), but it
  does for tables in general: five of the eight random permutations
  that the tests' seeded shuffle draws from Rng seeds 0-7 have escapes
  even with C_hat.

* Redundant parity tables (H, V): byte-wise XOR of horizontally and
  vertically adjacent entries in the 16x16 grid view.  Any entry can be
  reconstructed four ways from its neighbours, enabling majority-vote
  repair (see guard.correct).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil

import numpy as np

from .aes import BLOCK_SIZE
from .sbox import (
    NotAPermutation,
    SBoxTable,
    from_lanes,
    lanes_down,
    lanes_right,
    to_lanes,
)


class InfeasibleAllocation(ValueError):
    """More cycles than seeds: one walk per cycle is impossible."""


@dataclass(frozen=True)
class CycleDecomposition:
    """Cycles of a table viewed as a permutation.

    Each cycle is rotated to start at its smallest member and cycles are
    ordered by that member, so the decomposition is canonical.
    """

    cycles: tuple[tuple[int, ...], ...]

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cycles)


def cycle_decompose(table: SBoxTable) -> CycleDecomposition:
    if not table.is_permutation():
        raise NotAPermutation("cycle structure requires a permutation")
    seen = bytearray(256)
    cycles = []
    for start in range(256):
        if seen[start]:
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = 1
            cycle.append(x)
            x = table[x]
        cycles.append(tuple(cycle))
    return CycleDecomposition(tuple(cycles))


@dataclass(frozen=True)
class SeedAllocation:
    """How many of the 16 walk seeds go to each cycle.

    d[i] seeds walk cycle i; each then has to cover a stretch of
    r[i] = ceil(length[i] / d[i]) elements, and the number of table
    applications is t = max(r).
    """

    d: tuple[int, ...]
    r: tuple[int, ...]
    t: int


def allocate_seeds(lengths) -> SeedAllocation:
    """Distribute a block's 16 seeds over cycles to minimise the walk
    length t.

    Exhaustive over all compositions of 16 into len(lengths) positive
    parts; tables rarely decompose into more than a handful of cycles,
    so the search space stays tiny.  Ties on t are broken by the total
    covered stretch sum(r), then by the lexicographically smallest d,
    making the result deterministic.
    """
    lengths = tuple(lengths)
    k = len(lengths)
    if k == 0:
        raise ValueError("no cycles to allocate seeds to")
    if k > BLOCK_SIZE:
        raise InfeasibleAllocation(
            f"{k} cycles need at least {k} seeds, only {BLOCK_SIZE} "
            "available")
    best: tuple[int, int, tuple[int, ...], tuple[int, ...]] | None = None
    for cuts in combinations(range(1, BLOCK_SIZE), k - 1):
        bounds = (0,) + cuts + (BLOCK_SIZE,)
        d = tuple(bounds[i + 1] - bounds[i] for i in range(k))
        r = tuple(ceil(length / di) for length, di in zip(lengths, d))
        cand = (max(r), sum(r), d, r)
        if best is None or cand < best:
            best = cand
    assert best is not None
    t, _, d, r = best
    return SeedAllocation(d=d, r=r, t=t)


@dataclass(frozen=True)
class DetectionPair:
    """Precomputed (P, C) checkpoint plus the follow-up block C_hat."""

    p: bytes
    c: bytes
    c_hat: bytes
    t: int


def build_detection_pair(table: SBoxTable) -> DetectionPair:
    """Place seeds along the cycles and precompute the checkpoints.

    Within cycle i the d[i] seeds sit r[i] positions apart, so the t-step
    walks tile the cycle with overlap only at the stretch ends.
    """
    decomp = cycle_decompose(table)
    allocation = allocate_seeds(decomp.lengths)
    seeds = []
    for cycle, di, ri in zip(decomp.cycles, allocation.d, allocation.r):
        for j in range(di):
            seeds.append(cycle[(j * ri) % len(cycle)])
    p = bytes(seeds)
    c = p
    for _ in range(allocation.t):
        c = c.translate(table.entries)
    c_hat = c.translate(table.entries)
    return DetectionPair(p=p, c=c, c_hat=c_hat, t=allocation.t)


def verify_detection(
    table: SBoxTable,
    pair: DetectionPair,
    use_second_checkpoint: bool = True,
) -> list[tuple[int, int]]:
    """Exhaustively try every single-entry fault against the pair.

    Returns the undetected (index, wrong value) pairs, row-major; an
    empty list certifies completeness.  One walk per lane covers every
    (index, value) pair it reads; unread entries escape by construction.
    """
    lut = np.frombuffer(table.entries, dtype=np.uint8)
    values = np.arange(256, dtype=np.uint8)
    escaped = values != lut[:, None]
    for lane, seed in enumerate(pair.p):
        # The t reads for C, the seed's among them, and one for C_hat.
        read = [seed]
        for _ in range(pair.t if use_second_checkpoint else pair.t - 1):
            read.append(table[read[-1]])
        xs = np.fromiter(set(read), dtype=np.intp)[:, None]
        s = np.full((len(xs), 256), seed, dtype=np.uint8)
        for _ in range(pair.t):
            s = np.where(s == xs, values, lut[s])
        lane_ok = s == pair.c[lane]
        if use_second_checkpoint:
            lane_ok &= np.where(s == xs, values, lut[s]) == pair.c_hat[lane]
        # The rows are distinct entries, so this in-place update is exact.
        escaped[xs[:, 0]] &= lane_ok
    return [(int(x), int(e)) for x, e in np.argwhere(escaped)]


@dataclass(frozen=True)
class RedundantTables:
    """Parity tables for neighbour reconstruction, as lane ints.

    Byte lane x of h is entry x XOR the entry to its right, and of v
    entry x XOR the entry below it, on the toroidal 16x16 grid
    (sbox.to_lanes layout; sbox.from_lanes gives the 256 bytes).  They
    are assumed to live in storage that the modelled fault does not
    reach; the fault model targets the main table only.
    """

    h: int
    v: int


def build_redundant_tables(table: SBoxTable) -> RedundantTables:
    """The XOR of each grid edge's two entries, all 256 at once as lane
    ints."""
    lanes = to_lanes(table.entries)
    return RedundantTables(h=lanes ^ lanes_right(lanes),
                           v=lanes ^ lanes_down(lanes))


def analyze_table(table: SBoxTable) -> dict:
    """One-stop structural report, JSON-compatible.

    Cycles are lists of table indices, blocks are 32-char lowercase hex,
    and the two parity tables are arrays of 256 two-char hex entries.
    """
    decomp = cycle_decompose(table)
    allocation = allocate_seeds(decomp.lengths)
    pair = build_detection_pair(table)
    redundant = build_redundant_tables(table)
    return {
        "cycles": [list(c) for c in decomp.cycles],
        "d": list(allocation.d),
        "t": allocation.t,
        "p": pair.p.hex(),
        "c": pair.c.hex(),
        "c_hat": pair.c_hat.hex(),
        "h_table": [f"{b:02x}" for b in from_lanes(redundant.h)],
        "v_table": [f"{b:02x}" for b in from_lanes(redundant.v)],
    }
