"""Persistent fault injection into substitution tables.

A fault overwrites one or more table entries once; the corruption then
persists across every encryption until the table is rewritten.  Faults
are described declaratively by :class:`FaultSpec` so a run can be stored
and replayed.

Placement shapes matter to neighbour-vote repair, so specs carry a
difficulty class derived from the 16x16 grid geometry: an entry with at
most one faulty neighbour can always be reconstructed immediately, two
faulty neighbours still leave an agreeing pair of candidates, and three
or more drown the vote until surrounding entries have been repaired.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rng import Rng
from .sbox import (
    AES_SBOX,
    SBoxTable,
    from_lanes,
    lanes_down,
    lanes_left,
    lanes_right,
    lanes_up,
    to_lanes,
)

BEST = "best"
AVERAGE = "average"
WORST = "worst"

SCATTERED = "scattered"
CLUSTERED = "clustered"

RANDOM_BYTE = "random_byte"
BIT_FLIP = "bit_flip"

# Scattered placements drawn before random_faults gives up.
SCATTER_TRIES = 10_000


class InvalidFault(ValueError):
    """The fault spec does not describe a real corruption of the table."""


class PlacementInfeasible(ValueError):
    """Random placement could not satisfy its shape constraint."""


@dataclass(frozen=True)
class FaultSpec:
    """A set of (index, wrong value) overwrites, plus how it was placed."""

    faults: tuple[tuple[int, int], ...]
    placement: str | None = None

    def __post_init__(self):
        if not self.faults:
            raise InvalidFault("at least one fault required")
        indices = [x for x, _ in self.faults]
        if len(set(indices)) != len(indices):
            raise InvalidFault("fault indices must be distinct")
        for x, value in self.faults:
            if not (0 <= x <= 255 and 0 <= value <= 255):
                raise InvalidFault(f"fault ({x}, {value}) out of byte range")

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def to_json_dict(self) -> dict:
        return {
            "faults": [{"x": x, "value": value} for x, value in self.faults],
            "placement": self.placement,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FaultSpec":
        faults = tuple((f["x"], f["value"]) for f in data["faults"])
        return cls(faults=faults, placement=data.get("placement"))


def inject(table: SBoxTable, spec: FaultSpec) -> SBoxTable:
    """Apply the overwrites.  Each must actually change its entry."""
    data = bytearray(table.entries)
    for x, value in spec.faults:
        if table[x] == value:
            raise InvalidFault(
                f"entry 0x{x:02x} already holds 0x{value:02x}, not a fault")
        data[x] = value
    return SBoxTable(data)


def classify_case(spec: FaultSpec) -> str:
    """Repair difficulty of a placement, from grid geometry alone.

    The score is the largest number of faulty neighbours any grid cell
    has: the sum of the four lane moves of the 0/1 faulty-cell lanes,
    at most 4 per lane, so nothing carries between lanes.  0 or 1 is
    the best case (every vote sees at least three sound candidates), 2
    is average (an agreeing pair remains), 3 or 4 is the worst case
    (repair must proceed inward over several sweeps).
    """
    faulty = bytearray(256)
    for x in spec.indices:
        faulty[x] = 1
    lanes = to_lanes(faulty)
    worst_count = max(from_lanes(lanes_up(lanes) + lanes_down(lanes)
                                 + lanes_left(lanes) + lanes_right(lanes)))
    if worst_count <= 1:
        return BEST
    if worst_count == 2:
        return AVERAGE
    return WORST


def _clustered_indices(rng: Rng, n_faults: int) -> list[int]:
    """A compact blob: the first n cells of a k x k square, row-major,
    at a random anchor.  Eight faults become the ring of a 3x3 square
    (centre left pristine), the hardest shape of that size for the vote.
    """
    side = 1
    while side * side < n_faults:
        side += 1
    row0 = rng.randrange(16)
    col0 = rng.randrange(16)
    offsets = [(dr, dc) for dr in range(side) for dc in range(side)]
    if n_faults == 8 and side == 3:
        offsets = [o for o in offsets if o != (1, 1)]
    cells = []
    for dr, dc in offsets[:n_faults]:
        cells.append((((row0 + dr) % 16) << 4) | ((col0 + dc) % 16))
    return cells


def random_faults(
    rng: Rng,
    n_faults: int,
    placement: str = SCATTERED,
    value_policy: str = RANDOM_BYTE,
) -> FaultSpec:
    """Draw a random fault pattern of the requested shape for the AES
    S-box: every value differs from the entry it overwrites.

    Scattered placement rejection-samples until the pattern classifies
    as the best case, so repeated draws model independent stray upsets
    rather than accidental clusters.  Clustered placement models a
    localised corruption (one damaged memory row or block).
    """
    if not 1 <= n_faults <= 255:
        raise ValueError("n_faults must be in 1..255")
    if placement == SCATTERED:
        for _ in range(SCATTER_TRIES):
            cells = rng.sample_distinct(256, n_faults)
            spec = _with_values(rng, cells, value_policy, placement)
            if classify_case(spec) == BEST:
                return spec
        raise PlacementInfeasible(
            f"no best-case scatter of {n_faults} faults in {SCATTER_TRIES} "
            "tries")
    if placement == CLUSTERED:
        cells = _clustered_indices(rng, n_faults)
        return _with_values(rng, cells, value_policy, placement)
    raise ValueError(f"unknown placement {placement!r}")


def _with_values(
    rng: Rng,
    cells: list[int],
    value_policy: str,
    placement: str,
) -> FaultSpec:
    faults = []
    for x in cells:
        if value_policy == RANDOM_BYTE:
            value = rng.byte()
            while value == AES_SBOX[x]:
                value = rng.byte()
        elif value_policy == BIT_FLIP:
            value = AES_SBOX[x] ^ (1 << rng.randrange(8))
        else:
            raise ValueError(f"unknown value policy {value_policy!r}")
        faults.append((x, value))
    return FaultSpec(faults=tuple(faults), placement=placement)
