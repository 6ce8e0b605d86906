"""Ciphertext-only key recovery against a persistently faulted table.

With one table entry v corrupted, the last round's substitution output
never takes the value S[v] and takes the duplicated value e* twice as
often.  Per ciphertext byte position j this shifts the value histogram:
c = S[v] XOR k_j has probability 0, c = e* XOR k_j has 2/256, the rest
stay at 1/256.  The attacker therefore recovers k_j from the value that
never appears, needing nothing but ciphertexts.

Recovery is gated on the zero structure: a byte is reported only once
its position shows exactly one never-seen value.  The count gap above
that value is reported as measured, as confidence, and not thresholded;
on a healthy (corrected) stream the unique-zero gate virtually never
fires at all.

Streams are (n, 16) uint8 arrays throughout.  The histogram is a plain
(16, 256) int64 count array, one bincount per byte position: the counts
of consecutive chunks add up, and a record's stored counts can be
re-scored.  S is the AES S-box: the attacker knows the table the device
was built with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aes import BLOCK_SIZE
from .sbox import AES_SBOX

# A search top score below this, out of 16 positions, is inconclusive.
INCONCLUSIVE_BELOW = 12

# The minimum-count scan's first chunk, in blocks: about the stream
# prefix that one fault needs (median about 2,200).
_FIRST_CHUNK = 2048


def accumulate(ciphertexts: np.ndarray) -> np.ndarray:
    """Per-position value counts of an (n, 16) uint8 ciphertext stream:
    a (16, 256) int64 array whose [j, c] counts the blocks with byte c
    at position j."""
    if ciphertexts.ndim != 2 or ciphertexts.shape[1] != BLOCK_SIZE:
        raise ValueError("expected an (n, 16) array of blocks")
    return np.stack([np.bincount(ciphertexts[:, j], minlength=256)
                     for j in range(BLOCK_SIZE)], dtype=np.int64)


def histogram_csv(counts: np.ndarray) -> str:
    """The counts as position,value,count rows, position-major."""
    lines = ["position,value,count"]
    lines.extend(f"{p},{v},{counts[p, v]}"
                 for p in range(BLOCK_SIZE) for v in range(256))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class KeyRecoveryResult:
    """Per-position recovery state for the round-10 key.

    recovered holds a byte only where the position's zero structure is
    unambiguous.  confidence is the second-smallest count per position,
    the gap that must open above the missing value before the recovery
    deserves trust.
    """

    recovered: tuple
    confidence: tuple

    def to_json_dict(self) -> dict:
        return {"k10": list(self.recovered),
                "confidence": list(self.confidence)}


def _check_indices(**indices: int) -> None:
    for name, value in indices.items():
        if not 0 <= value <= 0xFF:
            raise ValueError(f"{name} must be a table index in 0..255, "
                             f"got {value}")


def recover_key_maxmin(counts: np.ndarray, v: int) -> KeyRecoveryResult:
    """Recover round-10 key bytes from the zeros of accumulate's counts.

    c_min is the least frequent value per position, ties broken toward
    the smaller value.  A key byte is reported when the position has
    exactly one zero-count value: that value must be S[v] XOR k_j, so
    k_j = c_min XOR S[v].  The duplicated value does not enter the
    recovery.
    """
    _check_indices(v=v)
    c_min = counts.argmin(axis=1).tolist()
    zeros = np.count_nonzero(counts == 0, axis=1).tolist()
    s_v = AES_SBOX[v]
    return KeyRecoveryResult(
        recovered=tuple(low ^ s_v if n_zeros == 1 else None
                        for low, n_zeros in zip(c_min, zeros)),
        confidence=tuple(np.partition(counts, 1, axis=1)[:, 1].tolist()),
    )


@dataclass(frozen=True)
class FaultSearchResult:
    """Scores of every (v, v*) hypothesis and the first best pair.

    scores[v, v*] is the number of positions the pair explains, with -1
    on the diagonal (v == v* is no fault).  best is the first pair at
    top_score in row-major order, so v is the smallest index in the
    winning class S[v] XOR S[v*]; for a bijective table every index
    meets every class, so v is always 0 there.
    """

    best: tuple[int, int]
    top_score: int
    inconclusive: bool
    scores: np.ndarray = field(repr=False, compare=False)


def search_fault_values(counts: np.ndarray) -> FaultSearchResult:
    """Score every (v, v*) hypothesis by cross-position consistency.

    A hypothesis scores one point per position where c_min XOR S[v]
    equals c_max XOR S[v*].  The score depends on the pair only through
    the class S[v] XOR S[v*], so whole classes tie: the planted pair
    sits in the top group rather than strictly first, and a key
    recovered with best is right only up to the byte offset
    S[best v] XOR S[planted v].  Scores below INCONCLUSIVE_BELOW (out
    of 16) mean no hypothesis explains the histogram and the stream is
    probably not single-faulted.
    """
    diffs = counts.argmin(axis=1) ^ counts.argmax(axis=1)
    # Scores are at most 16; int8 keeps the (256, 256) matrix in cache.
    score_by_diff = np.bincount(diffs, minlength=256).astype(np.int8)
    entries = np.frombuffer(AES_SBOX.entries, dtype=np.uint8)
    scores = score_by_diff.take(entries[:, None] ^ entries[None, :])
    np.fill_diagonal(scores, -1)
    scores.flags.writeable = False
    v, v_star = divmod(int(scores.argmax()), 256)
    top_score = int(scores[v, v_star])
    return FaultSearchResult(
        best=(v, v_star),
        top_score=top_score,
        inconclusive=top_score < INCONCLUSIVE_BELOW,
        scores=scores,
    )


def min_ciphertexts_to_recover(
    ciphertexts,
    true_round10_key: bytes,
    v: int,
    kept: np.ndarray | None = None,
) -> int | None:
    """Smallest stream prefix that recovers the full round-10 key.

    Returns the first N at which recover_key_maxmin over the first N
    blocks reports all 16 bytes equal to the truth, or None when the
    stream never gets there (the NotReached outcome).  N counts every
    emitted block.  kept, when given, is the bool mask over the emitted
    stream that selected ciphertexts from it: the dropped blocks (the
    all-zero ones, for an adversary facing a zero-on-mismatch device)
    still advance N but stay out of the histogram.

    Equivalent to re-running the recovery after every block: position j
    reports the true byte exactly when its one missing value is
    S[v] XOR k_j, which holds from the moment the last other value has
    been seen until (if ever) that value itself shows up.  Both moments
    are functions of each value's first occurrence.  The scan records
    first occurrences chunk by chunk, the first chunk _FIRST_CHUNK
    blocks long and each later one as long as all before it, and stops
    once the answer is settled: when every position has seen its 255
    other values, or when a missing value shows up before that.  Each
    block is read at most once.
    """
    _check_indices(v=v)
    if len(true_round10_key) != BLOCK_SIZE:
        raise ValueError(f"expected a {BLOCK_SIZE}-byte round-10 key, "
                         f"got {len(true_round10_key)} bytes")
    blocks = np.asarray(ciphertexts, dtype=np.uint8)
    if blocks.ndim != 2 or blocks.shape[1] != BLOCK_SIZE:
        raise ValueError("expected an (n, 16) array of blocks")
    if kept is None:
        kept = np.ones(blocks.shape[0], dtype=bool)
    positions = np.flatnonzero(kept) + 1
    if positions.shape[0] != blocks.shape[0]:
        raise ValueError(f"kept selects {positions.shape[0]} blocks, "
                         f"got {blocks.shape[0]}")
    never = kept.shape[0] + 1
    rows = np.arange(BLOCK_SIZE)
    targets = np.array([AES_SBOX[v] ^ k for k in true_round10_key])
    # The targets' cells hold -1, so the maximum is the moment the last
    # other value first appeared at its position.
    first_seen = np.full((BLOCK_SIZE, 256), never, dtype=np.int64)
    first_seen[rows, targets] = -1
    target_first = np.full(BLOCK_SIZE, never, dtype=np.int64)
    start = 0
    while start < blocks.shape[0]:
        stop = max(2 * start, _FIRST_CHUNK)
        chunk = blocks[start:stop][::-1]
        at = positions[start:stop][::-1]
        chunk_first = np.full((BLOCK_SIZE, 256), never, dtype=np.int64)
        for j in range(BLOCK_SIZE):
            # Assign in reverse so the earliest occurrence lands last.
            chunk_first[j, chunk[:, j]] = at
        np.minimum(first_seen, chunk_first, out=first_seen)
        np.minimum(target_first, chunk_first[rows, targets],
                   out=target_first)
        reached_at = int(first_seen.max())
        if reached_at < never:
            # A target not seen yet appears after this chunk, so after
            # reached_at.
            return reached_at if (target_first > reached_at).all() else None
        if (target_first < never).any():
            # Some other value is still missing, so reached_at lies
            # beyond this target's appearance.
            return None
        start = stop
    return None
