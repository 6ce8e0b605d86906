"""Deterministic randomness for reproducible experiments.

Every random draw in the package flows through :class:`Rng`, SplitMix64
in counter mode (Steele, Lea & Flood, OOPSLA 2014): word i of the stream
seeded with s is the SplitMix64 mix of s + (i + 1) * 0x9E3779B97F4A7C15,
exactly the standard SplitMix64 sequence.  A word depends on its index
alone, so a bulk request is computed at once in numpy uint64 arithmetic
(Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011).
The generator lives here rather than in ``random`` or ``numpy.random``
because run records promise byte-exact replay: the bit stream must be
pinned by this package alone, not by an installed library version.

Substreams are derived from (seed, labels) pairs, never by splitting
generator state, so the stream consumed for key material does not shift
when an unrelated part of the code draws more or fewer bytes.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

# Stored in run records so a replay can refuse to proceed if the
# generator ever changes incompatibly.
RNG_ALGORITHM = "splitmix64-ctr-v2"


def _mix(z):
    """SplitMix64's output mix of a state: a Python int, or a uint64
    array, mixed in place, whose wrapping arithmetic makes the masks
    no-ops."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z &= MASK64
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z &= MASK64
    z ^= z >> 31
    return z


def derive_seed(seed: int, *labels: object) -> int:
    """Mix a root seed with a sequence of labels into a new 64-bit seed.

    Labels may be strings or integers.  Derivation is by absorbing each
    label byte-by-byte into a splitmix64 chain, so distinct label paths
    give independent streams and the mapping is stable across runs.
    """
    state = seed & MASK64
    for label in labels:
        if isinstance(label, int):
            data = b"i" + label.to_bytes(16, "little", signed=True)
        else:
            data = b"s" + str(label).encode()
        for byte in data:
            state = ((state ^ byte) + GAMMA) & MASK64
            state ^= _mix(state)
    return _mix((state + GAMMA) & MASK64)


class Rng:
    """Counter-mode SplitMix64; its state is (seed, words used so far)."""

    __slots__ = ("seed", "_used")

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._used = 0

    def _words(self, n: int) -> np.ndarray:
        """The next n words, as u64() would give them, in one array."""
        z = np.arange(self._used + 1, self._used + n + 1, dtype=np.uint64)
        z *= GAMMA
        z += self.seed
        self._used += n
        return _mix(z)

    def u64(self) -> int:
        self._used += 1
        return _mix((self.seed + self._used * GAMMA) & MASK64)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection from the top 64 bits."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        limit = (MASK64 + 1) - ((MASK64 + 1) % n)
        while True:
            x = self.u64()
            if x < limit:
                return x % n

    def byte(self) -> int:
        return self.u64() & 0xFF

    def randbytes(self, n: int) -> bytes:
        """n bytes: the little-endian bytes of the next ceil(n/8) words."""
        if n < 0:
            raise ValueError("randbytes length must not be negative")
        words = self._words(-(-n // 8)).astype("<u8", copy=False)
        return words.tobytes()[:n]

    def sample_distinct(self, n: int, k: int) -> list[int]:
        """k distinct integers from [0, n), in draw order."""
        if k > n:
            raise ValueError("cannot draw more distinct values than exist")
        seen: set[int] = set()
        out: list[int] = []
        while len(out) < k:
            x = self.randrange(n)
            if x not in seen:
                seen.add(x)
                out.append(x)
        return out
