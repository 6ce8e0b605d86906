import numpy as np
import pytest

from pfalab.aes import BLOCK_SIZE, encrypt_blocks, key_expand, nonzero_blocks
from pfalab.attack import (
    accumulate,
    histogram_csv,
    min_ciphertexts_to_recover,
    recover_key_maxmin,
    search_fault_values,
)
from pfalab.faults import FaultSpec, inject
from pfalab.rng import Rng
from pfalab.sbox import AES_INV_SBOX, AES_SBOX

from helpers import min_ct_by_replay

# The counts of a stream without blocks.
EMPTY = np.zeros((BLOCK_SIZE, 256), dtype=np.int64)


def faulted_stream(seed, n, fault=(0x42, 0x00)):
    rng = Rng(seed)
    key = rng.randbytes(BLOCK_SIZE)
    rk = key_expand(key)
    table = inject(AES_SBOX, FaultSpec((fault,)))
    pts = np.frombuffer(rng.randbytes(BLOCK_SIZE * n), dtype=np.uint8)
    cts = encrypt_blocks(pts.reshape(n, BLOCK_SIZE), rk, table)
    v, e = fault
    return cts, rk[10], v, AES_INV_SBOX[e]


def clean_stream(seed, n):
    rng = Rng(seed)
    key = rng.randbytes(BLOCK_SIZE)
    rk = key_expand(key)
    pts = np.frombuffer(rng.randbytes(BLOCK_SIZE * n), dtype=np.uint8)
    return encrypt_blocks(pts.reshape(n, BLOCK_SIZE), rk), rk[10]


def test_histogram_accumulation():
    counts = accumulate(np.tile(np.arange(16, dtype=np.uint8), (2, 1)))
    assert counts.shape == (BLOCK_SIZE, 256)
    assert counts.dtype == np.int64
    assert (counts.sum(axis=1) == 2).all()
    assert counts[3, 3] == 2
    assert counts[3, 4] == 0
    with pytest.raises(ValueError):
        accumulate(np.zeros((1, 5), dtype=np.uint8))


def test_accumulate_adds_over_chunks():
    rng = Rng(61)
    blocks = np.frombuffer(rng.randbytes(BLOCK_SIZE * 500), dtype=np.uint8)
    blocks = blocks.reshape(500, BLOCK_SIZE)
    want = np.zeros((BLOCK_SIZE, 256), dtype=np.int64)
    for block in blocks:
        for j, value in enumerate(block):
            want[j, value] += 1
    assert (accumulate(blocks) == want).all()
    for k in (0, 123, 500):
        assert (accumulate(blocks[:k]) + accumulate(blocks[k:]) == want).all()


def test_histogram_to_csv():
    counts = accumulate(np.vstack([np.zeros((3, 16), dtype=np.uint8),
                                   np.ones((2, 16), dtype=np.uint8)]))
    lines = histogram_csv(counts).splitlines()
    assert lines[0] == "position,value,count"
    assert lines[1] == "0,0,3"
    assert lines[2] == "0,1,2"
    assert lines[3] == "0,2,0"
    assert lines[-1] == "15,255,0"
    assert len(lines) == 1 + 16 * 256


def test_recovery_on_faulted_stream():
    cts, k10, v, _ = faulted_stream(62, 6000)
    result = recover_key_maxmin(accumulate(cts), v)
    assert bytes(result.recovered) == k10
    # Every value but the missing one has been seen at least 5 times.
    assert min(result.confidence) >= 5
    assert result.to_json_dict() == {"k10": list(k10),
                                     "confidence": list(result.confidence)}


def test_recovery_refuses_uniform_stream():
    cts, _ = clean_stream(63, 10_000)
    result = recover_key_maxmin(accumulate(cts), 0x42)
    assert result.recovered == (None,) * 16


def test_zero_values_shrink_to_the_missing_one():
    cts, k10, v, _ = faulted_stream(65, 8000)
    counts = accumulate(cts)
    for j in range(16):
        assert np.flatnonzero(counts[j] == 0).tolist() == \
            [AES_SBOX[v] ^ k10[j]]


def test_search_ranks_planted_fault_in_top_group():
    cts, _, v, v_star = faulted_stream(68, 10_000)
    found = search_fault_values(accumulate(cts))
    assert not found.inconclusive
    # The never-seen value is exact; the most-frequent one still
    # fluctuates at this sample size, so a position or two may stray.
    assert found.top_score >= 12
    assert [v, v_star] in np.argwhere(found.scores == found.top_score).tolist()


def test_search_is_inconclusive_on_uniform_stream():
    cts, _ = clean_stream(69, 10_000)
    found = search_fault_values(accumulate(cts))
    assert found.inconclusive
    assert found.top_score < 12


def _ranked_by_tuple_sort(counts):
    """The reference ranker: every (v, v*, score) sorted by (-score, v, v*)."""
    diffs = np.zeros(BLOCK_SIZE, dtype=np.int64)
    for j in range(BLOCK_SIZE):
        diffs[j] = int(counts[j].argmin()) ^ int(counts[j].argmax())
    score_by_diff = np.bincount(diffs, minlength=256)
    entries = np.frombuffer(AES_SBOX.entries, dtype=np.uint8)
    ranked = []
    for v in range(256):
        for v_star in range(256):
            if v_star == v:
                continue
            score = int(score_by_diff[entries[v] ^ entries[v_star]])
            ranked.append((v, v_star, score))
    ranked.sort(key=lambda item: (-item[2], item[0], item[1]))
    return ranked


def _search_oracle_histograms():
    rng = np.random.default_rng(20240601)
    yield EMPTY
    for high in (60, 3):  # uniform, then tie-heavy (counts 0..2)
        for _ in range(2):
            yield rng.integers(0, high, (BLOCK_SIZE, 256))
    for seed, n in ((81, 900), (82, 4000)):
        yield accumulate(faulted_stream(seed, n, fault=(0x42, 0x07))[0])
    # Exactly `agree` positions in one class, the rest in other classes,
    # so the top score lands on either side of the inconclusive bound.
    for agree in (11, 12, 13):
        counts = np.ones((BLOCK_SIZE, 256), dtype=np.int64)
        diffs = [0x5A] * agree + list(range(1, 1 + BLOCK_SIZE - agree))
        for j, diff in enumerate(diffs):
            low = int(rng.integers(0, 256))
            counts[j, low] = 0
            counts[j, low ^ diff] = 9
        yield counts


def test_search_matches_tuple_sort_reference():
    for counts in _search_oracle_histograms():
        ranked = _ranked_by_tuple_sort(counts)
        found = search_fault_values(counts)
        v, v_star, top = ranked[0]
        assert found.best == (v, v_star)
        assert found.top_score == top
        assert found.inconclusive == (top < 12)
        top_group = np.argwhere(found.scores == found.top_score).tolist()
        assert top_group == [[a, b] for a, b, s in ranked if s == top]
        pairs = np.array(ranked)
        assert (found.scores[pairs[:, 0], pairs[:, 1]] == pairs[:, 2]).all()
        assert (np.diag(found.scores) == -1).all()
        assert not found.scores.flags.writeable


def _recover_per_position(counts, v):
    """The reference recovery: each position's minimum, zero count and
    second-smallest count read on its own."""
    recovered, confidence = [], []
    for row in counts:
        k1 = int(row.argmin()) ^ AES_SBOX[v]
        zeros = int((row == 0).sum())
        recovered.append(k1 if zeros == 1 else None)
        confidence.append(int(np.partition(row, 1)[1]))
    return tuple(recovered), tuple(confidence)


def test_recover_key_maxmin_matches_per_position_reference():
    for counts in _search_oracle_histograms():
        for v in (0x42, 0, 0xFF):
            got = recover_key_maxmin(counts, v)
            assert (got.recovered, got.confidence) == \
                _recover_per_position(counts, v)


def test_search_on_empty_histogram_scores_zero():
    found = search_fault_values(EMPTY)
    assert found.best == (0, 1)
    assert found.top_score == 0
    assert found.inconclusive
    assert len(np.argwhere(found.scores == found.top_score)) == 256 * 255


@pytest.mark.parametrize("v", [-1, 256])
def test_recovery_rejects_out_of_range_index(v):
    with pytest.raises(ValueError, match="0..255"):
        recover_key_maxmin(EMPTY, v)


@pytest.mark.parametrize("v", [-1, 256])
def test_min_ciphertexts_rejects_out_of_range_index(v):
    blocks = np.zeros((4, BLOCK_SIZE), dtype=np.uint8)
    with pytest.raises(ValueError, match="0..255"):
        min_ciphertexts_to_recover(blocks, bytes(16), v)


@pytest.mark.parametrize("length", [15, 17])
def test_min_ciphertexts_rejects_wrong_key_length(length):
    blocks = np.zeros((4, BLOCK_SIZE), dtype=np.uint8)
    with pytest.raises(ValueError, match="round-10 key"):
        min_ciphertexts_to_recover(blocks, bytes(length), 1)


# The minimum-count scan reads chunks ending at blocks 2048, 4096, 8192...
# Each synthetic stream below is (n, at, target_at): n blocks in which
# the last value other than the target first appears at block `at`
# (1-based) and position 15's target at block `target_at`, None meaning
# never.
SETTLING = {
    "inside-first-chunk": (400, 300, None),
    "last-block-of-a-chunk": (2060, 2048, None),
    "first-block-of-next-chunk": (2060, 2049, None),
    "after-two-doublings": (4110, 4100, None),
    "never": (2100, None, None),
    "target-after-settling": (2070, 2049, 2060),
    "target-on-the-settling-block": (2060, 2048, 2048),
    "target-in-an-earlier-chunk": (2100, 2060, 1000),
    "empty": (0, None, None),
}
SETTLING_V = 0x42
SETTLING_K10 = bytes(range(0x10, 0x20))


def settling_stream(n, at, target_at):
    """Synthetic blocks whose per-position first occurrences are set by
    hand.  Position j sees its last other value at block at - j, so
    position 0 settles last; position 15 sees its target at block
    target_at.  No block is all zero."""
    targets = np.array([AES_SBOX[SETTLING_V] ^ k for k in SETTLING_K10])
    # Position j's other values t_j + 1, ..., t_j + 255; the first one,
    # nonzero here, fills the blocks not set by hand.
    others = ((targets[:, None] + np.arange(1, 256)) % 256).astype(np.uint8)
    blocks = np.repeat(others[None, :, 0], n, axis=0)
    blocks[:min(n, 254)] = others[:, :254].T[:n]
    if at is not None:
        for j in range(BLOCK_SIZE):
            blocks[at - 1 - j, j] = others[j, 254]
    if target_at is not None:
        blocks[target_at - 1, -1] = targets[-1]
    return blocks


def _with_zero_blocks(cts):
    """cts with a zero block after every third block."""
    n = cts.shape[0]
    padded = np.zeros((n + n // 3, BLOCK_SIZE), dtype=np.uint8)
    padded[np.arange(n) // 3 * 4 + np.arange(n) % 3] = cts
    return padded


def test_min_ciphertexts_matches_literal_replay():
    cts, k10, v, _ = faulted_stream(70, 4000)
    streams = {"faulted": (cts, k10, v)}
    for name, (n, at, target_at) in SETTLING.items():
        cts = settling_stream(n, at, target_at)
        streams[name] = (cts, SETTLING_K10, SETTLING_V)
        # The synthetic streams settle where they were planned to.
        planned = at if at is not None and (
            target_at is None or target_at > at) else None
        assert min_ciphertexts_to_recover(
            cts, SETTLING_K10, SETTLING_V) == planned, name
    assert 500 < min_ciphertexts_to_recover(*streams["faulted"]) <= 4000
    for name, (cts, k10, v) in streams.items():
        fast = min_ciphertexts_to_recover(cts, k10, v)
        assert fast == min_ct_by_replay(cts, k10, v), name
        # Dropped zero blocks stay out of the histogram but count in N.
        padded = _with_zero_blocks(cts)
        kept = nonzero_blocks(padded)
        fast = min_ciphertexts_to_recover(padded[kept], k10, v, kept=kept)
        assert fast == min_ct_by_replay(padded, k10, v, zco_filter=True), \
            name


def test_min_ciphertexts_none_when_stream_too_short():
    cts, k10, v, _ = faulted_stream(71, 300)
    assert min_ciphertexts_to_recover(cts, k10, v) is None


def test_min_ciphertexts_none_on_clean_stream():
    cts, k10 = clean_stream(72, 3000)
    assert min_ciphertexts_to_recover(cts, k10, 0x42) is None


def test_min_ciphertexts_with_zero_block_filter():
    cts, k10, v, _ = faulted_stream(73, 4000)
    reached = min_ciphertexts_to_recover(cts, k10, v)
    padded = _with_zero_blocks(cts)
    kept = padded.any(axis=1)
    filtered = min_ciphertexts_to_recover(padded[kept], k10, v, kept=kept)
    slow = min_ct_by_replay(padded, k10, v, zco_filter=True)
    assert filtered == slow
    # The padded index counts emitted blocks, zero blocks included.
    assert filtered > reached
    assert filtered is not None


def test_min_ciphertexts_validates_shape():
    with pytest.raises(ValueError):
        min_ciphertexts_to_recover(np.zeros((4, 8), dtype=np.uint8),
                                   bytes(16), 1)
    with pytest.raises(ValueError, match="kept selects 3 blocks, got 4"):
        min_ciphertexts_to_recover(np.zeros((4, 16), dtype=np.uint8),
                                   bytes(16), 1, kept=np.ones(3, dtype=bool))


def test_min_ciphertexts_none_on_empty_stream():
    assert min_ciphertexts_to_recover(
        np.zeros((0, 16), dtype=np.uint8), bytes(16), 1) is None


def test_min_ciphertexts_none_when_kept_drops_every_block():
    cts, k10, v, _ = faulted_stream(74, 3000)
    kept = np.zeros(3000, dtype=bool)
    assert min_ciphertexts_to_recover(cts[kept], k10, v, kept=kept) is None

