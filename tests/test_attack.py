import numpy as np
import pytest

from pfalab.aes import BLOCK_SIZE, encrypt_blocks, key_expand
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
    cts, k10, v, v_star = faulted_stream(62, 6000)
    result = recover_key_maxmin(accumulate(cts), v, v_star)
    assert bytes(result.recovered) == k10
    assert all(result.confident)
    assert result.to_json_dict()["k10"] == list(k10)
    assert result.to_json_dict()["v"] == v
    assert result.to_json_dict()["v_star"] == v_star


def test_recovery_refuses_uniform_stream():
    cts, _ = clean_stream(63, 10_000)
    result = recover_key_maxmin(accumulate(cts), 0x42, AES_INV_SBOX[0x00])
    assert result.recovered == (None,) * 16
    assert None in result.recovered
    assert not any(result.confident)


def test_recovery_rejects_equal_hypotheses():
    cts, _ = clean_stream(64, 100)
    with pytest.raises(ValueError):
        recover_key_maxmin(accumulate(cts), 7, 7)


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


def _recover_per_position(counts, v, v_star, gap_threshold):
    """The reference recovery: each position's minimum, zero count and
    second-smallest count read on its own."""
    recovered, confidence, confident = [], [], []
    for row in counts:
        k1 = int(row.argmin()) ^ AES_SBOX[v]
        zeros = int((row == 0).sum())
        second_smallest = int(np.partition(row, 1)[1])
        recovered.append(k1 if zeros == 1 else None)
        confidence.append(second_smallest)
        confident.append(zeros == 1 and second_smallest >= gap_threshold)
    return tuple(recovered), tuple(confidence), tuple(confident)


def test_recover_key_maxmin_matches_per_position_reference():
    for counts in _search_oracle_histograms():
        for v, v_star, gap_threshold in ((0x42, 0x07, 5), (0, 1, 1),
                                         (0xFF, 0x3C, 2)):
            got = recover_key_maxmin(counts, v, v_star,
                                     gap_threshold=gap_threshold)
            assert (got.recovered, got.confidence,
                    got.confident) == _recover_per_position(
                        counts, v, v_star, gap_threshold)


def test_search_on_empty_histogram_scores_zero():
    found = search_fault_values(EMPTY)
    assert found.best == (0, 1)
    assert found.top_score == 0
    assert found.inconclusive
    assert len(np.argwhere(found.scores == found.top_score)) == 256 * 255


@pytest.mark.parametrize("v,v_star", [(-1, 3), (256, 3), (3, -1), (3, 256)])
def test_recovery_rejects_out_of_range_index(v, v_star):
    with pytest.raises(ValueError, match="0..255"):
        recover_key_maxmin(EMPTY, v, v_star)


@pytest.mark.parametrize("gap_threshold", [0, -3, 2.5, True])
def test_recovery_rejects_a_gap_threshold_that_is_not_a_count(gap_threshold):
    with pytest.raises(ValueError, match="gap_threshold"):
        recover_key_maxmin(EMPTY, 1, 2, gap_threshold=gap_threshold)


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


def _min_ct_by_replay(blocks, k10, v, zco_filter=False):
    """Literal re-evaluation after every block, the slow oracle."""
    counts = np.zeros((16, 256), dtype=np.int64)
    for i in range(blocks.shape[0]):
        block = blocks[i]
        if not (zco_filter and not block.any()):
            for j in range(16):
                counts[j, block[j]] += 1
        done = True
        for j in range(16):
            zeros = np.flatnonzero(counts[j] == 0)
            if len(zeros) != 1 or zeros[0] ^ AES_SBOX[v] != k10[j]:
                done = False
                break
        if done:
            return i + 1
    return None


def test_min_ciphertexts_matches_literal_replay():
    cts, k10, v, _ = faulted_stream(70, 4000)
    fast = min_ciphertexts_to_recover(cts, k10, v)
    slow = _min_ct_by_replay(cts, k10, v)
    assert fast == slow
    assert fast is not None
    assert 500 < fast <= 4000


def test_min_ciphertexts_none_when_stream_too_short():
    cts, k10, v, _ = faulted_stream(71, 300)
    assert min_ciphertexts_to_recover(cts, k10, v) is None


def test_min_ciphertexts_none_on_clean_stream():
    cts, k10 = clean_stream(72, 3000)
    assert min_ciphertexts_to_recover(cts, k10, 0x42) is None


def test_min_ciphertexts_with_zero_block_filter():
    cts, k10, v, _ = faulted_stream(73, 4000)
    reached = min_ciphertexts_to_recover(cts, k10, v)
    # Interleave a zero block after every third ciphertext.
    padded = []
    for i in range(cts.shape[0]):
        padded.append(cts[i])
        if i % 3 == 2:
            padded.append(np.zeros(BLOCK_SIZE, dtype=np.uint8))
    padded = np.array(padded, dtype=np.uint8)
    kept = padded.any(axis=1)
    filtered = min_ciphertexts_to_recover(padded[kept], k10, v, kept=kept)
    slow = _min_ct_by_replay(padded, k10, v, zco_filter=True)
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

