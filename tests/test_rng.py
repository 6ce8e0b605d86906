import numpy as np

from pfalab.rng import RNG_ALGORITHM, Rng, derive_seed


def test_same_seed_same_stream():
    a = Rng(12345)
    b = Rng(12345)
    assert [a.u64() for _ in range(50)] == [b.u64() for _ in range(50)]


def test_different_seeds_differ():
    a = Rng(1)
    b = Rng(2)
    assert [a.u64() for _ in range(8)] != [b.u64() for _ in range(8)]


def test_algorithm_identifier_is_pinned():
    assert RNG_ALGORITHM == "splitmix64-ctr-v2"


def test_seed_zero_matches_published_splitmix64():
    rng = Rng(0)
    assert [rng.u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_randbytes_is_little_endian_words():
    for seed in (0, 5, (1 << 64) - 1):
        scalar = Rng(seed)
        expected = np.array([scalar.u64() for _ in range(37)], dtype="<u8")
        assert Rng(seed).randbytes(8 * 37) == expected.tobytes()


def test_bulk_draw_matches_split_draws():
    # The batched RCO defense draws 16*k bytes where the scalar one draws
    # 16 bytes k times; both must consume the same words.
    bulk = Rng(55)
    split = Rng(55)
    assert bulk.randbytes(16 * 300) == b"".join(
        split.randbytes(16) for _ in range(300))
    assert bulk.u64() == split.u64()


def test_derive_seed_label_sensitivity():
    base = derive_seed(7, 1, "key")
    assert base == derive_seed(7, 1, "key")
    assert base != derive_seed(7, 2, "key")
    assert base != derive_seed(7, 1, "fault")
    assert base != derive_seed(8, 1, "key")
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


def test_child_streams_do_not_depend_on_parent_position():
    # A substream is derived from the seed the generator was built with,
    # which drawing leaves alone.
    parent = Rng(99)
    early = Rng(derive_seed(parent.seed, "x")).u64()
    parent.u64()
    parent.u64()
    late = Rng(derive_seed(parent.seed, "x")).u64()
    assert early == late


def test_byte_and_randrange_bounds():
    rng = Rng(3)
    seen = set()
    for _ in range(2000):
        value = rng.byte()
        assert 0 <= value <= 255
        seen.add(value)
    assert len(seen) > 200
    rng = Rng(4)
    for n in (1, 2, 7, 100, 257):
        for _ in range(200):
            assert 0 <= rng.randrange(n) < n


def test_randbytes_length_and_chunking():
    assert len(Rng(5).randbytes(33)) == 33
    # Whole-word requests concatenate exactly across calls.
    one = Rng(6)
    two = Rng(6)
    assert one.randbytes(32) == two.randbytes(16) + two.randbytes(16)


def test_sample_distinct():
    rng = Rng(8)
    for _ in range(50):
        picks = rng.sample_distinct(256, 16)
        assert len(picks) == 16
        assert len(set(picks)) == 16
        assert all(0 <= p < 256 for p in picks)
