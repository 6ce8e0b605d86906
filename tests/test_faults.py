import pytest

from pfalab import faults
from pfalab.faults import (
    AVERAGE,
    BEST,
    BIT_FLIP,
    CLUSTERED,
    SCATTERED,
    WORST,
    FaultSpec,
    InvalidFault,
    PlacementInfeasible,
    classify_case,
    inject,
    random_faults,
)
from pfalab.rng import Rng
from pfalab.sbox import AES_SBOX, left, up

from helpers import down, right


def spec_at(*cells) -> FaultSpec:
    return FaultSpec(tuple((x, AES_SBOX[x] ^ 0xFF) for x in cells))


def test_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(((0, 1), (0, 2)))  # duplicate index
    with pytest.raises(ValueError):
        FaultSpec(((256, 1),))
    with pytest.raises(ValueError):
        FaultSpec(((0, 300),))
    with pytest.raises(ValueError):
        FaultSpec(())


def test_spec_json_round_trip():
    spec = FaultSpec(((3, 7), (200, 0)), placement=CLUSTERED)
    data = spec.to_json_dict()
    assert data["faults"] == [{"x": 3, "value": 7}, {"x": 200, "value": 0}]
    assert FaultSpec.from_json_dict(data) == spec


def test_inject_rewrites_entries():
    spec = FaultSpec(((0x10, 0x00),))
    faulted = inject(AES_SBOX, spec)
    assert faulted[0x10] == 0x00
    assert AES_SBOX.differences(faulted) == [0x10]


def test_inject_requires_an_actual_change():
    with pytest.raises(InvalidFault):
        inject(AES_SBOX, FaultSpec(((0x10, AES_SBOX[0x10]),)))


def test_classify_single_fault_is_best():
    for x in (0, 17, 255, 0x80):
        assert classify_case(spec_at(x)) == BEST


def test_classify_pairs():
    x = 0x44
    assert classify_case(spec_at(x, right(x))) == BEST
    assert classify_case(spec_at(x, down(right(x)))) == AVERAGE
    assert classify_case(spec_at(x, right(right(x)))) == AVERAGE
    assert classify_case(spec_at(x, down(down(x)))) == AVERAGE
    assert classify_case(spec_at(x, 0x99)) == BEST  # far apart


def test_classify_clusters():
    x = 0x00
    square = [x, right(x), down(x), down(right(x))]
    assert classify_case(spec_at(*square)) == AVERAGE
    block3 = [16 * r + c for r in range(3) for c in range(3)]
    assert classify_case(spec_at(*block3)) == WORST
    ring = [c for c in block3 if c != 17]
    assert classify_case(spec_at(*ring)) == WORST


def _reference_class(cells):
    """The case class, counted cell by cell from the scalar moves."""
    faulty = set(cells)
    worst = max(sum(n in faulty for n in (up(x), down(x), left(x), right(x)))
                for x in range(256))
    return BEST if worst <= 1 else AVERAGE if worst == 2 else WORST


def test_classify_every_pair_with_the_origin():
    for y in range(1, 256):
        assert classify_case(spec_at(0x00, y)) == _reference_class((0x00, y))


def test_classify_every_subset_of_the_origin_block():
    block3 = [16 * r + c for r in range(3) for c in range(3)]
    seen = set()
    for mask in range(1, 1 << 9):
        cells = [x for i, x in enumerate(block3) if mask >> i & 1]
        want = _reference_class(cells)
        assert classify_case(spec_at(*cells)) == want, cells
        seen.add(want)
    assert seen == {BEST, AVERAGE, WORST}


def test_classify_is_translation_invariant():
    rng = Rng(77)
    for _ in range(100):
        cells = rng.sample_distinct(256, 4)
        base = classify_case(spec_at(*cells))
        dr = rng.randrange(16)
        dc = rng.randrange(16)
        moved = [16 * ((x // 16 + dr) % 16) + (x % 16 + dc) % 16
                 for x in cells]
        assert classify_case(spec_at(*moved)) == base


def test_random_faults_scattered_is_best_case():
    for seed in range(60):
        spec = random_faults(Rng(seed), 3, placement=SCATTERED)
        assert classify_case(spec) == BEST
        assert len(spec) == 3
        assert len(set(spec.indices)) == 3
        for x, value in spec.faults:
            assert value != AES_SBOX[x]


def test_random_faults_clustered_shapes():
    spec4 = random_faults(Rng(5), 4, placement=CLUSTERED)
    rows = sorted({x // 16 for x in spec4.indices})
    cols = sorted({x % 16 for x in spec4.indices})
    assert len(spec4) == 4
    assert len(rows) == 2 and len(cols) == 2

    spec9 = random_faults(Rng(6), 9, placement=CLUSTERED)
    assert classify_case(spec9) == WORST
    assert len({x // 16 for x in spec9.indices}) == 3

    spec8 = random_faults(Rng(7), 8, placement=CLUSTERED)
    assert classify_case(spec8) == WORST
    # The eight cells ring a pristine center.
    cells = set(spec8.indices)
    for x in range(256):
        if x not in cells:
            row, col = divmod(x, 16)
            around = {16 * ((row + dr) % 16) + (col + dc) % 16
                      for dr in (-1, 0, 1) for dc in (-1, 0, 1)} - {x}
            if around <= cells:
                break
    else:
        pytest.fail("no ringed center found")


def test_random_faults_bit_flip_policy():
    for seed in range(40):
        spec = random_faults(Rng(seed), 2, value_policy=BIT_FLIP)
        for x, value in spec.faults:
            diff = value ^ AES_SBOX[x]
            assert diff != 0 and diff & (diff - 1) == 0


def test_random_faults_accepts_rng_instance():
    spec_a = random_faults(Rng(123), 2)
    spec_b = random_faults(Rng(123), 2)
    assert spec_a == spec_b


def test_scattered_infeasible_raises(monkeypatch):
    monkeypatch.setattr(faults, "SCATTER_TRIES", 30)
    with pytest.raises(PlacementInfeasible, match=" in 30 tries$"):
        random_faults(Rng(1), 200, placement=SCATTERED)


def test_fault_count_bounds():
    with pytest.raises(ValueError):
        random_faults(Rng(1), 0)
    with pytest.raises(ValueError):
        random_faults(Rng(1), 256)
