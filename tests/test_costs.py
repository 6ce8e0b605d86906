from collections.abc import Mapping, MutableMapping
from fractions import Fraction

import pytest

from pfalab.costs import (
    DEFAULT_WEIGHTS,
    IMPLEMENTATIONS,
    CostBound,
    cost_of,
    savings_ratio,
    to_csv,
)

CSV_TABLE = [
    "implementation,lower,upper",
    "ori,100,100",
    "detect,20,20",
    "correct,0.25,64",
    "algo,120.25,184",
    "dmr,200,200",
    "bs,200,200",
]


def test_point_costs_at_default_weights():
    assert cost_of("ori").evaluate(DEFAULT_WEIGHTS) == (100, 100)
    assert cost_of("detect").evaluate(DEFAULT_WEIGHTS) == (20, 20)
    assert cost_of("dmr").evaluate(DEFAULT_WEIGHTS) == (200, 200)
    assert cost_of("bs").evaluate(DEFAULT_WEIGHTS) == (200, 200)


def test_correction_and_combined_bounds():
    lo, hi = cost_of("correct").evaluate(DEFAULT_WEIGHTS)
    assert (lo, hi) == (Fraction(1, 4), 64)
    lo, hi = cost_of("algo").evaluate(DEFAULT_WEIGHTS)
    assert lo == Fraction(481, 4)
    assert float(lo) == 120.25
    assert hi == 184


def test_savings_ratio_against_duplication():
    ratio = savings_ratio(cost_of("algo"), cost_of("dmr"))
    assert ratio == Fraction(319, 800)
    assert float(ratio) == 0.39875
    assert savings_ratio(cost_of("ori"), cost_of("ori")) == 0
    upper = cost_of("algo").upper
    assert savings_ratio(CostBound(upper, upper), cost_of("dmr")) == \
        Fraction(2, 25)


def test_unknown_implementation_rejected():
    with pytest.raises(ValueError):
        cost_of("tmr")


def test_heavier_weights_never_cheapen():
    base = DEFAULT_WEIGHTS
    for op, w in base.items():
        bumped = {**base, op: w + 1}
        for name in IMPLEMENTATIONS:
            lo_b, hi_b = cost_of(name).evaluate(base)
            lo_h, hi_h = cost_of(name).evaluate(bumped)
            assert lo_h >= lo_b
            assert hi_h >= hi_b


def test_every_lower_count_is_at_most_its_upper_count():
    # Bounds hold per operation class, not only by weighted total.
    for name in IMPLEMENTATIONS:
        lower, upper = cost_of(name)
        assert set(lower) | set(upper) <= set(DEFAULT_WEIGHTS)
        for op in DEFAULT_WEIGHTS:
            assert lower.get(op, 0) <= upper.get(op, 0), (name, op)


def test_costs_and_weights_are_read_only():
    # A caller that changes a returned count must not change the model.
    mappings = [DEFAULT_WEIGHTS]
    for name in IMPLEMENTATIONS:
        mappings.extend(cost_of(name))
    for counts in mappings:
        assert isinstance(counts, Mapping)
        assert not isinstance(counts, MutableMapping)
        with pytest.raises(TypeError):
            counts["mix"] = Fraction(0)
    with pytest.raises(AttributeError):
        cost_of("ori").lower = {}
    assert to_csv().splitlines() == CSV_TABLE


def test_csv_table():
    assert to_csv().splitlines() == CSV_TABLE
    assert to_csv().endswith("\n")
