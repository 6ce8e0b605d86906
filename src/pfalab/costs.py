"""Operation-count cost model for the table implementations.

One read-only table holds each implementation's lower and upper counts
of five operation classes (add, sub, shift, mix, key) per 16-byte
encryption; the two differ where a cost depends on runtime behaviour.
Fixed prices weight the counts into one exact Fraction, with a table
lookup round layer at 1 and the heavier layers scaled relative to it.
"""

from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple


def _counts(*terms: Mapping) -> Mapping[str, Fraction]:
    """Read-only, exact sum of operation-count (or price) mappings."""
    total = Counter()
    for term in terms:
        total.update(term)
    return MappingProxyType({op: Fraction(n) for op, n in total.items()})


DEFAULT_WEIGHTS = _counts(
    {"add": 1, "sub": 1, "shift": 1, "mix": 6, "key": Fraction(3, 2)}
)


class CostBound(NamedTuple):
    """Lower and upper operation counts of one encryption."""

    lower: Mapping[str, Fraction]
    upper: Mapping[str, Fraction]

    def evaluate(self, weights: Mapping) -> tuple[Fraction, Fraction]:
        return tuple(sum((n * weights[op] for op, n in c.items()), Fraction(0))
                     for c in self)


# One full encryption: 11 key additions priced as add, 10 substitution
# layers, 10 row shifts, 9 column mixes, and the schedule's 10 key steps.
_ORI = _counts({"add": 11, "sub": 10, "shift": 10, "mix": 9, "key": 10})

# Closed-loop check: re-reading the table t = 20 times is pure
# substitution work.  This is the paper's model; detect() also reads the
# second checkpoint, a 21st pass that the model leaves unpriced.
_DETECT = _counts({"sub": 20})

# Correction depends on how many entries need repair: nothing wrong costs
# a quarter of an addition layer amortized, a full-table repair 64 layers.
_CORRECT = CostBound(_counts({"add": Fraction(1, 4)}), _counts({"add": 64}))

_TWICE_ORI = _counts(_ORI, _ORI)
_TABLE = MappingProxyType({
    "ori": CostBound(_ORI, _ORI),
    "detect": CostBound(_DETECT, _DETECT),
    "correct": _CORRECT,
    "algo": CostBound(*(_counts(_ORI, _DETECT, c) for c in _CORRECT)),
    "dmr": CostBound(_TWICE_ORI, _TWICE_ORI),
    "bs": CostBound(_TWICE_ORI, _TWICE_ORI),
})

IMPLEMENTATIONS = tuple(_TABLE)


def cost_of(implementation: str) -> CostBound:
    """Cost bracket for one 16-byte encryption under each scheme."""
    if implementation not in _TABLE:
        raise ValueError(f"unknown implementation: {implementation!r}")
    return _TABLE[implementation]


def savings_ratio(cheap: CostBound, baseline: CostBound) -> Fraction:
    """Relative saving of cheap versus baseline at the lower bounds."""
    lower = cheap.evaluate(DEFAULT_WEIGHTS)[0]
    return 1 - lower / baseline.evaluate(DEFAULT_WEIGHTS)[0]


def _fmt(value: Fraction) -> str:
    return str(value.numerator if value.denominator == 1 else float(value))


def to_csv() -> str:
    rows = ["implementation,lower,upper"]
    for name, bound in _TABLE.items():
        lower, upper = bound.evaluate(DEFAULT_WEIGHTS)
        rows.append(f"{name},{_fmt(lower)},{_fmt(upper)}")
    return "\n".join(rows) + "\n"
