"""Operation-count cost model for the table implementations.

Costs are linear expressions over five primitive operation classes
(add, sub, shift, mix, key), kept exact with Fraction coefficients.
Weights turn an expression into a single number; the defaults price a
table-lookup round layer at 1 and scale the heavier layers relative to
it.  Where a cost depends on runtime behaviour (how many entries need
correcting) it is carried as a lower/upper bound pair instead of a
point value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

ADD = "add"
SUB = "sub"
SHIFT = "shift"
MIX = "mix"
KEY = "key"

OPERATIONS = (ADD, SUB, SHIFT, MIX, KEY)


@dataclass(frozen=True)
class CostExpr:
    """Linear combination of primitive operation counts."""

    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        for op in self.coeffs:
            if op not in OPERATIONS:
                raise ValueError(f"unknown operation class: {op!r}")
        cleaned = {
            op: Fraction(c) for op, c in self.coeffs.items() if Fraction(c) != 0
        }
        object.__setattr__(self, "coeffs", cleaned)

    def __add__(self, other: "CostExpr") -> "CostExpr":
        merged = dict(self.coeffs)
        for op, c in other.coeffs.items():
            merged[op] = merged.get(op, Fraction(0)) + c
        return CostExpr(merged)

    def scaled(self, factor) -> "CostExpr":
        factor = Fraction(factor)
        return CostExpr({op: c * factor for op, c in self.coeffs.items()})

    def __getitem__(self, op: str) -> Fraction:
        if op not in OPERATIONS:
            raise KeyError(op)
        return self.coeffs.get(op, Fraction(0))

    def evaluate(self, weights: "WeightProfile") -> Fraction:
        return sum(
            (c * weights[op] for op, c in self.coeffs.items()), Fraction(0)
        )


def expr(**coeffs) -> CostExpr:
    return CostExpr({op: Fraction(c) for op, c in coeffs.items()})


@dataclass(frozen=True)
class CostBound:
    """Coefficient-wise lower/upper bracket on a cost expression."""

    lower: CostExpr
    upper: CostExpr

    def __post_init__(self):
        for op in OPERATIONS:
            if self.lower[op] > self.upper[op]:
                raise ValueError(
                    f"lower bound exceeds upper bound for {op!r}"
                )

    @classmethod
    def point(cls, expression: CostExpr) -> "CostBound":
        return cls(lower=expression, upper=expression)

    def __add__(self, other: "CostBound") -> "CostBound":
        return CostBound(self.lower + other.lower, self.upper + other.upper)

    def evaluate(self, weights: "WeightProfile") -> tuple:
        return self.lower.evaluate(weights), self.upper.evaluate(weights)


@dataclass(frozen=True)
class WeightProfile:
    """Relative prices of the operation classes."""

    add: Fraction = Fraction(1)
    sub: Fraction = Fraction(1)
    shift: Fraction = Fraction(1)
    mix: Fraction = Fraction(6)
    key: Fraction = Fraction(3, 2)

    def __post_init__(self):
        for op in OPERATIONS:
            value = Fraction(getattr(self, op))
            if value <= 0:
                raise ValueError(f"weight for {op!r} must be positive")
            object.__setattr__(self, op, value)

    def __getitem__(self, op: str) -> Fraction:
        if op not in OPERATIONS:
            raise KeyError(op)
        return getattr(self, op)


DEFAULT_WEIGHTS = WeightProfile()

IMPLEMENTATIONS = ("ori", "detect", "correct", "algo", "dmr", "bs")

# One full encryption: 11 key additions priced as add, 10 substitution
# layers, 10 row shifts, 9 column mixes, and the schedule's 10 key steps.
_ORI = expr(add=11, sub=10, shift=10, mix=9, key=10)

# Closed-loop check: re-reading the table t times and comparing against
# the stored checkpoint is pure substitution work.
_DETECT = expr(sub=20)

# Correction cost depends on how many entries actually need repair:
# nothing wrong costs one quarter of an addition layer amortized, a
# full-table repair costs 64 addition layers.
_CORRECT = CostBound(expr(add=Fraction(1, 4)), expr(add=64))


def cost_of(implementation: str) -> CostBound:
    """Cost bracket for one 16-byte encryption under each scheme."""
    if implementation == "ori":
        return CostBound.point(_ORI)
    if implementation == "detect":
        return CostBound.point(_DETECT)
    if implementation == "correct":
        return _CORRECT
    if implementation == "algo":
        return CostBound.point(_ORI + _DETECT) + _CORRECT
    if implementation in ("dmr", "bs"):
        return CostBound.point(_ORI.scaled(2))
    raise ValueError(f"unknown implementation: {implementation!r}")


def savings_ratio(
    cheap: CostBound,
    baseline: CostBound,
    weights: WeightProfile = DEFAULT_WEIGHTS,
) -> Fraction:
    """Relative saving of cheap versus baseline at the lower bounds."""
    return 1 - cheap.lower.evaluate(weights) / baseline.lower.evaluate(weights)


def _fmt(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return str(float(value))


def csv_rows(weights: WeightProfile = DEFAULT_WEIGHTS):
    yield "implementation,lower,upper"
    for name in IMPLEMENTATIONS:
        lower, upper = cost_of(name).evaluate(weights)
        yield f"{name},{_fmt(lower)},{_fmt(upper)}"


def to_csv(weights: WeightProfile = DEFAULT_WEIGHTS) -> str:
    return "\n".join(csv_rows(weights)) + "\n"
