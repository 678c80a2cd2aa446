"""Exact rational arithmetic helpers shared by all modules.

Every quantity in this package (relevance, cohesion, coupling, objective
values) is kept as a fractions.Fraction so results are reproducible bit for
bit.  Conversion to text happens only at the reporting edge, and brief()
keeps an input value echoed in an error message short.
"""

from __future__ import annotations

import math
import reprlib
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Iterable


#: Largest decimal exponent magnitude accepted, Python's own limit on the
#: digits of an int read from a string; 1e-20000000 would build 10**20000000.
MAX_EXPONENT = 4300

_BRIEF = reprlib.Repr()
_BRIEF.maxlevel = 3
_BRIEF.maxstring = _BRIEF.maxother = 60


def brief(value) -> str:
    """repr() cut to a bounded depth and length, for error messages."""
    return _BRIEF.repr(value)


def _bounded_exponent(text: str) -> str:
    _, marker, exponent = text.lower().partition("e")
    try:
        too_large = bool(marker) and abs(int(exponent)) > MAX_EXPONENT
    except ValueError:
        return text  # not a plain exponent; Fraction reports what is wrong
    if too_large:
        raise ValueError(f"decimal exponent of {brief(text)} exceeds {MAX_EXPONENT}")
    return text


def to_fraction(value) -> Fraction:
    """Coerce a numeric input to an exact Fraction.

    Floats are read through their shortest decimal representation, so a
    literal 0.3 coming from a file means exactly 3/10.  A decimal exponent
    beyond MAX_EXPONENT is a ValueError.
    """
    if isinstance(value, bool):
        raise TypeError("boolean is not a numeric value")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, (Decimal, str)):
        return Fraction(_bounded_exponent(str(value)))
    raise TypeError(f"cannot interpret {brief(value)} as a rational number")


def exact_sum(values: Iterable[Fraction]) -> Fraction:
    """Sum of Fractions over their common denominator.

    Integer additions and one normalisation, where a running Fraction sum
    normalises after every term; the result is the same rational.
    """
    values = list(values)
    if not values:
        return Fraction(0)
    scale = math.lcm(*(v.denominator for v in values))
    return Fraction(sum(v.numerator * (scale // v.denominator) for v in values), scale)


def fixed(value: Fraction, places: int = 4) -> str:
    """Render a Fraction with a fixed number of decimals, banker's rounding."""
    with localcontext() as ctx:
        ctx.prec = 50
        quantum = Decimal(1).scaleb(-places)
        d = Decimal(value.numerator) / Decimal(value.denominator)
        return str(d.quantize(quantum, rounding=ROUND_HALF_EVEN))
