"""Exact rational arithmetic helpers shared by all modules.

Every quantity in this package (relevance, cohesion, coupling, objective
values) is kept as a fractions.Fraction so results are reproducible bit for
bit.  Conversion to text happens only at the reporting edge, and brief()
keeps an input value echoed in an error message short.
"""

from __future__ import annotations

import json
import math
import reprlib
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Callable, Iterable


#: Largest decimal exponent magnitude accepted, Python's own limit on the
#: digits of an int read from a string; 1e-20000000 would build 10**20000000.
MAX_EXPONENT = 4300


def _cut_int(n: int, limit: int) -> str:
    # str(n) with the middle elided past `limit` digits, worked out by
    # arithmetic: str() refuses an int of more than 4300 digits, and a
    # relevance of 1e4300 is one
    if abs(n) < 10**limit:
        return str(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    digits = (n.bit_length() - 1) * 30102 // 100000  # at most its digit count
    while n >= 10**digits:
        digits += 1
    keep = (limit - 3) // 2
    return f"{sign}{n // 10 ** (digits - keep)}...{n % 10**keep:0{keep}d}"


class _Brief(reprlib.Repr):
    def repr_int(self, x, level):
        return _cut_int(x, self.maxlong)

    def repr_Fraction(self, x, level):
        text = _cut_int(x.numerator, self.maxlong)
        if x.denominator != 1:
            text += "/" + _cut_int(x.denominator, self.maxlong)
        return text


_BRIEF = _Brief()
_BRIEF.maxlevel = 3
_BRIEF.maxstring = _BRIEF.maxother = 60


def brief(value) -> str:
    """repr() cut to a bounded depth and length, for error messages.

    A Fraction shows in its str() form, 3/2; an int or Fraction part longer
    than 40 digits keeps only its first and last digits.
    """
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
    beyond MAX_EXPONENT, and a zero denominator ("1/0"), are ValueErrors.
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
        try:
            return Fraction(_bounded_exponent(str(value)))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {brief(value)}") from None
    raise TypeError(f"cannot interpret {brief(value)} as a rational number")


class Memo(dict):
    """A value per key, made by make(key) on first lookup and kept."""

    __slots__ = ("make",)

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _read_decimal(text: str) -> Fraction:
    # a plain JSON decimal, -12.340, is its digits over a power of ten:
    # Fraction(-12340, 1000); an exponent form, and a literal whose digits
    # int() refuses (more than 4300 of them), go to to_fraction, whose value,
    # message and exponent bound are the ones to keep
    if "e" in text or "E" in text:
        return to_fraction(text)
    whole, _, frac = text.partition(".")
    try:
        return Fraction(int(whole + frac), 10 ** len(frac))
    except ValueError:
        return to_fraction(text)


def literal_reader() -> Callable[[str], Fraction]:
    """A json.loads parse_float that reads each distinct decimal literal once.

    A document's repeated literals, such as relevance 0.7 on many edges, map
    to one shared Fraction; use a fresh reader per document.  A plain
    decimal is read from its digits, an exponent form through to_fraction;
    values and errors are those of to_fraction for any JSON number literal.
    """
    return Memo(_read_decimal).__getitem__


def load_exact_json(text: str, noun: str, error: type[Exception]):
    """json.loads of text with a fresh literal_reader.

    Malformed JSON, nesting too deep and a number to_fraction refuses raise
    error, its message starting "invalid {noun} JSON: ".
    """
    try:
        return json.loads(text, parse_float=literal_reader())
    except json.JSONDecodeError as exc:
        raise error(f"invalid {noun} JSON: {exc.msg} (line {exc.lineno})") from exc
    except RecursionError:
        raise error(f"invalid {noun} JSON: nested too deeply") from None
    except ValueError as exc:  # a number to_fraction or int() refuses
        raise error(f"invalid {noun} JSON: {exc}") from None


def exact_sum(values: Iterable[Fraction]) -> Fraction:
    """Sum of Fractions over their common denominator.

    Integer additions and one normalisation, where a running Fraction sum
    normalises after every term; the result is the same rational.
    """
    values = list(values)
    scale = math.lcm(*(v.denominator for v in values))
    return Fraction(sum(v.numerator * (scale // v.denominator) for v in values), scale)


def fixed(value: Fraction, places: int = 4) -> str:
    """Render a Fraction with a fixed number of decimals, banker's rounding.

    Any magnitude renders: the division keeps the integer part's digits
    and the places, with 50 digits as the floor, and the quantize one digit
    more, for a rounding that carries into a new leading digit.
    """
    whole = Decimal(abs(value.numerator) // value.denominator)
    with localcontext() as ctx:
        ctx.prec = max(50, whole.adjusted() + 1 + places)
        quantum = Decimal(1).scaleb(-places)
        d = Decimal(value.numerator) / Decimal(value.denominator)
        ctx.prec += 1
        return str(d.quantize(quantum, rounding=ROUND_HALF_EVEN))
