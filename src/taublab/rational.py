"""Exact rational thresholds and densities.

All level-set decisions in this package are strict comparisons of exact
rationals, so thresholds are carried as :class:`fractions.Fraction` values
(arbitrary-precision integers, always in lowest terms).  On the wire a
rational is the string ``"p/q"`` in lowest terms (or ``"p"`` when q == 1);
decimal notation is rejected deliberately, because behaviour jumps exactly
at rational thresholds such as 2/3 and a decimal cannot name them.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

from .errors import DomainError, InputFormatError


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` into an exact Fraction.

    Decimal strings such as ``"0.5"`` are refused with a hint: write
    ``"1/2"`` instead.
    """
    if not isinstance(text, str):
        raise InputFormatError(f"rational must be a string, got {type(text).__name__}")
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise InputFormatError(
            f"decimal notation {s!r} is not accepted; write an exact fraction like 1/2"
        )
    parts = s.split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]), 1)
        if len(parts) == 2:
            return Fraction(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"cannot parse rational from {s!r}: {exc}") from exc
    raise InputFormatError(f"cannot parse rational from {s!r}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as the lowest-terms wire string ``"p/q"`` / ``"p"``."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def require_rational(value, what: str) -> Fraction:
    """The value as an exact Fraction.  A float is refused, as it names a
    binary fraction rather than the decimal it prints as; a string is read by
    :func:`parse_rational`, as on the command line."""
    if isinstance(value, float):
        raise DomainError(f"{what} {value!r} is a float; {what}s must be exact rationals")
    return parse_rational(value) if isinstance(value, str) else Fraction(value)


def require_alpha(alpha: Fraction) -> Fraction:
    """Validate a level threshold: must be a rational strictly inside (0, 1).
    A plain Fraction comes back as it is; anything else goes through require_rational."""
    if type(alpha) is not Fraction:
        alpha = require_rational(alpha, "threshold")
    if not 0 < alpha.numerator < alpha.denominator:
        raise DomainError(f"threshold must lie strictly inside (0, 1), got {alpha}")
    return alpha


def require_integers(values, what: str) -> tuple[int, ...]:
    """The values as a tuple of ints; anything that is not an integer (a
    float, a Fraction, a string) is refused rather than truncated.  ``bool``
    passes, being Python's int subclass."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise DomainError(f"{what} must be integers, got {values!r}") from None


class LexMax:
    """The largest ratio num/den offered (num >= 0, den > 0), compared by
    integer cross-multiplication, and among equal ratios the least key.

    Every certified maximum in the package reports its lexicographically least
    witness through this one rule.
    """

    __slots__ = ("num", "den", "key")

    def __init__(self):
        self.num = -1
        self.den = 1
        self.key = None

    def offer(self, num: int, den: int, key) -> None:
        lhs = num * self.den
        rhs = self.num * den
        if lhs > rhs or (lhs == rhs and key < self.key):
            self.num, self.den, self.key = num, den, key

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)
