from fractions import Fraction

import pytest

from taublab.errors import DomainError, InputFormatError
from taublab.lattice import halo, interval
from taublab.rational import format_rational, parse_rational, require_alpha


class _Half(Fraction):
    pass


def test_parse_lowest_terms():
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-3/9") == Fraction(-1, 3)


def test_format_round_trip():
    for text in ["1/2", "2/3", "89/30", "0", "-5/7", "3"]:
        assert format_rational(parse_rational(text)) == text


def test_decimals_rejected_with_hint():
    with pytest.raises(InputFormatError, match="exact fraction"):
        parse_rational("0.5")
    with pytest.raises(InputFormatError):
        parse_rational("1e-3")


def test_garbage_rejected():
    for bad in ["", "a/b", "1/2/3", "1/0"]:
        with pytest.raises(InputFormatError):
            parse_rational(bad)


def test_require_alpha_bounds():
    assert require_alpha(Fraction(1, 2)) == Fraction(1, 2)
    for bad in [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2), _Half(3, 2), 0, 1, True]:
        with pytest.raises(DomainError):
            require_alpha(bad)


def test_require_alpha_reads_strings_as_the_cli_does():
    assert require_alpha("2/3") == Fraction(2, 3)
    assert type(require_alpha("1/2")) is Fraction
    for decimal in ("0.5", "0.6667", "1e-1"):
        with pytest.raises(InputFormatError, match="exact fraction"):
            require_alpha(decimal)
    with pytest.raises(InputFormatError):
        halo(interval(3), "0.5")


def test_require_alpha_rejects_floats():
    with pytest.raises(DomainError):
        require_alpha(0.5)


def test_require_alpha_returns_a_checked_fraction_as_it_is():
    half = Fraction(1, 2)
    assert require_alpha(half) is half
    got = require_alpha(_Half(1, 2))
    assert got == Fraction(1, 2) and type(got) is Fraction
