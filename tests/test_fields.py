from fractions import Fraction

import pytest

from lodayops.fields import (QQ, PrimeField, field_from_name, is_prime,
                             parse_scalar)


def test_rationals_basics():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(2)) == Fraction(1, 2)
    assert QQ.neg(QQ.one) == Fraction(-1)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)


def test_prime_field_arithmetic():
    f = PrimeField(7)
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.from_fraction(Fraction(1, 2)) == 4
    with pytest.raises(ZeroDivisionError):
        f.from_fraction(Fraction(1, 7))


def test_prime_field_rejects_bad_moduli():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    # characteristics 2 and 3 degrade the graded signs and are refused
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(3)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                      53, 59]


def test_field_from_name():
    assert field_from_name("Q") is QQ
    assert field_from_name("Fp:101") == PrimeField(101)
    with pytest.raises(ValueError):
        field_from_name("Fp:abc")
    with pytest.raises(ValueError):
        field_from_name("R")


def test_parse_scalar():
    assert parse_scalar(QQ, "-3/4") == Fraction(-3, 4)
    assert parse_scalar(QQ, "5") == Fraction(5)
    f = PrimeField(11)
    assert parse_scalar(f, "1/2") == 6
    with pytest.raises(ValueError):
        parse_scalar(QQ, "1/2/3")
    with pytest.raises(ValueError):
        parse_scalar(QQ, "x")
    with pytest.raises(ValueError):
        parse_scalar(QQ, "1/0")


def test_field_equality_and_names():
    assert PrimeField(101) == PrimeField(101)
    assert PrimeField(101) != PrimeField(103)
    assert QQ.name == "Q"
    assert PrimeField(101).name == "Fp:101"
    assert QQ.to_text(Fraction(-1, 2)) == "-1/2"


def test_rational_scalars_are_int_when_integral():
    # an integral value is an int; only a non-integer is a Fraction
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.from_fraction(Fraction(6, 3))) is int
    assert QQ.from_fraction(Fraction(6, 3)) == 2
    assert type(QQ.from_fraction(-4)) is int
    assert type(parse_scalar(QQ, "5")) is int
    assert type(parse_scalar(QQ, "4/2")) is int
    assert type(QQ.inv(Fraction(1, 3))) is int
    assert QQ.inv(Fraction(1, 3)) == 3
    assert type(QQ.inv(-1)) is int
    assert type(parse_scalar(QQ, "-3/4")) is Fraction
    assert type(QQ.inv(2)) is Fraction
    # int op int stays int; mixing with a Fraction is exact
    assert type(QQ.mul(QQ.add(2, 3), QQ.neg(4))) is int
    assert QQ.add(Fraction(1, 2), Fraction(1, 2)) == QQ.one


def test_rational_text_is_unchanged_by_the_scalar_type():
    for value, text in ((0, "0"), (5, "5"), (-7, "-7"),
                        (Fraction(-3, 4), "-3/4"), (Fraction(4, 2), "2")):
        assert QQ.to_text(value) == text
        assert QQ.to_text(QQ.from_fraction(value)) == text
        assert QQ.to_text(parse_scalar(QQ, text)) == text
