from fractions import Fraction

import pytest

import reference

from lowdepth.errors import FormulaSyntaxError
from lowdepth.fields import MERSENNE61, PrimeField, QQ, _require_prime, field_from_name


def test_rationals_roundtrip():
    x = QQ.parse("2/3")
    assert x == Fraction(2, 3)
    assert QQ.format(x) == "2/3"
    assert QQ.format(QQ.parse("4/6")) == "2/3"  # lowest terms
    assert QQ.format(Fraction(5)) == "5"


def test_rationals_ops():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert reference.is_positive(QQ, Fraction(1, 7))
    assert not reference.is_positive(QQ, Fraction(-1, 7))
    assert not reference.is_positive(QQ, 0)
    assert QQ.is_zero(Fraction(0))
    assert QQ.is_one(Fraction(3, 3))


def test_prime_field_ops():
    fp = PrimeField(101)
    assert fp.normalize(205) == 3
    assert fp.add(100, 2) == 1
    assert fp.mul(51, 2) == 1
    # rationals map through modular inverse
    assert fp.normalize(Fraction(1, 2)) == 51
    assert fp.mul(fp.normalize(Fraction(1, 2)), 2) == 1


def test_prime_field_unordered():
    fp = PrimeField(7)
    with pytest.raises(reference.FieldUnordered):
        reference.is_positive(fp, 3)


def test_field_from_name():
    assert field_from_name("Q") is QQ
    assert field_from_name("Fp").p == MERSENNE61
    assert field_from_name("Fp:97").p == 97
    with pytest.raises(FormulaSyntaxError):
        field_from_name("R")
    with pytest.raises(FormulaSyntaxError):
        field_from_name("Fp:abc")


def test_bad_scalar_parse():
    with pytest.raises(FormulaSyntaxError):
        QQ.parse("1/0")
    with pytest.raises(FormulaSyntaxError):
        QQ.parse("x")


def test_modulus_must_be_prime():
    # exact against trial division on every small modulus
    for n in range(-3, 5000):
        prime = n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))
        try:
            _require_prime(n)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == prime, n
    # strong pseudoprimes to the bases up to 7, 23 and 37; then primes
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError, match="not a prime"):
            _require_prime(n)
    for n in (MERSENNE61, 1000003, 2**31 - 1):
        _require_prime(n)
    # above the limit the bases do not decide, so even a prime is rejected
    with pytest.raises(ValueError, match="too large"):
        _require_prime(2**89 - 1)
    for spec in ("Fp:12", "Fp:1", "Fp:0", "Fp:-7", "Fp:1000000", f"Fp:{2**89 - 1}"):
        with pytest.raises(FormulaSyntaxError, match="bad prime"):
            field_from_name(spec)
    with pytest.raises(FormulaSyntaxError, match="modulus 12 is not a prime"):
        field_from_name("Fp", 12)
    assert field_from_name("Fp:2").p == 2
    assert PrimeField(6).p == 6  # built directly, as the kernel's zero-divisor cases do
