"""Coefficient fields: arbitrary-precision rationals and integers mod a prime.

Every asserted bound uses exact integer arithmetic; only bench's reference
curves and fitted constants are floats.  A formula carries one field, never
mixed.  Over Fp a scalar is a plain int in [0, p).  Over Q each value has one
form: a plain int when it is integral and a Fraction in lowest terms with a
denominator above 1 otherwise.  normalize, parse, add and mul return that
form, so a pass on integral weights multiplies ints only, and str gives the
same text for both forms (str(n) == str(Fraction(n))).  one() is the int 1,
which the parser puts on every elided edge weight; CPython keeps a single
object for it, so a test for the unit by identity also holds.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import FormulaSyntaxError

Scalar = Union[Fraction, int]

#: Default prime for identity testing: the Mersenne prime 2^61 - 1.
MERSENNE61 = 2**61 - 1

#: Characters of a scalar that an error message quotes; a longer scalar is
#: quoted by that many and its length.
_QUOTED = 24


def _bad_scalar(what: str, text: str, reason: str = "") -> FormulaSyntaxError:
    """The error for a scalar the field cannot read.  A long one is quoted by
    its first characters and its length; the reason keeps its first clause,
    with each run of digits as long as that cut the same way."""
    if len(text) <= _QUOTED:
        quoted = repr(text)
    else:
        quoted = f"{text[:_QUOTED]!r}... ({len(text)} characters)"
        reason = re.sub(r"\d{%d,}" % (_QUOTED + 1), lambda m: m[0][:_QUOTED] + "...",
                        reason.split(":")[0])
    return FormulaSyntaxError(f"bad {what} {quoted}" + (reason and f": {reason}"))


def _canonical(q: Fraction) -> Scalar:
    """q as its one form over Q: its numerator when it is integral."""
    return q.numerator if q.denominator == 1 else q


class Rationals:
    """The field Q."""

    name = "Q"

    def normalize(self, value) -> Scalar:
        return value if type(value) is int else _canonical(Fraction(value))

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        c = a + b
        return c if type(c) is int else _canonical(c)

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        c = a * b
        return c if type(c) is int else _canonical(c)

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    def is_one(self, a: Scalar) -> bool:
        return a == 1

    def parse(self, text: str) -> Scalar:
        try:
            return _canonical(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise _bad_scalar("rational scalar", text, str(exc)) from None

    def format(self, a: Scalar) -> str:
        # Fraction keeps lowest terms; emit "p/q" or "p".
        return str(a)

    def __repr__(self) -> str:
        return "Rationals()"

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("Q")


class PrimeField:
    """Integers mod p for a configured prime p."""

    def __init__(self, p: int = MERSENNE61):
        if p < 2:
            raise ValueError(f"prime must be >= 2, got {p}")
        self.p = p
        self.name = f"Fp:{p}"

    def normalize(self, value) -> int:
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator {value.denominator} vanishes mod {self.p}")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return int(value) % self.p

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def is_one(self, a: int) -> bool:
        return a % self.p == 1

    def parse(self, text: str) -> int:
        try:
            return int(text) % self.p
        except ValueError:
            raise _bad_scalar("field element", text) from None

    def format(self, a: int) -> str:
        return str(a % self.p)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))


#: Miller-Rabin on these bases decides primality exactly below _PRIME_LIMIT
#: (Sorenson and Webster, Math. Comp. 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _require_prime(p: int) -> None:
    """Raise ValueError unless p is a prime below _PRIME_LIMIT: a composite
    modulus has zero divisors, which void the d/p error bound of PIT."""
    if p >= _PRIME_LIMIT:
        raise ValueError(f"modulus {p} is too large to be proved prime (limit {_PRIME_LIMIT})")
    if p < 2 or any(p % b == 0 and p != b for b in _PRIME_BASES):
        raise ValueError(f"modulus {p} is not a prime")
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for b in _PRIME_BASES if p > _PRIME_BASES[-1] else ():
        xs = [pow(b, d << i, p) for i in range(s)]  # b^d, then squared s - 1 times
        if xs[0] != 1 and p - 1 not in xs:
            raise ValueError(f"modulus {p} is not a prime")


Field = Union[Rationals, PrimeField]

#: Shared default instance of Q.
QQ = Rationals()


def field_from_name(name: str, default_prime: int = MERSENNE61) -> Field:
    """Parse a field spec: "Q", "Fp" (default prime), or "Fp:<prime>" for a prime."""
    name = name.strip()
    if name == "Q":
        return QQ
    if name == "Fp" or name.startswith("Fp:"):
        try:
            p = default_prime if name == "Fp" else int(name[3:])
        except ValueError:
            raise FormulaSyntaxError(f"bad prime in field spec {name!r}") from None
        try:
            _require_prime(p)
        except ValueError as exc:
            raise FormulaSyntaxError(f"bad prime in field spec {name!r}: {exc}") from None
        return PrimeField(p)
    raise FormulaSyntaxError(f"unknown field {name!r} (expected Q or Fp:<prime>)")
