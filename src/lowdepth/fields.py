"""Coefficient fields: arbitrary-precision rationals and integers mod a prime.

Every asserted bound uses exact integer arithmetic; only bench's reference
curves and fitted constants are floats.  A scalar is a Fraction (over Q) or a
plain int in [0, p) (over Fp); a formula carries one field, never mixed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import FieldUnordered, FormulaSyntaxError

Scalar = Union[Fraction, int]

#: Default prime for identity testing: the Mersenne prime 2^61 - 1.
MERSENNE61 = 2**61 - 1


class Rationals:
    """The field Q. Ordered, so sign-based monotonicity checks are available."""

    ordered = True
    name = "Q"

    def normalize(self, value) -> Fraction:
        return Fraction(value)

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def is_zero(self, a: Fraction) -> bool:
        return a == 0

    def is_one(self, a: Fraction) -> bool:
        return a == 1

    def is_positive(self, a: Fraction) -> bool:
        return a > 0

    def parse(self, text: str) -> Fraction:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormulaSyntaxError(f"bad rational scalar {text!r}: {exc}") from None

    def format(self, a: Fraction) -> str:
        # Fraction keeps lowest terms; emit "p/q" or "p".
        return str(a)

    def __repr__(self) -> str:
        return "Rationals()"

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("Q")


class PrimeField:
    """Integers mod p for a configured prime p. Unordered."""

    ordered = False

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

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def is_one(self, a: int) -> bool:
        return a % self.p == 1

    def is_positive(self, a: int) -> bool:
        raise FieldUnordered(f"{self.name} has no order; use the rationals for sign checks")

    def parse(self, text: str) -> int:
        try:
            return int(text) % self.p
        except ValueError:
            raise FormulaSyntaxError(f"bad field element {text!r}") from None

    def format(self, a: int) -> str:
        return str(a % self.p)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))


Field = Union[Rationals, PrimeField]

#: Shared default instance of Q.
QQ = Rationals()


def field_from_name(name: str, default_prime: int = MERSENNE61) -> Field:
    """Parse a field spec: "Q", "Fp" (default prime), or "Fp:<prime>"."""
    name = name.strip()
    if name == "Q":
        return QQ
    if name == "Fp":
        return PrimeField(default_prime)
    if name.startswith("Fp:"):
        try:
            p = int(name[3:])
        except ValueError:
            raise FormulaSyntaxError(f"bad prime in field spec {name!r}") from None
        return PrimeField(p)
    raise FormulaSyntaxError(f"unknown field {name!r} (expected Q or Fp:<prime>)")
