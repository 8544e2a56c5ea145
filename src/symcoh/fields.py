"""Exact base fields: the rationals and prime fields GF(p).

Every scalar in this package is either a `fractions.Fraction` (rational
field) or a plain int reduced into [0, p) (prime field).  A `Field`
value names the field and supplies the scalar operations; hot loops are
expected to branch once on `field.kind` and then work with the raw
representations directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Field:
    """A field descriptor: kind 'rational', or 'prime' with modulus p."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == "rational":
            if self.p is not None:
                raise ValueError("rational field takes no modulus")
        elif self.kind == "prime":
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"modulus {self.p!r} is not prime")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def rationals() -> "Field":
        return Field("rational")

    @staticmethod
    def prime(p: int) -> "Field":
        return Field("prime", p)

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == "rational" else self.p

    @property
    def is_rational(self) -> bool:
        return self.kind == "rational"

    @property
    def int64_products(self) -> bool:
        """True over GF(p) when a product of two reduced scalars fits int64."""
        return self.kind == "prime" and (self.p - 1) ** 2 < 2 ** 63

    def __str__(self):
        return "Q" if self.kind == "rational" else f"GF({self.p})"

    # -- scalar operations -------------------------------------------

    def zero(self):
        return Fraction(0) if self.kind == "rational" else 0

    def one(self):
        return Fraction(1) if self.kind == "rational" else 1

    def from_int(self, n: int):
        return Fraction(n) if self.kind == "rational" else n % self.p

    def add(self, a, b):
        return a + b if self.kind == "rational" else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.kind == "rational" else (a - b) % self.p

    def neg(self, a):
        return -a if self.kind == "rational" else (-a) % self.p

    def mul(self, a, b):
        return a * b if self.kind == "rational" else (a * b) % self.p

    def inv(self, a):
        if self.kind == "rational":
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return 1 / Fraction(a)
        a = a % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def parse(self, text):
        """Read a scalar from a decimal string like "-3" or "2/3" (or an int)."""
        value = Fraction(text) if not isinstance(text, Fraction) else text
        if self.kind == "rational":
            return value
        num = value.numerator % self.p
        den = value.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {text!r} vanishes mod {self.p}")
        return (num * pow(den, self.p - 2, self.p)) % self.p

    def to_str(self, a) -> str:
        return str(a)
