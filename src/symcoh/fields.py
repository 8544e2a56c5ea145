"""Exact base fields: the rationals and prime fields GF(p).

Every scalar in this package is either a rational (an int when it is
integral, else a `fractions.Fraction`) or an int reduced into [0, p)
(prime field).  A `Field` value names the field, supplies the scalar
operations and owns the one array form of its scalars: `array` builds
an ndarray of dtype `dtype` (int64 reduced into [0, p), or objects that
are ints where integral and Fractions elsewhere), and `reduce` brings
the result of numpy arithmetic on such arrays back into it.  Array code
is written once for both fields: a product of two reduced int64
entries, plus or minus a reduced entry, stays within int64 (see
`Field`), and over Q `reduce` is the identity.  `neg`, `add` and `mul`
apply to arrays as well.

Most rationals met are 0 or +-1, on which int arithmetic is far cheaper.
Arithmetic may leave an integral Fraction; it equals, hashes and tests
like its int, so no code branches on the type of an entry.
"""

from __future__ import annotations

import numpy as np


def _rational(x):
    """x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    from fractions import Fraction  # only where a rational is built
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


# every entry of an object array as a rational scalar (`_rational`)
_rationals = np.frompyfunc(_rational, 1, 1)


# Miller-Rabin with the first 13 primes as bases decides primality of every
# n below this bound (Sorenson and Webster, Math. Comp. 86, 2017); the bound
# itself is a strong pseudoprime to all 13 of them
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_DETERMINISTIC_BELOW = 3317044064679887385961981
# above the bound, seven further bases make it a strong probable-prime test
MR_EXTRA_BASES = (43, 47, 53, 59, 61, 67, 71)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below MR_DETERMINISTIC_BELOW (about
    3.3 * 10^24); above it, a strong probable-prime test."""
    bases = MR_BASES if n < MR_DETERMINISTIC_BELOW else MR_BASES + MR_EXTRA_BASES
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    # n is odd and larger than every base: n - 1 = odd * 2^s
    odd, s = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    for a in bases:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_FIELDS = {}  # (kind, p) -> the one Field object of that field


class Field:
    """A field descriptor: kind 'rational', or 'prime' with modulus p.

    A prime p is refused unless (p-1)^2 < 2^63 (the largest is
    3037000493), so that every kernel multiplies two reduced scalars
    exactly in int64.  A field is one object, validated when it is first
    made, so equal fields are the same object and hash alike.
    """

    __slots__ = ("kind", "p")

    def __new__(cls, kind: str, p: int | None = None):
        if (kind, p) in _FIELDS:
            return _FIELDS[kind, p]
        if kind not in ("rational", "prime"):
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == "rational" and p is not None:
            raise ValueError("rational field takes no modulus")
        if kind == "prime" and (p is None or not is_prime(p)):
            raise ValueError(f"modulus {p!r} is not prime")
        if kind == "prime" and (p - 1) ** 2 >= 2 ** 63:
            raise ValueError(f"prime {p} is too large: (p-1)^2 must be below 2^63")
        field = _FIELDS[kind, p] = super().__new__(cls)
        field.kind, field.p = kind, p
        return field

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

    # -- arrays of scalars ----------------------------------------------

    @property
    def dtype(self):
        return object if self.kind == "rational" else np.int64

    def array(self, values) -> np.ndarray:
        """values (nested lists or an array) as an array of reduced scalars."""
        if self.kind == "rational":
            return np.asarray(_rationals(np.array(values, dtype=object)), dtype=object)
        return np.array(values, dtype=np.int64) % self.p

    def is_reduced(self, a: np.ndarray) -> bool:
        """Whether every entry of a lies in [0, p); over Q always."""
        return self.kind == "rational" or not len(a) or bool(a.min() >= 0 and a.max() < self.p)

    def reduce(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """a with every entry reduced mod p (into out; out=a reduces in place).
        Over Q an array is exact as it stands, and a comes back unchanged."""
        if self.kind == "rational":
            return a
        return np.remainder(a, self.p, out=out)

    # -- scalar operations -------------------------------------------

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return _rational(n) if self.kind == "rational" else n % self.p

    def add(self, a, b):
        return a + b if self.kind == "rational" else (a + b) % self.p

    def neg(self, a):
        return -a if self.kind == "rational" else (-a) % self.p

    def mul(self, a, b):
        return a * b if self.kind == "rational" else (a * b) % self.p

    def inv(self, a):
        if self.kind == "rational":
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            from fractions import Fraction
            return _rational(1 / Fraction(a))
        a = a % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def parse(self, text):
        """Read a scalar from a decimal string like "-3" or "2/3" (or an int)."""
        from fractions import Fraction
        value = Fraction(text) if not isinstance(text, Fraction) else text
        if self.kind == "rational":
            return _rational(value)
        num = value.numerator % self.p
        den = value.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {text!r} vanishes mod {self.p}")
        return (num * pow(den, self.p - 2, self.p)) % self.p

    def to_str(self, a) -> str:
        return str(a)
