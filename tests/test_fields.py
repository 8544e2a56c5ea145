"""Primality of field moduli: Miller-Rabin against trial division and on
the composites that fool weaker tests; the form of rational scalars."""

from fractions import Fraction

import numpy as np
import pytest

from symcoh.fields import MR_DETERMINISTIC_BELOW, Field, is_prime

CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
              46657, 52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401,
              3215031751)  # the last is also a strong pseudoprime to bases 2, 3, 5, 7
STRONG_PSEUDOPRIMES = (
    3825123056546413051,  # to every prime base up to 31
    318665857834031151167461,  # = 399165290221 * 798330580441, up to 37
    MR_DETERMINISTIC_BELOW,  # = 1287836182261 * 2575672364521, up to 41
)
PRIMES = (3037000493, 3037000507, 4294967311, 2 ** 61 - 1, 2 ** 64 - 59,
          10 ** 20 + 39, 2 ** 89 - 1, 2 ** 127 - 1)


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_agrees_with_trial_division_below_100000():
    assert [n for n in range(100_000) if is_prime(n) != trial_division(n)] == []


@pytest.mark.parametrize("n", CARMICHAEL + STRONG_PSEUDOPRIMES)
def test_pseudoprimes_are_composite(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", PRIMES)
def test_large_primes(n):
    assert is_prime(n)
    if (n - 1) ** 2 < 2 ** 63:
        assert Field.prime(n).p == n
    else:
        # a product of two reduced scalars would overflow int64
        with pytest.raises(ValueError):
            Field.prime(n)


def test_composite_modulus_is_refused():
    with pytest.raises(ValueError):
        Field.prime(3215031751)


def test_reduced_product_plus_accumulator_fits_int64_at_every_accepted_prime():
    # the int64 kernels (the diagonal action, the limb combination of dense
    # products) add one product of reduced scalars to a reduced accumulator
    # at a time; the largest prime a Field accepts is the worst case
    p = 3037000493
    Field.prime(p)
    with pytest.raises(ValueError):
        Field.prime(3037000507)  # the next prime
    assert (p - 1) ** 2 + (p - 1) < 2 ** 63
    top = np.full(4, p - 1, dtype=np.int64)
    assert ((top + top * top) % p).tolist() == [((p - 1) + (p - 1) ** 2) % p] * 4


QQ = Field.rationals()


def _types(values):
    return [type(x) for x in values]


def test_integral_rationals_are_ints():
    # an integral value comes back as an int and any other as a Fraction,
    # whether it came in as an int, an integral Fraction, a string or a float
    got = QQ.array([[0, 1, -2, Fraction(4, 2)], [Fraction(0, 3), Fraction(1, 2), "-6/3", 0.5]])
    assert got.dtype == object
    assert got.tolist() == [[0, 1, -2, 2], [0, Fraction(1, 2), -2, Fraction(1, 2)]]
    assert _types(got.reshape(-1)) == [int] * 5 + [Fraction, int, Fraction]


@pytest.mark.parametrize("text,value", [
    ("-3", -3), ("4/2", 2), ("0/5", 0), (7, 7), (Fraction(6, 3), 2),
    ("2/3", Fraction(2, 3)), (Fraction(-1, 4), Fraction(-1, 4))])
def test_parse_gives_an_int_exactly_when_integral(text, value):
    got = QQ.parse(text)
    assert got == value
    assert type(got) is (int if Fraction(value).denominator == 1 else Fraction)


@pytest.mark.parametrize("a,value", [
    (1, 1), (-1, -1), (Fraction(1, 3), 3), (Fraction(-1, 2), -2),
    (2, Fraction(1, 2)), (Fraction(2, 3), Fraction(3, 2)), (Fraction(4, 2), Fraction(1, 2))])
def test_inv_gives_an_int_exactly_when_integral(a, value):
    got = QQ.inv(a)
    assert got == value
    assert type(got) is (int if Fraction(value).denominator == 1 else Fraction)


def test_inverse_of_zero_is_refused():
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            QQ.inv(zero)


def test_zero_one_and_from_int_are_ints():
    assert _types([QQ.zero(), QQ.one(), QQ.from_int(-5), QQ.from_int(0)]) == [int] * 4
    assert (QQ.zero(), QQ.one(), QQ.from_int(-5)) == (0, 1, -5)
    # the prime field keeps its reduced ints
    assert Field.prime(5).parse("-3/2") == 1 and Field.prime(5).from_int(-1) == 4


def test_a_field_is_one_object_validated_when_first_made():
    assert Field.prime(5) is Field("prime", 5) and Field.rationals() is Field("rational")
    assert Field.prime(5) != Field.prime(7) and Field.prime(5) != Field.rationals()
    assert {Field.prime(5): "GF(5)"}[Field("prime", 5)] == "GF(5)"
    assert (Field.prime(7).kind, Field.prime(7).p) == ("prime", 7)
    for _ in range(2):  # a refused field is never stored
        with pytest.raises(ValueError, match="not prime"):
            Field.prime(9)
        with pytest.raises(ValueError, match="no modulus"):
            Field("rational", 5)
        with pytest.raises(ValueError, match="unknown field kind"):
            Field("real")
