"""The diagonal action of every basis element on slots 1-4, against the
tuple-by-tuple Sweedler expansion in oracles.py."""

import pytest

from oracles import diagonal_action as oracle_diagonal_action
from restricted import restricted_enveloping
from symcoh.fields import Field
from symcoh.sparse import apply_columns, canonical
from symcoh.tensors import all_columns, diagonal_action, diagonal_columns
from test_generic_hopf import scrambled_kc2_rational, scrambled_kc3

# 3037000493 is the largest prime with (p-1)^2 < 2^63: products of two
# scalars fit int64, but a sum of d of them does not
ALGEBRAS = {
    "scrambled-kC3-GF3": lambda: scrambled_kc3(),
    "scrambled-kC3-GF5": lambda: scrambled_kc3(Field.prime(5)),
    "scrambled-kC3-GF3037000493": lambda: scrambled_kc3(Field.prime(3037000493)),
    "scrambled-kC2-Q": scrambled_kc2_rational,
    "restricted-GF3": lambda: restricted_enveloping(3),
    "restricted-GF5": lambda: restricted_enveloping(5),
}


@pytest.mark.parametrize("slots", (1, 2, 3, 4))
@pytest.mark.parametrize("name", ALGEBRAS)
def test_diagonal_action_matches_oracle(name, slots):
    h = ALGEBRAS[name]()
    assert not h.group_like
    size = h.dim ** slots
    for b in range(h.dim):
        expect = oracle_diagonal_action(h, b, slots)
        got = diagonal_action(h, b, slots)
        assert got.shape == (size, size)
        assert got.reshape(-1).tolist() == expect.to_dense().entries()
        got = canonical(h.field, *apply_columns(h.field, next(diagonal_columns(h, [b], slots)),
                                                all_columns(size)))
        want = canonical(h.field, *expect.triples())
        for a, w in zip(got, want):
            assert a.tolist() == w.tolist()
