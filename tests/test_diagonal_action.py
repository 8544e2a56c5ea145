"""The diagonal action of every basis element on slots 1-4, read off its
transposed column map, the one map `diagonal_columns` yields: the sparse
tensor power of the regular module against the tuple-by-tuple Sweedler
expansion in oracles.py, and the permutation branch of group algebras
against that tensor power."""

import pytest

from oracles import diagonal_action as oracle_diagonal_action
from restricted import restricted_enveloping
from symcoh.fields import Field
from symcoh.hopf import cyclic_group_table, group_algebra, symmetric_group_table
from symcoh.modules import regular_left_module, tensor_module
from symcoh.sparse import apply_columns, canonical
from symcoh.tensors import all_columns, diagonal_columns
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
GROUPS = {
    "kC3-GF3": lambda: group_algebra(3, cyclic_group_table(3), Field.prime(3)),
    "kS3-GF5": lambda: group_algebra(6, symmetric_group_table(3), Field.prime(5)),
    "kS3-Q": lambda: group_algebra(6, symmetric_group_table(3), Field.rationals()),
}


def _triples(h, columns, size):
    """Canonical triples of the operator with column map `columns` on `size` coordinates."""
    return [a.tolist() for a in canonical(h.field, *apply_columns(h.field, columns,
                                                                  all_columns(size)),
                                          shape=(size, size))]


@pytest.mark.parametrize("slots", (1, 2, 3, 4))
@pytest.mark.parametrize("name", ALGEBRAS)
def test_diagonal_action_matches_oracle(name, slots):
    h = ALGEBRAS[name]()
    assert not h.group_like
    size = h.dim ** slots
    for b, transposed in zip(range(h.dim), diagonal_columns(h, range(h.dim), slots, [])):
        expect = oracle_diagonal_action(h, b, slots)
        assert (expect.rows, expect.cols) == (size, size)
        assert _triples(h, transposed, size) == \
            [a.tolist() for a in expect.transpose().triples()]


@pytest.mark.parametrize("slots", (1, 2, 3, 4))
@pytest.mark.parametrize("name", GROUPS)
def test_permutation_branch_matches_tensor_power(name, slots):
    # the permutations are a closed form of the tensor power of the regular
    # module, which is what every other algebra runs
    h = GROUPS[name]()
    assert h.group_like
    regular = regular_left_module(h)
    power = regular
    for _ in range(slots - 1):
        power = tensor_module(h, power, regular)
    assert power.dim == h.dim ** slots
    for action, transposed in zip(power.action, diagonal_columns(h, range(h.dim), slots, [])):
        # the action of the inverse element is the transpose
        assert _triples(h, transposed, power.dim) == \
            [a.tolist() for a in action.transpose().triples()]
