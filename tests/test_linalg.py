from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcoh.fields import Field
from symcoh.linalg import (Matrix, Subspace, kernel_basis, quotient, rank,
                           rref, solve_membership)

GF3 = Field.prime(3)
GF5 = Field.prime(5)
QQ = Field.rationals()


def test_field_validation():
    with pytest.raises(ValueError):
        Field.prime(4)
    with pytest.raises(ValueError):
        Field("prime")
    assert Field.prime(7).characteristic == 7
    assert QQ.characteristic == 0


def test_field_parse():
    assert QQ.parse("2/3") == Fraction(2, 3)
    assert GF5.parse("2/3") == (2 * pow(3, 3, 5)) % 5
    assert GF3.parse("-1") == 2


def test_rank_identity_gf3():
    assert rank(Matrix.identity(GF3, 3)) == 3


def test_rank_zero_rational():
    assert rank(Matrix.zeros(QQ, 4, 2)) == 0


def test_rank_dependent_rows_gf5():
    m = Matrix.from_rows(GF5, [[1, 2], [2, 4]])
    assert rank(m) == 1


def test_rank_equals_transpose_rank():
    m = Matrix.from_rows(GF5, [[1, 2, 3], [2, 4, 1], [0, 0, 4]])
    assert rank(m) == rank(m.transpose())


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                min_size=3, max_size=3))
def test_rank_transpose_property(entries):
    for field in (GF3, QQ):
        m = Matrix.from_rows(field, entries)
        assert rank(m) == rank(m.transpose())


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=5, max_size=5),
                min_size=3, max_size=3))
def test_kernel_dimension_and_annihilation(entries):
    for field in (GF5, QQ):
        m = Matrix.from_rows(field, entries)
        ker = kernel_basis(m)
        assert ker.dim == m.cols - rank(m)
        assert (m @ ker.basis).is_zero()
        assert ker.check_independent()


def test_kernel_identity_is_zero():
    ker = kernel_basis(Matrix.identity(GF3, 4))
    assert ker.dim == 0


def test_kernel_zero_map_is_full():
    ker = kernel_basis(Matrix.zeros(QQ, 3, 5))
    assert ker.dim == 5


def test_kernel_single_equation_gf3():
    ker = kernel_basis(Matrix.from_rows(GF3, [[1, 1]]))
    assert ker.dim == 1
    assert ker.basis.column(0) in ([1, 2], [2, 1])


def test_solve_membership_zero_vector():
    basis = Matrix.from_rows(QQ, [[1, 0], [0, 1], [1, 1]])
    s = Subspace(3, basis)
    assert solve_membership(s, [0, 0, 0]) == [0, 0]


def test_solve_membership_basis_column():
    basis = Matrix.from_rows(GF5, [[1, 2], [0, 1], [3, 0]])
    s = Subspace(3, basis)
    coords = solve_membership(s, basis.column(0))
    assert coords == [1, 0]


def test_solve_membership_outside_span():
    basis = Matrix.from_rows(QQ, [[1], [0], [0]])
    s = Subspace(3, basis)
    assert solve_membership(s, [0, 1, 0]) is None
    # oracle: adjoining the vector must raise the rank
    aug = basis.hstack(Matrix.from_rows(QQ, [[0], [1], [0]]))
    assert rank(aug) == rank(basis) + 1


def test_quotient_no_relations_is_identity():
    proj, sect = quotient(3, Matrix.zeros(QQ, 3, 0))
    assert proj == Matrix.identity(QQ, 3)
    assert sect == Matrix.identity(QQ, 3)


def test_quotient_by_full_space():
    proj, sect = quotient(3, Matrix.identity(GF3, 3))
    assert proj.rows == 0
    assert sect.cols == 0


def test_quotient_chain_relations():
    rel = Matrix.from_rows(QQ, [[1, 0], [-1, 1], [0, -1]])
    assert rank(rel) == 2
    proj, sect = quotient(3, rel)
    assert proj.rows == 1
    assert (proj @ sect) == Matrix.identity(QQ, 1)
    assert (proj @ rel).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                min_size=4, max_size=4))
def test_quotient_properties(entries):
    rel = Matrix.from_rows(GF5, entries)
    proj, sect = quotient(4, rel)
    q = 4 - rank(rel)
    assert proj.rows == q and sect.cols == q
    assert (proj @ sect) == Matrix.identity(GF5, q)
    assert (proj @ rel).is_zero()
    # ker(projection) has the right dimension, so it equals the relation span
    assert kernel_basis(proj).dim == rank(rel)


def test_determinism_bit_identical():
    entries = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    a = Matrix.from_rows(GF5, entries)
    b = Matrix.from_rows(GF5, entries)
    ra, pa = rref(a)
    rb, pb = rref(b)
    assert pa == pb
    assert ra.entries() == rb.entries()
    assert kernel_basis(a).basis.entries() == kernel_basis(b).basis.entries()


@pytest.mark.parametrize("p", [2147483647, 3037000493])
def test_dense_product_is_exact_at_large_primes(p):
    # four products of (p-1)^2 overflow int64 unless reduced in chunks; the
    # parent returned 0 at the first p and 581896576 at the second
    field = Field.prime(p)
    row = Matrix.from_rows(field, [[p - 1] * 4])
    col = Matrix.from_rows(field, [[p - 1]] * 4)
    assert (row @ col)[0, 0] == 4
    a = [[(3 * i + 7 * j) * 1000003 % p for j in range(9)] for i in range(5)]
    b = [[(p - 1 - 11 * i * j) % p for j in range(3)] for i in range(9)]
    got = Matrix.from_rows(field, a) @ Matrix.from_rows(field, b)
    assert [got.row(i) for i in range(5)] == \
        [[sum(x * y for x, y in zip(arow, bcol)) % p for bcol in zip(*b)] for arow in a]
