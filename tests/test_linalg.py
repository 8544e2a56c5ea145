from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import check_independent, gauss_jordan, list_product, stacked_kernel
from symcoh.errors import BudgetExceeded
from symcoh.fields import Field
from symcoh.linalg import (Matrix, Subspace, _product_plan, intersect_kernels, inverse,
                           kernel_basis, quotient, rank, rref, solve_membership)

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
        assert check_independent(ker)


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


# -- the common kernel, one constraint at a time ---------------------------

KERNEL_FIELDS = [Field.prime(p) for p in (2, 3, 5, 7, 3037000493)] + [QQ]


def _as_constraints(mats):
    return [(c.rows, lambda k, c=c: c @ k) for c in mats]


@st.composite
def constraint_systems(draw):
    """A field, an ambient dimension and 1-4 constraints on it: zero,
    invertible (empty kernel), random, or of low rank (a product through
    1-2 dimensions), with entries that include p - 1 over GF(p)."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    dim = draw(st.integers(0, 7))
    big = (field.p - 1) if field.p else 2 ** 40 + 1
    entry = st.integers(-3, 3) | st.sampled_from([big, -big])

    def dense(rows, cols):
        return Matrix.from_rows(field, [[draw(entry) for _ in range(cols)]
                                        for _ in range(rows)]) if rows else \
            Matrix.zeros(field, 0, cols)

    mats = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["zero", "invertible", "random", "low-rank"]))
        rows = draw(st.integers(0, 6))
        if kind == "zero":
            mats.append(Matrix.zeros(field, rows, dim))
        elif kind == "invertible":
            mats.append(Matrix.identity(field, dim).scale(draw(st.integers(1, 3))))
        elif kind == "random":
            mats.append(dense(rows, dim))
        else:
            inner = draw(st.integers(1, 2))
            mats.append(dense(rows, inner) @ dense(inner, dim))
    return field, dim, mats


@settings(max_examples=400, deadline=None)
@given(constraint_systems())
def test_intersect_kernels_equals_the_stacked_kernel(system):
    field, dim, mats = system
    got = intersect_kernels(field, dim, _as_constraints(mats))
    want = stacked_kernel(field, mats)
    assert got.ambient_dim == dim
    assert got.basis == want.basis


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_intersect_kernels_on_zero_full_rank_and_empty_sets(field):
    dim = 5
    zero = Matrix.zeros(field, 3, dim)
    eye = Matrix.identity(field, dim)
    wide = Matrix.from_rows(field, [[1, 0, 2, 0, -1], [0, 1, 1, 3, 0]])  # full row rank
    cases = {"zero": [zero, zero], "full-row-rank": [wide, zero],
             "empty": [zero, wide, eye], "empty-then-more": [eye, wide]}
    for name, mats in cases.items():
        got = intersect_kernels(field, dim, _as_constraints(mats))
        assert got.basis == stacked_kernel(field, mats).basis, name
    assert intersect_kernels(field, dim, _as_constraints(cases["zero"])).basis == eye
    assert intersect_kernels(field, dim, _as_constraints(cases["empty"])).dim == 0


def test_intersect_kernels_skips_vanishing_constraints_and_stops_when_empty():
    calls = []

    def spy(c):
        def apply(k):
            calls.append(k.cols)
            return c @ k
        return c.rows, apply

    eye = Matrix.identity(GF5, 3)
    zero = Matrix.zeros(GF5, 3, 3)
    got = intersect_kernels(GF5, 3, [spy(zero), spy(eye), spy(eye)])
    assert got.dim == 0
    assert calls == [3, 3]


def test_intersect_kernels_refuses_a_step_over_the_cell_limit(monkeypatch):
    from symcoh import linalg
    monkeypatch.setattr(linalg, "DENSE_RANK_CELLS", 20)
    applied = []
    with pytest.raises(BudgetExceeded, match="5 x 5 matrix"):
        intersect_kernels(GF5, 5, [(1, applied.append)])
    assert applied == []
    # 4 coordinates: the first step fits (4 x 4), the row cuts the basis to
    # 3 columns, and the second step's 7 x 3 image does not fit
    row = Matrix.from_rows(GF5, [[1, 0, 0, 0]])
    with pytest.raises(BudgetExceeded, match="7 x 3 matrix"):
        intersect_kernels(GF5, 4, _as_constraints([row, Matrix.zeros(GF5, 7, 4)]))


# -- float64 products over GF(p) -------------------------------------------

# 94906249 is the largest prime with (p-1)^2 < 2^53, the last that takes one
# limb; 94906297 is the next prime
PRODUCT_PRIMES = [2, 5, 94906249, 94906297, 2147483647, 3037000493]


@pytest.mark.parametrize("p", PRODUCT_PRIMES)
def test_float_product_plan_is_exact(p):
    bits, limbs, chunk = _product_plan(p)
    assert limbs * bits >= (p - 1).bit_length()
    assert (limbs == 1) == ((p - 1) ** 2 < 2 ** 53)
    assert chunk >= 1
    assert chunk * (p - 1) * min(p - 1, 2 ** bits - 1) <= 2 ** 53


@pytest.mark.parametrize("p", PRODUCT_PRIMES)
def test_float_product_equals_the_python_int_product(p):
    # inner sizes on both sides of the chunk length where it is small; at
    # p = 2 and 5 a chunk holds 2^53 / (p-1)^2 terms, far past any test size
    field = Field.prime(p)
    chunk = _product_plan(p)[2]
    sizes = [1, 2, 7, 64] if chunk > 4096 else [max(chunk - 1, 1), chunk, chunk + 1,
                                                2 * chunk + 1]
    for inner in sizes:
        a = [[p - 1 if (i + k) % 4 else (7919 * k + i) % p for k in range(inner)]
             for i in range(3)]
        b = [[p - 1 if (k + j) % 5 else (104729 * k + 3 * j) % p for j in range(2)]
             for k in range(inner)]
        got = Matrix.from_rows(field, a) @ Matrix.from_rows(field, b)
        assert [got.row(i) for i in range(3)] == \
            [[sum(x * y for x, y in zip(arow, bcol)) % p for bcol in zip(*b)]
             for arow in a], inner
        ones = Matrix.from_rows(field, [[p - 1] * inner])
        assert (ones @ ones.transpose())[0, 0] == inner % p


@pytest.mark.parametrize("field", [GF5, Field.prime(3037000493), QQ], ids=str)
def test_sparse_dense_product_equals_the_dense_product(field):
    from symcoh.sparse import SparseMatrix
    big = field.p - 1 if field.p else 7
    # row 2 times column 1 sums four products (p-1)^2, past int64 unreduced
    a = Matrix.from_rows(field, [[0, big, 0, 1], [0, 0, 0, 0], [big, big, big, big]])
    k = Matrix.from_rows(field, [[1, big], [0, big], [big, big], [2, big]])
    assert SparseMatrix.from_dense(a).dense_product(k) == a @ k
    assert SparseMatrix(field, 3, 4).dense_product(k) == Matrix.zeros(field, 3, 2)


# -- the array kernels against scalar elimination --------------------------

ORACLE_FIELDS = [Field.prime(2), GF5, Field.prime(3037000493), QQ]


def _rows_of(field, rows):
    return [[field.from_int(x) for x in row] for row in rows]


def _transpose(rows, cols: int):
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(cols)]


def _matrix(field, rows, cols: int) -> Matrix:
    """The len(rows) x cols matrix of a list of rows, which may be empty."""
    return Matrix.from_columns(field, _transpose(rows, cols), rows=len(rows))


@st.composite
def oracle_cases(draw):
    """A field, an r x c and a c x k matrix over it as lists of rows (each
    side 0..8): entries 0, +-1, +-(p-1) and others over GF(p), Fractions
    with several denominators over Q, two thirds of them zero, so that
    eliminations take both the masked and the dense update."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    if field.is_rational:
        entry = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 7]))
    else:
        p = field.p
        entry = st.one_of(st.sampled_from([1, -1, p - 1, 1 - p]), st.integers(0, p - 1))
    entry = st.one_of(st.just(0), st.just(0), entry)
    r, c, k = (draw(st.integers(0, 8)) for _ in range(3))

    def grid(rows, cols):
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    return field, c, k, grid(r, c), grid(c, k)


@settings(max_examples=400, deadline=None)
@given(oracle_cases())
@example((QQ, 0, 3, [], [])).via("empty rows")
@example((GF5, 4, 0, [[0] * 4] * 3, [[]] * 4)).via("zero matrix, no columns on the right")
@example((Field.prime(3037000493), 2, 2, [[3037000492, 1], [1, 3037000492]],
          [[3037000492, 3037000492], [3037000492, 3037000492]])).via("entries p-1")
# already in echelon form; back-substitution clears column 6 on row 5 alone
# of the six rows above, and leaves -3 and -2 in its last columns to reduce
@example((GF5, 9, 1, [[1, 0, 0, 0, 0, 0, 0, 4, 1],
                      [0, 1, 0, 0, 0, 0, 0, 4, 1],
                      [0, 0, 1, 0, 0, 0, 0, 4, 1],
                      [0, 0, 0, 1, 0, 0, 0, 4, 1],
                      [0, 0, 0, 0, 1, 0, 0, 4, 1],
                      [0, 0, 0, 0, 0, 1, 1, 1, 1],
                      [0, 0, 0, 0, 0, 0, 1, 4, 3]], [[1]] * 9)).via("masked update")
def test_array_kernels_match_scalar_elimination(case):
    field, c, k, a_rows, b_rows = case
    a_rows, b_rows = _rows_of(field, a_rows), _rows_of(field, b_rows)
    r = len(a_rows)
    a, b = _matrix(field, a_rows, c), _matrix(field, b_rows, k)
    reduced, pivots = gauss_jordan(field, a_rows, c)
    got, got_pivots = rref(a)
    assert isinstance(got.data, np.ndarray) and got.data.dtype == field.dtype
    assert got_pivots == pivots
    assert [got.row(i) for i in range(r)] == reduced
    assert rank(a) == len(pivots)
    # the kernel: 1 at each free column, minus the pivot rows' entries there
    free = [j for j in range(c) if j not in pivots]
    expect = [[field.one() if j == f else field.zero() for j in range(c)] for f in free]
    for col, f in zip(expect, free):
        for i, pc in enumerate(pivots):
            col[pc] = field.neg(reduced[i][f])
    basis = kernel_basis(a).basis
    assert [basis.column(t) for t in range(basis.cols)] == expect
    # the quotient of k^r by the columns of a reads the rref of a^T
    t_reduced, t_pivots = gauss_jordan(field, _transpose(a_rows, c), r)
    t_free = [j for j in range(r) if j not in t_pivots]
    projection, section = quotient(r, a)
    expect = [[field.one() if j == f else field.zero() for j in range(r)] for f in t_free]
    for row, f in zip(expect, t_free):
        for i, pc in enumerate(t_pivots):
            row[pc] = field.neg(t_reduced[i][f])
    assert [projection.row(t) for t in range(len(t_free))] == expect
    assert [section.column(t) for t in range(len(t_free))] == \
        [[field.one() if j == f else field.zero() for j in range(r)] for f in t_free]
    if r == c:
        eye = [[field.one() if i == j else field.zero() for j in range(r)] for i in range(r)]
        both, both_pivots = gauss_jordan(field, [x + y for x, y in zip(a_rows, eye)], 2 * r)
        if both_pivots == list(range(r)):
            inv = inverse(a)
            assert [inv.row(i) for i in range(r)] == [row[r:] for row in both]
        else:
            with pytest.raises(ValueError):
                inverse(a)
    product = a @ b
    assert product.data.dtype == field.dtype
    assert [product.row(i) for i in range(r)] == list_product(field, a_rows, b_rows, k)


# -- rationals in mixed form against the all-Fraction oracle ---------------


@st.composite
def mixed_rational(draw):
    """A rational in any form an array over Q may hold: an int, an integral
    Fraction such as Fraction(4, 2), or a non-integral Fraction."""
    value = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 1, 2, 3])))
    if value.denominator == 1 and draw(st.booleans()):
        return int(value)
    return value


def _object_array(values, shape) -> np.ndarray:
    """values (a flat list) as an object array, each entry in the form it
    was drawn in."""
    out = np.zeros(len(values), dtype=object)
    for i, x in enumerate(values):
        out[i] = x
    return out.reshape(shape)


@st.composite
def mixed_cases(draw):
    """An r x c and a c x k matrix and a second r x c one (each side 0..7)
    as lists of rows of mixed rationals, half of them an int or Fraction zero."""
    entry = st.one_of(st.just(0), st.just(Fraction(0)), mixed_rational())
    r, c, k = (draw(st.integers(0, 7)) for _ in range(3))

    def grid(rows, cols):
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    return c, k, grid(r, c), grid(c, k), grid(r, c)


@settings(max_examples=300, deadline=None)
@given(mixed_cases())
@example((2, 2, [[Fraction(4, 2), 0], [1, Fraction(1, 2)]], [[Fraction(0), 2], [2, 3]],
          [[-2, Fraction(0)], [Fraction(-1), Fraction(1, 2)]])).via("integral Fractions")
def test_mixed_rational_forms_match_the_fraction_oracle(case):
    from symcoh.sparse import SparseMatrix, canonical
    c, k, a_rows, b_rows, e_rows = case
    r = len(a_rows)
    fa, fb, fe = ([[Fraction(x) for x in row] for row in rows] for rows in (a_rows, b_rows, e_rows))
    a = Matrix(QQ, _object_array([x for row in a_rows for x in row], (r, c)))
    b = Matrix(QQ, _object_array([x for row in b_rows for x in row], (c, k)))
    reduced, pivots = gauss_jordan(QQ, fa, c)
    got, got_pivots = rref(a)
    assert got_pivots == pivots
    assert [got.row(i) for i in range(r)] == reduced
    assert rank(a) == len(pivots)
    free = [j for j in range(c) if j not in pivots]
    expect = [[Fraction(int(j == f)) for j in range(c)] for f in free]
    for col, f in zip(expect, free):
        for i, pc in enumerate(pivots):
            col[pc] = -reduced[i][f]
    basis = kernel_basis(a).basis
    assert [basis.column(t) for t in range(basis.cols)] == expect
    if r == c:
        eye = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
        both, both_pivots = gauss_jordan(QQ, [x + y for x, y in zip(fa, eye)], 2 * r)
        if both_pivots == list(range(r)):
            inv = inverse(a)
            assert [inv.row(i) for i in range(r)] == [row[r:] for row in both]
        else:
            with pytest.raises(ValueError):
                inverse(a)
    product = list_product(QQ, fa, fb, k)
    dense = a @ b
    assert [dense.row(i) for i in range(r)] == product
    if all(x.denominator == 1 for row in fa + fb for x in row):
        assert {type(x) for x in dense.entries()} <= {int}
    sparse = (SparseMatrix.from_dense(a) @ SparseMatrix.from_dense(b)).to_dense()
    assert [sparse.row(i) for i in range(r)] == product
    # canonical sums the entries of a and e at each cell and drops every zero
    cells = [(i, j) for i in range(r) for j in range(c)] * 2
    vals = _object_array([x for row in a_rows for x in row] + [x for row in e_rows for x in row],
                         len(cells))
    got_r, got_c, got_v = canonical(QQ, [i for i, _j in cells], [j for _i, j in cells], vals,
                                    shape=(r, c))
    want = {(i, j): fa[i][j] + fe[i][j] for i in range(r) for j in range(c)
            if fa[i][j] + fe[i][j]}
    assert dict(zip(zip(got_r.tolist(), got_c.tolist()), got_v.tolist())) == want
    assert list(zip(got_c.tolist(), got_r.tolist())) == sorted((j, i) for i, j in want)
