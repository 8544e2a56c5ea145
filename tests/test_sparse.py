"""The sparse layer against dictionary and dense oracles: canonical triples,
pointer column maps, batched products and the sort-key guard."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcoh import linalg, sparse
from symcoh.bar import equivariant_space
from symcoh.errors import BudgetExceeded
from symcoh.fields import Field
from symcoh.hopf import group_algebra, symmetric_group_table
from symcoh.linalg import Matrix
from symcoh.modules import adjoint_module, regular_bimodule, regular_left_module
from symcoh.sparse import SparseMatrix, _column_batches, apply_columns, canonical, pointers
from symcoh.tensors import (bar_chain_transpose_columns, cochain_precompose, cochain_swap_sigmas,
                            insertion_columns)

from oracles import all_columns, all_tuples, bar_chain_diff, field_id

FIELDS = [Field.prime(2), Field.prime(5), Field.prime(3037000493), Field.rationals()]


def _scalars(field):
    if field.is_rational:
        return st.fractions(min_value=-3, max_value=3, max_denominator=4).map(Fraction)
    return st.one_of(st.integers(0, min(field.p - 1, 3)),
                     st.integers(max(field.p - 3, 0), field.p - 1))


def _entries(field, rows, cols, most):
    if not (rows and cols):
        return st.just([])
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    return st.lists(st.tuples(cells, _scalars(field)), max_size=most)


@st.composite
def triples(draw, field=None):
    """(field, shape, entries) with repeated positions, some of them summing
    to zero, in sorted, reversed or shuffled order."""
    field = field or draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = draw(_entries(field, rows, cols, 20))
    # a value and its negative at one cell cancel
    for (i, j), v in draw(_entries(field, rows, cols, 3)):
        entries += [((i, j), v), ((i, j), field.neg(v))]
    arrange = draw(st.sampled_from(["sorted", "reversed", "shuffled"]))
    entries.sort(key=lambda e: (e[0][1], e[0][0]))
    if arrange == "reversed":
        entries.reverse()
    elif arrange == "shuffled":
        entries = draw(st.permutations(entries))
    return field, (rows, cols), entries


def _arrays(field, entries):
    return (np.array([i for (i, _j), _v in entries], dtype=np.int64),
            np.array([j for (_i, j), _v in entries], dtype=np.int64),
            sparse.field_array(field, [v for _c, v in entries]))


def _oracle(field, entries):
    """{(row, col): value} summed over repeats, zeros dropped."""
    out = {}
    for cell, v in entries:
        out[cell] = field.add(out.get(cell, field.zero()), v)
    return {cell: v for cell, v in out.items() if v != field.zero()}


def _as_dict(r, c, v):
    return dict(zip(zip(r.tolist(), c.tolist()), v.tolist()))


@settings(max_examples=300, deadline=None)
@given(triples())
def test_canonical_equals_the_dict_oracle(case):
    field, shape, entries = case
    r, c, v = canonical(field, *_arrays(field, entries), shape=shape)
    want = _oracle(field, entries)
    assert _as_dict(r, c, v) == want
    assert list(zip(c.tolist(), r.tolist())) == sorted((j, i) for i, j in want)
    assert r.dtype == c.dtype == np.int64
    assert v.dtype == (object if field.is_rational else np.int64)


@pytest.mark.parametrize("field", FIELDS, ids=field_id)
def test_canonical_on_empty_and_all_ones_input(field):
    empty = np.zeros(0, dtype=np.int64)
    for shape in ((0, 0), (3, 4)):
        r, c, v = canonical(field, empty, empty, sparse.field_array(field, []), shape=shape)
        assert len(r) == len(c) == len(v) == 0
    # vals None: every value is one, so repeats add up (to zero in GF(2))
    r, c, v = canonical(field, [1, 0, 1], [2, 2, 2], None, shape=(2, 3))
    two = field.add(field.one(), field.one())
    assert _as_dict(r, c, v) == {cell: x for cell, x in
                                 {(0, 2): field.one(), (1, 2): two}.items() if x != 0}


@pytest.mark.parametrize("field", [Field.prime(5), Field.rationals()], ids=field_id)
def test_vals_none_builds_the_matrix_of_explicit_ones(field):
    cols = np.arange(6, dtype=np.int64)
    ones = sparse.field_array(field, [field.one()] * 6)
    for rows in (cols, np.array([3, 0, 5, 1, 4, 2], dtype=np.int64)):  # identity, permutation
        implicit = SparseMatrix(field, 6, 6, (rows, cols, None))
        assert implicit == SparseMatrix(field, 6, 6, (rows, cols, ones))
        assert implicit.vals.dtype == ones.dtype
        assert {type(x) for x in implicit.vals.tolist()} == {int}  # over Q too, not Fractions
    assert SparseMatrix.identity(field, 6) == SparseMatrix(field, 6, 6, (cols, cols, ones))


@settings(max_examples=150, deadline=None)
@given(triples(), st.data())
def test_column_map_returns_each_requested_column(case, data):
    field, (rows, cols), entries = case
    sm = SparseMatrix(field, rows, cols, _arrays(field, entries))
    # repeats, empty columns and columns past the last stored one
    idx = np.array(data.draw(st.lists(st.integers(0, max(cols - 1, 0)), max_size=12)) if cols
                   else [], dtype=np.int64)
    got_rows, pos, got_vals = sm.column_map()(idx)
    assert np.all(np.diff(pos) >= 0)
    stored = _oracle(field, entries)
    for k, j in enumerate(idx.tolist()):
        at = pos == k
        want = sorted((i, v) for (i, jj), v in stored.items() if jj == j)
        assert list(zip(got_rows[at].tolist(), got_vals[at].tolist())) == want


@settings(max_examples=150, deadline=None)
@given(triples(), st.data())
def test_search_column_map_matches_the_pointer_map(case, data):
    field, (rows, cols), entries = case
    sm = SparseMatrix(field, rows, cols, _arrays(field, entries))
    idx = np.array(data.draw(st.lists(st.integers(0, max(cols - 1, 0)), max_size=12)) if cols
                   else [], dtype=np.int64)
    for want, got in zip(sm.column_map()(idx), sm.column_map(search=True)(idx)):
        assert want.tolist() == got.tolist()


def test_search_column_map_on_misses_and_no_entries():
    field = Field.prime(5)
    sm = SparseMatrix(field, 4, 1000, ([2, 0, 3], [1, 3, 3], [1, 2, 4]))
    rows, pos, vals = sm.column_map(search=True)(np.array([999, 3, 0, 3, 1, 4], dtype=np.int64))
    assert (rows.tolist(), pos.tolist(), vals.tolist()) == \
        ([0, 3, 0, 3, 2], [1, 1, 3, 3, 4], [2, 4, 2, 4, 1])
    empty = SparseMatrix(field, 0, 390625)
    rows, pos, vals = empty.column_map(search=True)(np.array([0, 390624], dtype=np.int64))
    assert len(rows) == len(pos) == len(vals) == 0


def test_column_map_past_the_last_stored_column_and_its_pointer_size():
    field = Field.prime(5)
    # columns 1 and 3 of 1000 hold entries; column 3 holds two
    sm = SparseMatrix(field, 4, 1000, ([2, 0, 3], [1, 3, 3], [1, 2, 4]))
    assert len(pointers(sm.col_idx)) == 3 + 3
    rows, pos, vals = sm.column_map()(np.array([999, 3, 0, 3, 1, 4], dtype=np.int64))
    assert rows.tolist() == [0, 3, 0, 3, 2]
    assert pos.tolist() == [1, 1, 3, 3, 4]
    assert vals.tolist() == [2, 4, 2, 4, 1]
    # one entry per requested column
    rows, pos, vals = sm.column_map()(np.array([1, 1], dtype=np.int64))
    assert (rows.tolist(), pos.tolist(), vals.tolist()) == ([2, 2], [0, 1], [1, 1])
    empty = SparseMatrix(field, 0, 390625)
    assert len(pointers(empty.col_idx)) == 2
    rows, pos, vals = empty.column_map()(np.array([0, 390624], dtype=np.int64))
    assert len(rows) == len(pos) == len(vals) == 0


@st.composite
def products(draw):
    field = draw(st.sampled_from(FIELDS))
    _f, (a_rows, inner), left = draw(triples(field))
    b_cols = draw(st.integers(0, 5))
    right = draw(_entries(field, inner, b_cols, 20))
    return (SparseMatrix(field, a_rows, inner, _arrays(field, left)),
            SparseMatrix(field, inner, b_cols, _arrays(field, right)))


@settings(max_examples=200, deadline=None)
@given(products())
def test_product_equals_the_dense_product(pair):
    a, b = pair
    got = a @ b
    assert got.to_dense() == a.to_dense() @ b.to_dense()
    assert got == SparseMatrix.from_dense(a.to_dense() @ b.to_dense())


@pytest.mark.parametrize("field", FIELDS, ids=field_id)
def test_product_over_the_term_bound_runs_in_batches(field):
    # a full n x 2 times a full 2 x n: n^2 terms per column of the product
    # against a bound of max(nnz) = 2 n, so a batch per column
    n = 9
    vals = [field.from_int(k % 2 * 2 + 1) for k in range(2 * n)]  # 1 and 3: nonzero in every field
    a = SparseMatrix(field, n, 2, (list(range(n)) * 2, [0] * n + [1] * n, vals))
    b = SparseMatrix(field, 2, n, ([0, 1] * n, [j // 2 for j in range(2 * n)], vals))
    r, c, _v = b.triples()
    assert list(_column_batches(c, np.cumsum(np.full(len(r), n)), 2 * n)) == \
        [(2 * j, 2 * j + 2) for j in range(n)]
    assert (a @ b).to_dense() == a.to_dense() @ b.to_dense()


@pytest.mark.parametrize("field", FIELDS, ids=field_id)
def test_apply_in_slot_over_the_term_bound_runs_in_batches(field, monkeypatch):
    # x (3 x 2) has full columns, so each entry of y expands to 3 terms; y
    # (2^3 x 4) is full: 24 terms per column against a bound of
    # max(nnz) = 32, a batch per column of y.  A permutation x (column
    # length 1) is one pass.
    x = SparseMatrix(field, 3, 2, ([0, 1, 2] * 2, [0] * 3 + [1] * 3, None))
    swap = SparseMatrix(field, 2, 2, ([1, 0], [0, 1], None))
    y = SparseMatrix(field, 8, 4, ([r for _c in range(4) for r in range(8)],
                                   [c for c in range(4) for _r in range(8)],
                                   [field.from_int(k % 2 * 2 + 1) for k in range(32)]))
    cases = [(x, 1, 4), (x, 2, 2), (x, 4, 1), (swap, 2, 2)]
    want = [sparse.kron(sparse.kron(SparseMatrix.identity(field, before), op),
                        SparseMatrix.identity(field, after)) @ y for op, before, after in cases]
    batches = []
    plain = sparse._column_batches

    def counting(*args):
        out = list(plain(*args))
        batches.append(len(out))
        return iter(out)

    monkeypatch.setattr(sparse, "_column_batches", counting)
    for (op, before, after), expect in zip(cases, want):
        assert sparse.apply_in_slot(op, y, before, after) == expect
    assert batches == [4, 4, 4]


def test_the_term_charge_counts_three_cells_per_term(monkeypatch):
    monkeypatch.setattr(linalg, "DENSE_RANK_CELLS", 12)
    sparse.require_terms(4, "four terms")
    with pytest.raises(BudgetExceeded, match="five terms needs at least 5 terms, 15 cells"):
        sparse.require_terms(5, "five terms")


def test_column_batches_cut_between_columns_under_the_bound():
    cols = np.array([0, 0, 1, 1, 2, 3])
    ends = np.arange(1, 7)
    assert list(_column_batches(cols, ends, 3)) == [(0, 2), (2, 5), (5, 6)]
    assert list(_column_batches(cols, ends, 6)) == [(0, 6)]
    # a column over the bound is a batch of its own
    assert list(_column_batches(np.array([0, 0, 1]), np.array([5, 10, 11]), 3)) == \
        [(0, 2), (2, 3)]


def test_an_empty_shape_past_the_sort_key_is_refused_before_allocating():
    field = Field.prime(5)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            SparseMatrix(field, 1 << 32, 1 << 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 14
    with pytest.raises(BudgetExceeded):
        SparseMatrix(field, 1 << 32, 1 << 31)  # exactly 2^63 positions
    with pytest.raises(BudgetExceeded):
        canonical(field, [1 << 32], [1 << 32], None, shape=((1 << 32) + 1,) * 2)
    assert SparseMatrix(field, 1 << 31, 1 << 31).is_zero()
    # no position at all, but the key's factor `rows` itself overflows int64
    with pytest.raises(BudgetExceeded, match="2\\^63 or more"):
        SparseMatrix(field, 1 << 63, 0)
    assert SparseMatrix(field, (1 << 63) - 1, 0).is_zero()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kron_and_difference_equal_the_dense_oracles(data):
    field, shape_a, entries_a = data.draw(triples())
    _, shape_b, entries_b = data.draw(triples(field))
    a = SparseMatrix(field, *shape_a, _arrays(field, entries_a))
    b = SparseMatrix(field, *shape_b, _arrays(field, entries_b))
    # the dense oracles: numpy's Kronecker product and difference of the arrays
    assert sparse.kron(a, b).to_dense() == \
        Matrix(field, field.reduce(np.kron(a.to_dense().data, b.to_dense().data)))
    assert (a - a).is_zero()
    c = SparseMatrix(field, *shape_a, _arrays(field, data.draw(_entries(field, *shape_a, 6))))
    assert (a - c).to_dense() == \
        Matrix(field, field.reduce(a.to_dense().data - c.to_dense().data))


def _keys_seen(monkeypatch):
    """Record, for every SparseMatrix built, whether its triples arrived
    in canonical order up to repeats."""
    seen = []
    plain = sparse.canonical

    def recording(field, rows, cols, vals, shape=None):
        key = np.asarray(cols, dtype=np.int64) * shape[0] + np.asarray(rows, dtype=np.int64)
        seen.append(bool(np.all(key[1:] >= key[:-1])))
        return plain(field, rows, cols, vals, shape=shape)

    monkeypatch.setattr(sparse, "canonical", recording)
    return seen


@pytest.mark.parametrize("field", [Field.prime(5), Field.rationals()], ids=field_id)
@pytest.mark.parametrize("m", [1, 2])
def test_swaps_of_a_degree_equal_the_tuple_oracle_and_share_one_column_array(field, m):
    d, slots = 3, 4
    sigmas = cochain_swap_sigmas(field, d, slots, m)
    assert len(sigmas) == slots - 1
    assert all(s.col_idx is sigmas[0].col_idx for s in sigmas)
    # the values, all -1 and reduced as they are built, are one array as well
    assert all(s.vals is sigmas[0].vals for s in sigmas)
    minus = field.neg(field.one())
    for i, sigma in enumerate(sigmas, 1):
        # (sigma_i f)(tup, j) = -f(tup with slots i-1, i exchanged, j)
        entries = {}
        for col, tup in enumerate(all_tuples(d, slots)):
            swapped = list(tup)
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            row = next(r for r, t in enumerate(all_tuples(d, slots)) if list(t) == swapped)
            for j in range(m):
                entries[(row * m + j, col * m + j)] = minus
        rows, cols = zip(*entries)
        assert sigma == SparseMatrix(field, d ** slots * m, d ** slots * m,
                                     (list(rows), list(cols), list(entries.values())))


@pytest.mark.parametrize("field", [Field.prime(5), Field.rationals()], ids=field_id)
def test_builders_emit_triples_in_canonical_order(field, monkeypatch):
    h = group_algebra(6, symmetric_group_table(3), field)
    chain = bar_chain_diff(h, 3)
    seen = _keys_seen(monkeypatch)
    built = [cochain_precompose(chain, 3), *cochain_swap_sigmas(field, 3, 4, 2)]
    # precompose sorts the transpose of the chain map, m times smaller; the
    # three swaps of 4 slots come sorted
    assert seen == [False, True, True, True, True]
    coefficients = ((regular_left_module(h), 2), (adjoint_module(h, regular_bimodule(h)), 3))
    for mod, slots in coefficients:
        space = equivariant_space(h, mod, slots, [])
        # the coords, built last: the kron of the one-row eta^T with the identity
        assert seen[-1]
        built += [space.basis, space.coords]
    assert all(m.nnz() for m in built)


@pytest.mark.parametrize("field", [Field.prime(5), Field.rationals()], ids=field_id)
def test_transposed_chain_map_is_the_transpose_of_the_chain_map(field):
    # the counit-weighted slot insertion, on algebras with no group basis
    # (the counit of k[x]/(x^3) vanishes on x and x^2) and on a group algebra
    from restricted import restricted_enveloping
    from test_generic_hopf import scrambled_kc3
    algebras = [scrambled_kc3(field), group_algebra(6, symmetric_group_table(3), field)]
    for h in algebras + ([restricted_enveloping(3)] if field.is_rational else []):
        for n in range(4):
            chain = bar_chain_diff(h, n)
            got = SparseMatrix(h.field, chain.cols, chain.rows,
                               apply_columns(h.field, bar_chain_transpose_columns(h, n),
                                             all_columns(chain.rows)))
            assert got == chain.transpose()


@pytest.mark.parametrize("field", [Field.prime(5), Field.rationals()], ids=field_id)
def test_unit_insertion_before_slot_0_is_the_unit_tensor_the_identity(field):
    # the contracting homotopy's map: weights at position 0 only, on algebras
    # whose unit has one coordinate and, scrambled, several
    from test_generic_hopf import scrambled_kc2_rational, scrambled_kc3
    algebras = [scrambled_kc3(field), group_algebra(6, symmetric_group_table(3), field)]
    for h in algebras + ([scrambled_kc2_rational()] if field.is_rational else []):
        lead, _col, coeffs = h.maps.unit.triples()
        for n in range(4):
            size = h.dim ** n
            got = SparseMatrix(h.field, h.dim * size, size,
                               apply_columns(h.field, insertion_columns(h.dim, n, lead,
                                                                        coeffs[None, :]),
                                             all_columns(size)))
            assert got == sparse.kron(h.maps.unit, SparseMatrix.identity(h.field, size))
