"""The coinvariant self-checks must catch a single corrupted entry.

`coinvariant_space` and `sym_resolution_complex` always
verify that the projection splits the section, that the induced module is
a module, and that the diagonal action and the boundary descend to the
quotient.  SHH on the resolution route (`sh_via_resolution` with a
bimodule) reads the same resolution through ad M, so it must stop at a
corrupted space or boundary too, and at a corrupted right action of the
bimodule, which it validates before it builds ad M.  The splitting check
must see a corrupted action on A tensor S_(n-1).  Each case here corrupts
one entry of one of those inputs and expects the check to fail, on kC3 in
its group basis ("fast": the diagonal action is a permutation) and in a
basis with no group-like elements ("generic": the diagonal action is that
of the sparse tensor power of the regular module), over GF(5) and Q.  The
diagonal actions are induced and checked to descend one at a time, from
their transposed column maps, and so are the boundaries, from the
transposed chain map; the corruptions of both are made there.  A sign
flipped on an unsorted tuple of the projection keeps
projection . section = 1, so only the check that the projection kills the
relations can see it; a corrupted action entry at a section column
changes the induced action, which then fails to descend.
"""

import numpy as np
import pytest

from symcoh import resolution
from symcoh.errors import InvalidBimodule
from symcoh.fields import Field
from symcoh.hopf import cyclic_group_table, group_algebra
from symcoh.modules import Bimodule, regular_bimodule
from symcoh.resolution import (coinvariant_space, sh_via_resolution, splitting_maps,
                               sym_resolution_complex)
from symcoh.sparse import SparseMatrix, field_array

from test_generic_hopf import scrambled_kc3

FIELDS = {"GF5": Field.prime(5), "Q": Field.rationals()}

# the transposed column map (see symcoh.sparse) of the ambient chain map
# that the boundaries descend from, by its name in `resolution`
CHAIN_MAP = "bar_chain_transpose_columns"


def kc3(field):
    return group_algebra(3, cyclic_group_table(3), field)


def _bumped(field, v):
    """A value different from v."""
    return field.add(v, field.one())


def _flat(tup, d):
    idx = 0
    for t in tup:
        idx = idx * d + t
    return idx


def _corrupt_space(monkeypatch, degree, what):
    """Change one entry of the projection or the section of the space of
    the given degree right after it is built (before its checks run)."""
    original = resolution.CoinvariantSpace.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if self.degree != degree:
            return
        sm = self.projection if what == "projection" else self.section
        # the first stored entry: the lowest row of the first nonzero column
        sm.vals[0] = _bumped(sm.field, sm.vals[0])

    monkeypatch.setattr(resolution.CoinvariantSpace, "__init__", init)


def _bump_entry(field, columns, row, col):
    """The column map with entry (row, col) changed."""
    def bumped(idx):
        rows, pos, vals = columns(idx)
        vals = field_array(field, [field.one()] * len(rows)) if vals is None else vals.copy()
        hits = np.flatnonzero((idx[pos] == col) & (rows == row))
        if len(hits):
            vals[hits[0]] = _bumped(field, vals[hits[0]])
        elif col in idx:
            at = np.flatnonzero(idx == col)[:1]
            rows, pos = np.append(rows, row), np.append(pos, at)
            vals = np.append(vals, field_array(field, [field.one()]))
        return rows, pos, vals

    return bumped


def _corrupt_chain(monkeypatch, degree, d):
    """Change the entry of the transposed plain degree-`degree` boundary
    that inserts slot 0 of (0, 1, ..., degree): the transpose of the entry
    that deletes it."""
    original = getattr(resolution, CHAIN_MAP)
    tup = tuple(range(degree + 1))

    def chain(h, n):
        op = original(h, n)
        if n != degree:
            return op
        return _bump_entry(h.field, op, _flat(tup, d), _flat(tup[1:], d))

    monkeypatch.setattr(resolution, CHAIN_MAP, chain)


def _bumped_second(mats, at=0):
    """The action matrices with the diagonal entry `at` of the matrix of
    b_1 changed."""
    first = mats[1].to_dense()
    first.data[at, at] = _bumped(first.field, first.data[at, at])
    return mats[:1] + [SparseMatrix.from_dense(first)] + mats[2:]


def _build(h, bimodule):
    """The checked resolution through degree 2, as SH builds it, or as SHH
    with the regular bimodule builds it on its way to Hom_A(S_n, ad A)."""
    if bimodule:
        sh_via_resolution(h, regular_bimodule(h), 2)
    else:
        sym_resolution_complex(h, 2)


# kC3 in its group basis, and in a basis with no group-like elements
BASES = [pytest.param(kc3, id="fast"), pytest.param(scrambled_kc3, id="generic")]
# left-module (SH) or bimodule (SHH) coefficients
COEFFICIENTS = [pytest.param(False, id="tail0"), pytest.param(True, id="tail1")]


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("make", BASES)
@pytest.mark.parametrize("bimodule", COEFFICIENTS)
def test_uncorrupted_checks_pass(field_name, make, bimodule):
    h = make(FIELDS[field_name])
    coinvariant_space(h, 1, [])
    _build(h, bimodule)


@pytest.mark.parametrize("what", ["projection", "section"])
@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("make", BASES)
@pytest.mark.parametrize("bimodule", COEFFICIENTS)
def test_corrupted_quotient_is_caught(monkeypatch, what, field_name, make, bimodule):
    h = make(FIELDS[field_name])
    _corrupt_space(monkeypatch, 1, what)
    with pytest.raises(AssertionError):
        coinvariant_space(h, 1, [])
    with pytest.raises(AssertionError):
        _build(h, bimodule)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("make", BASES)
@pytest.mark.parametrize("bimodule", COEFFICIENTS)
def test_corrupted_chain_map_is_caught(monkeypatch, field_name, make, bimodule):
    h = make(FIELDS[field_name])
    _corrupt_chain(monkeypatch, 2, h.dim)
    with pytest.raises(AssertionError):
        _build(h, bimodule)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("make", BASES)
def test_corrupted_right_action_is_caught(field_name, make):
    h = make(FIELDS[field_name])
    reg = regular_bimodule(h)
    with pytest.raises(InvalidBimodule):
        sh_via_resolution(h, Bimodule(reg.dim, reg.left, _bumped_second(reg.right)), 1)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("make", BASES)
def test_corrupted_tensor_module_is_caught(monkeypatch, field_name, make):
    # the splitting maps of S_1 must commute with the action on A tensor S_0;
    # the corrupted entry sits on a row that phi reaches
    h = make(FIELDS[field_name])
    report = splitting_maps(h, 1)
    assert report.equivariant_ok
    row = int(report.phi.row_idx[0])
    original = resolution.tensor_module

    def tensor(h, l, m):
        out = original(h, l, m)
        return type(out)(out.dim, _bumped_second(out.action, row))

    monkeypatch.setattr(resolution, "tensor_module", tensor)
    assert not splitting_maps(h, 1).equivariant_ok


def _flip_unsorted(monkeypatch, degree):
    """Negate the projection entry of the first unsorted tuple of the space
    of the given degree right after it is built (before its checks run)."""
    original = resolution.CoinvariantSpace.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if self.degree != degree:
            return
        sm = self.projection
        sorted_cols = set(self.section.row_idx.tolist())
        at = next(k for k, c in enumerate(sm.col_idx.tolist()) if c not in sorted_cols)
        sm.vals[at] = sm.field.neg(sm.vals[at])

    monkeypatch.setattr(resolution.CoinvariantSpace, "__init__", init)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("make", BASES)
def test_sign_flip_on_an_unsorted_tuple_is_caught(monkeypatch, field_name, make):
    h = make(FIELDS[field_name])
    _flip_unsorted(monkeypatch, 1)
    with pytest.raises(AssertionError, match="relations"):
        coinvariant_space(h, 1, [])
    with pytest.raises(AssertionError, match="relations"):
        sym_resolution_complex(h, 2)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("make", BASES)
def test_corrupted_action_at_a_section_column_is_caught(monkeypatch, field_name, make):
    # the transposed action of b_1 on A tensor A gets its entry at the
    # section column (0, 1), on the row of that same tuple, changed
    h = make(FIELDS[field_name])
    original = resolution.diagonal_columns
    tup = _flat((0, 1), h.dim)

    def diagonal(h, elements, slots, levels):
        for b, transposed in zip(elements, original(h, elements, slots, levels)):
            if b == 1 and slots == 2:
                transposed = _bump_entry(h.field, transposed, tup, tup)
            yield transposed

    monkeypatch.setattr(resolution, "diagonal_columns", diagonal)
    with pytest.raises(AssertionError, match="induced action"):
        coinvariant_space(h, 1, [])
    with pytest.raises(AssertionError, match="induced action"):
        _build(h, True)
