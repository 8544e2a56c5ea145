"""The coinvariant self-checks must catch a single corrupted entry.

`coinvariant_space(check=True)` and `sym_resolution_complex(check=True)`
verify that the projection splits the section, that the induced module is
a module, and that the diagonal action and the boundary descend to the
quotient.  The bimodule resolution (tail 1) is the plain one tensored
with A, so it must stop at a corrupted plain space or boundary too, and
its own check, that S_n tensor A is a bimodule, must catch a corrupted
right or left action.  Each case here corrupts one entry of one of those
inputs and expects the check to raise, on kC3 in its group basis ("fast":
the diagonal action is a permutation) and in a basis with no group-like
elements ("generic": the diagonal action is a dense contraction), over
GF(5) and Q.
"""

import numpy as np
import pytest

from symcoh import resolution
from symcoh.errors import InvalidBimodule
from symcoh.fields import Field
from symcoh.hopf import cyclic_group_table, group_algebra
from symcoh.modules import Bimodule
from symcoh.resolution import coinvariant_space, sym_resolution_complex
from symcoh.sparse import SparseMatrix, field_array

from test_generic_hopf import scrambled_kc3

FIELDS = {"GF5": Field.prime(5), "Q": Field.rationals()}

# the column map (see symcoh.sparse) of the ambient chain map the checks
# project, by its name in `resolution`
CHAIN_MAP = "bar_chain_columns"


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
    """Change the entry of the plain degree-`degree` boundary that deletes
    slot 0 of (0, 1, ..., degree)."""
    original = getattr(resolution, CHAIN_MAP)
    tup = tuple(range(degree + 1))

    def chain(h, n, t):
        op = original(h, n, t)
        if n != degree:
            return op
        return _bump_entry(h.field, op, _flat(tup[1:], d), _flat(tup, d))

    monkeypatch.setattr(resolution, CHAIN_MAP, chain)


def _corrupt_regular(monkeypatch, side):
    """Change one entry of the right action of b_1, or of the left action of
    b_1 on the derived bimodule, as the bimodule resolution reads them."""
    original_regular = resolution.regular_bimodule
    original_tensor = resolution.tensor_module

    def bumped(mats):
        first = mats[1].to_dense()
        first.data[0, 0] = _bumped(first.field, first.data[0, 0])
        return mats[:1] + [SparseMatrix.from_dense(first)] + mats[2:]

    if side == "right":
        def regular(h):
            reg = original_regular(h)
            return Bimodule(reg.dim, reg.left, bumped(reg.right))
        monkeypatch.setattr(resolution, "regular_bimodule", regular)
    else:
        def tensor(h, l, m):
            out = original_tensor(h, l, m)
            return type(out)(out.dim, bumped(out.action)) if out.dim else out
        monkeypatch.setattr(resolution, "tensor_module", tensor)


# kC3 in its group basis, and in a basis with no group-like elements
BASES = [pytest.param(kc3, id="fast"), pytest.param(scrambled_kc3, id="generic")]
TAILS = [pytest.param(0, id="tail0"), pytest.param(1, id="tail1")]


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("make", BASES)
@pytest.mark.parametrize("tail", TAILS)
def test_uncorrupted_checks_pass(field_name, make, tail):
    h = make(FIELDS[field_name])
    coinvariant_space(h, 1, check=True)
    sym_resolution_complex(h, 2, check=True, tail=tail)


@pytest.mark.parametrize("what", ["projection", "section"])
@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("make", BASES)
@pytest.mark.parametrize("tail", TAILS)
def test_corrupted_quotient_is_caught(monkeypatch, what, field_name, make, tail):
    h = make(FIELDS[field_name])
    _corrupt_space(monkeypatch, 1, what)
    with pytest.raises(AssertionError):
        coinvariant_space(h, 1, check=True)
    with pytest.raises(AssertionError):
        sym_resolution_complex(h, 2, check=True, tail=tail)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("make", BASES)
@pytest.mark.parametrize("tail", TAILS)
def test_corrupted_chain_map_is_caught(monkeypatch, field_name, make, tail):
    h = make(FIELDS[field_name])
    _corrupt_chain(monkeypatch, 2, h.dim)
    with pytest.raises(AssertionError):
        sym_resolution_complex(h, 2, check=True, tail=tail)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("make", BASES)
def test_corrupted_right_action_is_caught(monkeypatch, field_name, make):
    h = make(FIELDS[field_name])
    _corrupt_regular(monkeypatch, "right")
    with pytest.raises(InvalidBimodule):
        sym_resolution_complex(h, 1, check=True, tail=1)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("make", BASES)
def test_corrupted_tensor_module_is_caught(monkeypatch, field_name, make):
    h = make(FIELDS[field_name])
    _corrupt_regular(monkeypatch, "left")
    with pytest.raises(InvalidBimodule):
        sym_resolution_complex(h, 1, check=True, tail=1)
