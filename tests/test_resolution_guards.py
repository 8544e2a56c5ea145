"""The coinvariant self-checks must catch a single corrupted entry.

`coinvariant_space(check=True)` and `sym_resolution_complex(check=True)`
verify that the projection splits the section, that the induced module is
a module, and that the diagonal action, the right multiplication in the
trailing slot and the boundary all descend to the quotient.  Each case
here corrupts one entry of one of those inputs and expects an
`AssertionError`, on both the sorted-tuple fast path and the generic
quotient, with and without the trailing slot, over GF(5) and Q.
"""

import numpy as np
import pytest

from symcoh import resolution
from symcoh.fields import Field
from symcoh.hopf import cyclic_group_table, group_algebra
from symcoh.resolution import coinvariant_space, sym_resolution_complex
from symcoh.sparse import field_array

FIELDS = {"GF5": Field.prime(5), "Q": Field.rationals()}

# the column maps (see symcoh.sparse) of the ambient operators the checks
# project, by their names in `resolution`
CHAIN_MAP = "bar_chain_columns"
RIGHT_MULT = "right_mult_columns"


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


def _corrupt_chain(monkeypatch, degree, tail, d):
    """Change the entry of the degree-`degree` boundary that deletes slot 0
    of (0, 1, ..., degree) followed by zeros in the trailing slots."""
    original = getattr(resolution, CHAIN_MAP)
    tup = tuple(range(degree + 1)) + (0,) * tail

    def chain(h, n, t):
        op = original(h, n, t)
        if n != degree:
            return op
        return _bump_entry(h.field, op, _flat(tup[1:], d), _flat(tup, d))

    monkeypatch.setattr(resolution, CHAIN_MAP, chain)


def _corrupt_right_mult(monkeypatch, basis_element, col_tuple, d):
    """Change the entry of right multiplication by `basis_element` at the
    column of `col_tuple` and the row it maps that column to."""
    original = getattr(resolution, RIGHT_MULT)

    def right(h, c, slots):
        op = original(h, c, slots)
        if c != basis_element or slots != len(col_tuple):
            return op
        col = _flat(col_tuple, d)
        row = _flat(col_tuple[:-1] + (h.group_table[col_tuple[-1]][c],), d)
        return _bump_entry(h.field, op, row, col)

    monkeypatch.setattr(resolution, RIGHT_MULT, right)


def _unsectioned_distinct_tuple(h, n, tail, force_generic):
    """A tuple with distinct symmetric slots whose column the section does
    not use, so corrupting an operator there leaves the induced module
    alone and only the descent check can see it."""
    space = coinvariant_space(h, n, force_generic=force_generic, check=False, tail=tail)
    used = set(space.section.triples()[0].tolist())
    d = h.dim
    for idx in range(d ** space.slots):
        tup = tuple(int(x) for x in np.unravel_index(idx, (d,) * space.slots))
        if len(set(tup[:n + 1])) == n + 1 and idx not in used:
            return tup
    raise AssertionError("no unsectioned distinct tuple")


PATHS = [pytest.param(False, id="fast"), pytest.param(True, id="generic")]
TAILS = [pytest.param(0, id="tail0"), pytest.param(1, id="tail1")]


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("force_generic", PATHS)
@pytest.mark.parametrize("tail", TAILS)
def test_uncorrupted_checks_pass(field_name, force_generic, tail):
    h = kc3(FIELDS[field_name])
    coinvariant_space(h, 1, force_generic=force_generic, check=True, tail=tail)
    sym_resolution_complex(h, 2, force_generic=force_generic, check=True, tail=tail)


@pytest.mark.parametrize("what", ["projection", "section"])
@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("force_generic", PATHS)
@pytest.mark.parametrize("tail", TAILS)
def test_corrupted_quotient_is_caught(monkeypatch, what, field_name, force_generic, tail):
    h = kc3(FIELDS[field_name])
    _corrupt_space(monkeypatch, 1, what)
    with pytest.raises(AssertionError):
        coinvariant_space(h, 1, force_generic=force_generic, check=True, tail=tail)
    with pytest.raises(AssertionError):
        sym_resolution_complex(h, 2, force_generic=force_generic, check=True, tail=tail)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("force_generic", PATHS)
@pytest.mark.parametrize("tail", TAILS)
def test_corrupted_chain_map_is_caught(monkeypatch, field_name, force_generic, tail):
    h = kc3(FIELDS[field_name])
    _corrupt_chain(monkeypatch, 2, tail, h.dim)
    with pytest.raises(AssertionError):
        sym_resolution_complex(h, 2, force_generic=force_generic, check=True, tail=tail)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("force_generic", PATHS)
def test_corrupted_right_action_is_caught(monkeypatch, field_name, force_generic):
    h = kc3(FIELDS[field_name])
    tup = _unsectioned_distinct_tuple(h, 1, 1, force_generic)
    _corrupt_right_mult(monkeypatch, 1, tup, h.dim)
    with pytest.raises(AssertionError):
        coinvariant_space(h, 1, force_generic=force_generic, check=True, tail=1)
    with pytest.raises(AssertionError):
        sym_resolution_complex(h, 1, force_generic=force_generic, check=True, tail=1)
