"""The descent criterion of the coinvariant resolution, X = (X . section) .
projection with X formed transposed on the support of the projection,
agrees with the tuple-by-tuple oracle on random small operators, passing
and failing, and where it passes the map it returns is X . section.
Every tensor slot is permuted, as in the resolution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import descends_to_quotient
from symcoh.fields import Field
from symcoh import resolution
from symcoh.resolution import _descend, _sorted_tuple_coinvariants
from symcoh.sparse import SparseMatrix

FIELDS = [Field.prime(2), Field.prime(3), Field.prime(5), Field.rationals()]


def _digits(idx, d, slots):
    return [idx // d ** (slots - 1 - k) % d for k in range(slots)]


def _flat(tup, d):
    idx = 0
    for t in tup:
        idx = idx * d + t
    return idx


@st.composite
def operators(draw):
    """(field, d, slots, operator): a random operator, or one made to
    descend (each column the signed copy of its sorted column, zero on
    repeated slots), possibly with one entry changed."""
    field = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(1, 3))
    slots = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 3))
    size = d ** slots
    values = st.integers(-2, 2).map(field.from_int) if not field.is_rational else \
        st.fractions(min_value=-2, max_value=2, max_denominator=3).map(Fraction)
    entries = [(i, j, draw(values)) for j in range(size) for i in range(rows)
               if draw(st.booleans())]
    op = SparseMatrix(field, rows, size, list(zip(*entries)) if entries else None)
    if draw(st.booleans()):
        by_column = [[] for _ in range(size)]
        for i, j, v in zip(*(a.tolist() for a in op.triples())):
            by_column[j].append((i, v))
        entries = []
        for j in range(size):
            tup = _digits(j, d, slots)
            if len(set(tup)) < slots:
                continue
            inversions = sum(tup[a] > tup[b] for a in range(slots) for b in range(a + 1, slots))
            src = _flat(sorted(tup), d)
            sign = field.one() if inversions % 2 == 0 else field.neg(field.one())
            entries += [(i, j, field.mul(sign, v)) for i, v in by_column[src]]
        op = SparseMatrix(field, rows, size, list(zip(*entries)) if entries else None)
    if draw(st.booleans()):
        op = op + SparseMatrix(field, rows, size, ([draw(st.integers(0, rows - 1))],
                                                   [draw(st.integers(0, size - 1))],
                                                   [field.one()]))
    return field, d, slots, op


def _descends(field, d, slots, op) -> bool:
    """The resolution's criterion for op, a map out of A^(tensor slots),
    with the identity as target: op == (op . section) . P.  Where it
    passes, the induced map it returns must be op . section."""
    projection, section, labels = _sorted_tuple_coinvariants(field, d, slots)
    if not labels:  # the coinvariants vanish: only zero descends
        return op.is_zero()
    try:
        induced = _descend(field, op.transpose().column_map(),
                           SparseMatrix.identity(field, op.rows), section, projection,
                           "does not descend")
    except AssertionError:
        return False
    assert induced == op @ section
    return True


@settings(max_examples=300, deadline=None)
@given(operators())
def test_array_descent_check_matches_oracle(case):
    field, d, slots, op = case
    assert _descends(field, d, slots, op) == descends_to_quotient(field, d, slots, slots, op)


@settings(max_examples=100, deadline=None)
@given(operators())
def test_batched_descent_check_matches_oracle(case):
    # with no room under the cell limit, each column of the target is a
    # batch of its own
    field, d, slots, op = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "DENSE_RANK_CELLS", 0)
        assert _descends(field, d, slots, op) == descends_to_quotient(field, d, slots, slots, op)


def test_both_outcomes_are_generated():
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(operators())
    def collect(case):
        field, d, slots, op = case
        seen.add(descends_to_quotient(field, d, slots, slots, op))

    collect()
    assert seen == {True, False}
