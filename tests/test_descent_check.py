"""The array descent check of the coinvariant resolution agrees with the
tuple-by-tuple oracle on random small operators, passing and failing."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import descends_to_quotient
from symcoh.fields import Field
from symcoh.resolution import _descends_to_quotient
from symcoh.sparse import SparseMatrix, canonical

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
    """(field, d, slots, sym_slots, operator): a random operator, or one
    made to descend (each column the signed copy of its sorted column, zero
    on repeated symmetric slots), possibly with one entry changed."""
    field = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(1, 3))
    slots = draw(st.integers(1, 3))
    sym_slots = draw(st.integers(1, slots))
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
            head = tup[:sym_slots]
            if len(set(head)) < sym_slots:
                continue
            inversions = sum(head[a] > head[b] for a in range(sym_slots)
                             for b in range(a + 1, sym_slots))
            src = _flat(sorted(head) + tup[sym_slots:], d)
            sign = field.one() if inversions % 2 == 0 else field.neg(field.one())
            entries += [(i, j, field.mul(sign, v)) for i, v in by_column[src]]
        op = SparseMatrix(field, rows, size, list(zip(*entries)) if entries else None)
    if draw(st.booleans()):
        op = op + SparseMatrix(field, rows, size, ([draw(st.integers(0, rows - 1))],
                                                   [draw(st.integers(0, size - 1))],
                                                   [field.one()]))
    return field, d, slots, sym_slots, op


@settings(max_examples=300, deadline=None)
@given(operators())
def test_array_descent_check_matches_oracle(case):
    field, d, slots, sym_slots, op = case
    triples = canonical(field, *op.triples())
    assert _descends_to_quotient(field, d, slots, sym_slots, triples) == \
        descends_to_quotient(field, d, slots, sym_slots, op)


def test_both_outcomes_are_generated():
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(operators())
    def collect(case):
        field, d, slots, sym_slots, op = case
        seen.add(descends_to_quotient(field, d, slots, sym_slots, op))

    collect()
    assert seen == {True, False}
