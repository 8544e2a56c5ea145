"""Coordinate bookkeeping on tensor powers of the algebra.

A^(tensor t) is coordinatized by index tuples in lexicographic order
with the leftmost factor most significant; a cochain with values in an
m-dimensional module puts component (tuple, j) at flat(tuple) * m + j.
"""

from __future__ import annotations

import itertools

from .hopf import HopfAlgebra, iterated_comult
from .sparse import SparseMatrix


def flat(tup, d: int) -> int:
    idx = 0
    for t in tup:
        idx = idx * d + t
    return idx


def all_tuples(d: int, length: int):
    return itertools.product(range(d), repeat=length)


def bar_chain_diff(h: HopfAlgebra, n: int, tail: int) -> SparseMatrix:
    """The homogeneous chain map A^(n+1+tail) -> A^(n+tail): alternating
    counit deletions of slots 0..n; the `tail` trailing slots stay."""
    d = h.dim
    out = SparseMatrix(h.field, d ** (n + tail), d ** (n + 1 + tail))
    fld = h.field
    for tup in all_tuples(d, n + 1 + tail):
        col = flat(tup, d)
        sign = fld.one()
        for i in range(n + 1):
            eps = h.counit[tup[i]]
            if eps != 0:
                out.add_entry(flat(tup[:i] + tup[i + 1:], d), col, fld.mul(sign, eps))
            sign = fld.neg(sign)
    return out


def cochain_precompose(chain: SparseMatrix, m: int, field) -> SparseMatrix:
    """Turn a chain map V -> W into Hom(W, M) -> Hom(V, M) on flat coordinates."""
    out = SparseMatrix(field, chain.cols * m, chain.rows * m)
    for col_idx, col in enumerate(chain.cols_data):
        for row_idx, v in col.items():
            for j in range(m):
                out.add_entry(col_idx * m + j, row_idx * m + j, v)
    return out


def cochain_swap_sigma(field, d: int, slots: int, i: int, m: int) -> SparseMatrix:
    """The signed precomposition with the swap of tensor slots i-1 and i.

    (sigma_i f)(tup) = -f(tup with slots i-1, i exchanged); one entry per
    cochain coordinate.
    """
    size = (d ** slots) * m
    out = SparseMatrix(field, size, size)
    minus_one = field.neg(field.one())
    for tup in all_tuples(d, slots):
        swapped = list(tup)
        swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
        src = flat(tuple(swapped), d)
        dst = flat(tup, d)
        for j in range(m):
            out.add_entry(dst * m + j, src * m + j, minus_one)
    return out


def diagonal_action(h: HopfAlgebra, b: int, slots: int) -> SparseMatrix:
    """Left multiplication of b_b on A^(tensor slots) through the iterated
    comultiplication (one leg per slot)."""
    d = h.dim
    fld = h.field
    out = SparseMatrix(h.field, d ** slots, d ** slots)
    if h.group_like:
        row = h.group_table[b]
        one = fld.one()
        for tup in all_tuples(d, slots):
            out.cols_data[flat(tup, d)][flat(tuple(row[t] for t in tup), d)] = one
        return out
    legs = iterated_comult(h, b, slots - 1).coeffs
    for tup in all_tuples(d, slots):
        col = flat(tup, d)
        for leg_tuple, c in legs.items():
            # multiply slotwise: expand the product of b_leg and b_slot
            partial = [((), c)]
            for r in range(slots):
                cell = h.mult[leg_tuple[r]][tup[r]]
                partial = [(pt + (k,), fld.mul(pc, ck))
                           for pt, pc in partial for k, ck in cell.items()]
            for pt, pc in partial:
                if pc != 0:
                    out.add_entry(flat(pt, d), col, pc)
    return out


def last_slot_right_mult(h: HopfAlgebra, c: int, slots: int) -> SparseMatrix:
    """Right multiplication by b_c in the last of `slots` tensor slots."""
    d = h.dim
    out = SparseMatrix(h.field, d ** slots, d ** slots)
    for tup in all_tuples(d, slots):
        col = flat(tup, d)
        for k, v in h.mult[tup[-1]][c].items():
            out.add_entry(flat(tup[:-1] + (k,), d), col, v)
    return out
