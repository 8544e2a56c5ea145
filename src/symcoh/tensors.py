"""Coordinate bookkeeping on tensor powers of the algebra: the flat-index
layer.

A^(tensor t) is coordinatized by index tuples in lexicographic order
with the leftmost factor most significant; a cochain with values in an
m-dimensional module puts component (tuple, j) at flat(tuple) * m + j.
Digit k of a flat index idx on t slots is idx // d**(t-1-k) % d, so the
operators below are built as numpy arithmetic on arrays of flat indices.
Each has a column map `columns(idx) -> (rows, position in idx, vals)`
(see sparse.py) and a SparseMatrix form for the cochain builders.
"""

from __future__ import annotations

import itertools

import numpy as np

from .hopf import HopfAlgebra, iterated_comult
from .sparse import SparseMatrix, apply_columns, field_array


def flat(tup, d: int) -> int:
    idx = 0
    for t in tup:
        idx = idx * d + t
    return idx


def all_tuples(d: int, length: int):
    return itertools.product(range(d), repeat=length)


def digits(idx: np.ndarray, d: int, slots: int) -> np.ndarray:
    """The digits of flat indices, shape (slots, len(idx)), most significant first."""
    powers = d ** np.arange(slots - 1, -1, -1, dtype=np.int64)
    return idx[None, :] // powers[:, None] % d


def undigits(digs: np.ndarray, d: int) -> np.ndarray:
    """Flat indices of the digit columns of digs (the inverse of digits)."""
    idx = np.zeros(digs.shape[1], dtype=np.int64)
    for row in digs:
        idx = idx * d + row
    return idx


def delete_slot(idx: np.ndarray, d: int, slots: int, i: int) -> np.ndarray:
    """Flat indices on slots-1 slots: the tuples with slot i removed."""
    low = d ** (slots - 1 - i)
    return idx // (low * d) * low + idx % low


def swap_slots(idx: np.ndarray, d: int, slots: int, i: int) -> np.ndarray:
    """Flat indices of the tuples with slots i-1 and i exchanged."""
    high = d ** (slots - i)
    low = d ** (slots - 1 - i)
    a = idx // high % d
    b = idx // low % d
    return idx + (b - a) * high + (a - b) * low


def all_columns(size: int):
    """Triples of the identity on `size` coordinates."""
    idx = np.arange(size, dtype=np.int64)
    return idx, idx, None


def permutation_columns(perm: np.ndarray):
    """Column map of the permutation matrix sending column j to row perm[j]."""
    def columns(idx):
        return perm[idx], np.arange(len(idx), dtype=np.int64), None
    return columns


def bar_chain_columns(h: HopfAlgebra, n: int, tail: int):
    """Column map of the homogeneous chain map A^(n+1+tail) -> A^(n+tail):
    alternating counit deletions of slots 0..n; the `tail` trailing slots
    stay.  Entries that cancel are left for the caller to sum."""
    d = h.dim
    slots = n + 1 + tail
    fld = h.field
    eps = field_array(fld, h.counit)
    signed = [eps, field_array(fld, [fld.neg(e) for e in h.counit])]
    live = np.flatnonzero(eps != 0)

    def columns(idx):
        rows, pos, vals = [], [], []
        at = np.arange(len(idx), dtype=np.int64)
        for i in range(n + 1):
            digit = idx // d ** (slots - 1 - i) % d
            keep = np.isin(digit, live) if len(live) < d else slice(None)
            rows.append(delete_slot(idx, d, slots, i)[keep])
            pos.append(at[keep])
            vals.append(signed[i % 2][digit[keep]])
        return np.concatenate(rows), np.concatenate(pos), np.concatenate(vals)

    return columns


def _sparse(field, rows: int, cols: int, columns) -> SparseMatrix:
    """The operator with the given column map as a sparse matrix."""
    return SparseMatrix.from_triples(field, rows, cols,
                                     apply_columns(field, columns, all_columns(cols)))


def bar_chain_diff(h: HopfAlgebra, n: int, tail: int) -> SparseMatrix:
    """The chain map of bar_chain_columns as a sparse matrix."""
    d = h.dim
    return _sparse(h.field, d ** (n + tail), d ** (n + 1 + tail), bar_chain_columns(h, n, tail))


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


def group_diagonal_perm(h: HopfAlgebra, b: int, slots: int) -> np.ndarray:
    """Left multiplication of the group element b on every slot, as the
    permutation of flat indices it induces."""
    table = np.asarray(h.group_table, dtype=np.int64)
    idx = np.arange(h.dim ** slots, dtype=np.int64)
    return undigits(table[b][digits(idx, h.dim, slots)], h.dim)


def diagonal_action(h: HopfAlgebra, b: int, slots: int) -> SparseMatrix:
    """Left multiplication of b_b on A^(tensor slots) through the iterated
    comultiplication (one leg per slot)."""
    d = h.dim
    fld = h.field
    if h.group_like:
        return _sparse(fld, d ** slots, d ** slots,
                       permutation_columns(group_diagonal_perm(h, b, slots)))
    out = SparseMatrix(h.field, d ** slots, d ** slots)
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


def diagonal_columns(h: HopfAlgebra, b: int, slots: int):
    """Column map of diagonal_action; a permutation for group algebras."""
    if h.group_like:
        return permutation_columns(group_diagonal_perm(h, b, slots))
    return diagonal_action(h, b, slots).column_map()


def right_mult_columns(h: HopfAlgebra, c: int, slots: int):
    """Column map of right multiplication by b_c in the last of `slots`
    tensor slots."""
    d = h.dim
    fld = h.field
    # per last digit t: the digits k of b_t b_c and their coefficients
    cells = [(np.array(list(h.mult[t][c]), dtype=np.int64),
              field_array(fld, list(h.mult[t][c].values()))) for t in range(d)]

    def columns(idx):
        last = idx % d
        rows, pos, vals = [idx[:0]], [idx[:0]], [field_array(fld, [])]
        for t, (ks, cs) in enumerate(cells):
            at = np.flatnonzero(last == t)
            for k, v in zip(ks, cs):
                rows.append(idx[at] - t + k)
                pos.append(at)
                vals.append(np.full(len(at), v, dtype=cs.dtype))
        return np.concatenate(rows), np.concatenate(pos), np.concatenate(vals)

    return columns


def last_slot_right_mult(h: HopfAlgebra, c: int, slots: int) -> SparseMatrix:
    """Right multiplication by b_c in the last of `slots` tensor slots."""
    size = h.dim ** slots
    return _sparse(h.field, size, size, right_mult_columns(h, c, slots))
