"""Coordinate bookkeeping on tensor powers of the algebra: the flat-index
layer.

A^(tensor t) is coordinatized by index tuples in lexicographic order
with the leftmost factor most significant; a cochain with values in an
m-dimensional module puts component (tuple, j) at flat(tuple) * m + j.
Digit k of a flat index idx on t slots is idx // d**(t-1-k) % d, so the
operators below are built as numpy arithmetic on arrays of flat indices.
Each has a column map `columns(idx) -> (rows, position in idx, vals)`
(see sparse.py).  The cochain operators (precomposition with the
counit-deletion chain map, signed slot swaps) are SparseMatrix triples
built by the same arithmetic.

The diagonal action of a group element permutes flat indices.  For any
other algebra it is a dense d^t x d^t array: the Sweedler tensor of the
acting element contracted with the structure constants, one slot at a
time (diagonal_action); its callers stay at t slots with d^t <= 4096.
"""

from __future__ import annotations

import itertools

import numpy as np

from .complexes import DENSE_RANK_CELLS
from .hopf import HopfAlgebra, iterated_comult
from .sparse import SparseMatrix, apply_columns, dense_columns, field_array


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


def bar_chain_diff(h: HopfAlgebra, n: int, tail: int) -> SparseMatrix:
    """The chain map of bar_chain_columns as a sparse matrix."""
    d = h.dim
    cols = d ** (n + 1 + tail)
    return SparseMatrix(
        h.field, d ** (n + tail), cols,
        apply_columns(h.field, bar_chain_columns(h, n, tail), all_columns(cols)))


def kron_identity(rows, cols, vals, m: int):
    """Triples of (rows, cols, vals) tensor the m x m identity."""
    j = np.arange(m, dtype=np.int64)
    return ((rows[:, None] * m + j).reshape(-1), (cols[:, None] * m + j).reshape(-1),
            None if vals is None else np.repeat(vals, m))


def cochain_precompose(chain: SparseMatrix, m: int) -> SparseMatrix:
    """Turn a chain map V -> W into Hom(W, M) -> Hom(V, M) on flat coordinates."""
    r, c, v = chain.triples()
    return SparseMatrix(chain.field, chain.cols * m, chain.rows * m,
                        kron_identity(c, r, v, m))


def cochain_swap_sigma(field, d: int, slots: int, i: int, m: int) -> SparseMatrix:
    """The signed precomposition with the swap of tensor slots i-1 and i.

    (sigma_i f)(tup) = -f(tup with slots i-1, i exchanged); one entry per
    cochain coordinate.
    """
    idx = np.arange(d ** slots, dtype=np.int64)
    minus = field_array(field, [field.neg(field.one())] * len(idx))
    return SparseMatrix(field, len(idx) * m, len(idx) * m,
                        kron_identity(idx, swap_slots(idx, d, slots, i), minus, m))


def group_diagonal_perm(h: HopfAlgebra, b: int, slots: int) -> np.ndarray:
    """Left multiplication of the group element b on every slot, as the
    permutation of flat indices it induces."""
    table = np.asarray(h.group_table, dtype=np.int64)
    idx = np.arange(h.dim ** slots, dtype=np.int64)
    return undigits(table[b][digits(idx, h.dim, slots)], h.dim)


def _structure_array(h: HopfAlgebra, dtype) -> np.ndarray:
    """mult[l, k, t]: the coefficient of b_k in b_l b_t."""
    d = h.dim
    out = np.full((d, d, d), h.field.zero(), dtype=dtype)
    for l in range(d):
        for t in range(d):
            for k, c in h.mult[l][t].items():
                out[l, k, t] = c
    return out


def diagonal_action(h: HopfAlgebra, b: int, slots: int) -> np.ndarray:
    """Left multiplication of b_b on A^(tensor slots) through the iterated
    comultiplication, as a dense d^slots x d^slots array (entry [out, in]).

    Starts from the Sweedler tensor of b_b and contracts its leading leg
    with the structure constants once per slot, reducing after each step.
    Each step sums d products of reduced scalars, so int64 is exact while
    d (p-1)^2 < 2^63; above that the steps use Python ints, and over Q
    Fractions.
    """
    d = h.dim
    fld = h.field
    assert d ** (2 * slots) <= DENSE_RANK_CELLS, "dense diagonal action over the cell limit"
    exact_int64 = not fld.is_rational and d * (fld.p - 1) ** 2 < 2 ** 63
    dtype = np.int64 if exact_int64 else object
    mult = _structure_array(h, dtype)
    out = np.full((d,) * slots, fld.zero(), dtype=dtype)
    for legs, c in iterated_comult(h, b, slots - 1).coeffs.items():
        out[legs] = c
    for _ in range(slots):
        # the leading leg l times the input digit t gives the output digit
        # k; the pair of axes (k, t) goes to the end
        out = np.tensordot(out, mult, axes=([0], [0]))
        if not fld.is_rational:
            out %= fld.p
    # axes (k_0, t_0, k_1, t_1, ...) -> (k_0, k_1, ..., t_0, t_1, ...)
    out = out.transpose(list(range(0, 2 * slots, 2)) + list(range(1, 2 * slots, 2)))
    return out.reshape(d ** slots, d ** slots).astype(np.int64 if fld.int64_products else object)


def diagonal_columns(h: HopfAlgebra, b: int, slots: int):
    """Column map of the diagonal action of b_b; a permutation for group
    algebras, read from the dense diagonal_action otherwise."""
    if h.group_like:
        return permutation_columns(group_diagonal_perm(h, b, slots))
    return dense_columns(diagonal_action(h, b, slots))


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
