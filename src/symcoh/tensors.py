"""Coordinate bookkeeping on tensor powers of the algebra: the flat-index
layer.

A^(tensor t) is coordinatized by index tuples in lexicographic order
with the leftmost factor most significant; a cochain with values in an
m-dimensional module puts component (tuple, j) at flat(tuple) * m + j.
Digit k of a flat index idx on t slots is idx // d**(t-1-k) % d, so the
operators below are built as numpy arithmetic on arrays of flat indices.
Each has a column map `columns(idx) -> (rows, position in idx, vals)`
(see sparse.py): the diagonal action and the counit-deletion chain map.
The cochain operators (precomposition with that chain map, signed slot
swaps) are SparseMatrix triples built by the same arithmetic.  No
operator here multiplies from the right: bimodule coefficients reach the
homogeneous constructions as the left module ad M (see bar.py).

The diagonal action of a group element permutes flat indices.  For any
other algebra it is a dense d^t x d^t array: the Sweedler tensor of the
acting element contracted with the structure constants, one slot at a
time (diagonal_action).  An array over DENSE_RANK_CELLS cells is refused
with BudgetExceeded before it is built.
"""

from __future__ import annotations

import itertools

import numpy as np

from .complexes import DENSE_RANK_CELLS
from .errors import BudgetExceeded
from .hopf import HopfAlgebra, iterated_comult, multiplication_array
from .sparse import SparseMatrix, apply_columns, dense_columns, field_array, kron_triples


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


def bar_chain_columns(h: HopfAlgebra, n: int):
    """Column map of the homogeneous chain map A^(n+1) -> A^n: alternating
    counit deletions of slots 0..n.  The entries of each column come sorted
    by row; entries that cancel are left for the caller to sum."""
    d = h.dim
    slots = n + 1
    fld = h.field
    eps = field_array(fld, h.counit)
    signed = np.stack([eps, field_array(fld, [fld.neg(e) for e in h.counit])])
    alive = eps.astype(bool)
    place = d ** (slots - 1 - np.arange(n + 1, dtype=np.int64))  # of slots 0..n

    def columns(idx):
        rows = np.stack([delete_slot(idx, d, slots, i) for i in range(n + 1)], axis=1)
        # per column, the deleted slot of each entry in the order of its row
        slot = np.argsort(rows, axis=1, kind="stable")
        rows = np.take_along_axis(rows, slot, axis=1).reshape(-1)
        digit = place[slot]
        np.floor_divide(idx[:, None], digit, out=digit)
        digit %= d
        vals = signed[slot % 2, digit].reshape(-1)
        pos = np.repeat(np.arange(len(idx), dtype=np.int64), n + 1)
        live = alive[digit].reshape(-1)
        if live.all():
            return rows, pos, vals
        return rows[live], pos[live], vals[live]

    return columns


def bar_chain_diff(h: HopfAlgebra, n: int) -> SparseMatrix:
    """The chain map of bar_chain_columns as a sparse matrix; its triples
    come in canonical order up to the cancelling entries."""
    d = h.dim
    cols = d ** (n + 1)
    return SparseMatrix(h.field, d ** n, cols,
                        apply_columns(h.field, bar_chain_columns(h, n), all_columns(cols)))


def cochain_precompose(chain: SparseMatrix, m: int) -> SparseMatrix:
    """Turn a chain map V -> W into Hom(W, M) -> Hom(V, M) on flat coordinates.

    The entry (w, v) of the chain map gives the entries (v*m + k, w*m + k),
    k < m.  Taken by w, then k, then v, they are in canonical order: each
    run of the transpose's triples with one w is repeated once per k.
    """
    c, r, v = chain.transpose().triples()  # sorted by (r, c)
    runs = np.flatnonzero(np.concatenate(([True], r[1:] != r[:-1])))
    length = np.diff(np.append(runs, len(r)))
    first = np.repeat(runs, length)  # start of the run of each entry
    k = np.arange(m, dtype=np.int64)
    at = ((m - 1) * first + np.arange(len(r)))[:, None] + k * np.repeat(length, length)[:, None]
    out = [np.empty(len(r) * m, dtype=a.dtype) for a in (c, r, v)]
    out[0][at] = c[:, None] * m + k
    out[1][at] = r[:, None] * m + k
    out[2][at] = v[:, None]
    return SparseMatrix(chain.field, chain.cols * m, chain.rows * m, out)


def cochain_swap_sigma(field, d: int, slots: int, i: int, m: int) -> SparseMatrix:
    """The signed precomposition with the swap of tensor slots i-1 and i.

    (sigma_i f)(tup) = -f(tup with slots i-1, i exchanged); one entry per
    cochain coordinate, so its triples come in canonical order by column
    (the swap is an involution).
    """
    idx = np.arange(d ** slots, dtype=np.int64)
    minus = field_array(field, [field.neg(field.one())] * len(idx))
    return SparseMatrix(field, len(idx) * m, len(idx) * m,
                        kron_triples(field, (swap_slots(idx, d, slots, i), idx, minus),
                                     all_columns(m), (m, m)))


def diagonal_action(h: HopfAlgebra, b: int, slots: int) -> np.ndarray:
    """Left multiplication of b_b on A^(tensor slots) through the iterated
    comultiplication, as a dense d^slots x d^slots array (entry [out, in]).

    Starts from the Sweedler tensor of b_b and contracts its leading leg
    with the structure constants once per slot, one leg value at a time,
    reducing after every term: a product of reduced scalars plus a reduced
    accumulator stays below 2^63 for every p a Field accepts.  Over Q the
    entries are ints and Fractions.  On 0 slots it is the counit of b_b.
    """
    d = h.dim
    fld = h.field
    if d ** (2 * slots) > DENSE_RANK_CELLS:
        raise BudgetExceeded(
            f"diagonal action on {slots} slots needs a dense {d ** slots} x {d ** slots} "
            f"array, over the limit of {DENSE_RANK_CELLS} cells")
    mult = multiplication_array(h)  # [k, l, t]: b_l b_t
    out = np.full((d,) * slots, fld.zero(), dtype=fld.dtype)
    legs = iterated_comult(h, b, slots - 1).coeffs if slots else {(): h.counit[b]}
    for leg, c in legs.items():
        out[leg] = c
    for _ in range(slots):
        # the leading leg l times the input digit t gives the output digit
        # k; the pair of axes (k, t) goes to the end
        acc = np.full(out.shape[1:] + (d, d), fld.zero(), dtype=fld.dtype)
        for l in range(d):
            acc += np.multiply.outer(out[l], mult[:, l])
            fld.reduce(acc, out=acc)
        out = acc
    # axes (k_0, t_0, k_1, t_1, ...) -> (k_0, k_1, ..., t_0, t_1, ...)
    out = out.transpose(list(range(0, 2 * slots, 2)) + list(range(1, 2 * slots, 2)))
    return out.reshape(d ** slots, d ** slots)


def diagonal_columns(h: HopfAlgebra, elements, slots: int):
    """Column maps of the diagonal actions of the basis elements
    `elements`, yielded one at a time.  For a group algebra each is the
    permutation of flat indices that left multiplication on every slot
    induces, all read from one digits array; otherwise each is read from
    the dense diagonal_action."""
    if h.group_like:
        table = np.asarray(h.group_table, dtype=np.int64)
        digs = digits(np.arange(h.dim ** slots, dtype=np.int64), h.dim, slots)
        for b in elements:
            yield permutation_columns(undigits(table[b][digs], h.dim))
    else:
        for b in elements:
            yield dense_columns(diagonal_action(h, b, slots))

