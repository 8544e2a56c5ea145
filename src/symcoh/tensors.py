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
other algebra it is that of the tensor power of the regular module, built
level by level, each level's kron terms charged before they are formed.
"""

from __future__ import annotations

import itertools

import numpy as np

from .hopf import HopfAlgebra
from .modules import regular_left_module, tensor_actions, tensor_module, trivial_module
from .sparse import SparseMatrix, apply_columns, field_array, kron_triples


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


def diagonal_columns(h: HopfAlgebra, elements, slots: int):
    """Column maps of the diagonal actions of the basis elements
    `elements` on A^(tensor slots), yielded one at a time.  For a group
    algebra each is the permutation of flat indices that left
    multiplication on every slot induces, all read from one digits array.
    Otherwise they are the actions of the slots-fold tensor power of the
    regular module (the counit on 0 slots): every level below the last is
    built whole, and the last one element at a time, each charged before
    it is formed (modules.tensor_actions)."""
    if h.group_like:
        table = np.asarray(h.group_table, dtype=np.int64)
        digs = digits(np.arange(h.dim ** slots, dtype=np.int64), h.dim, slots)
        for b in elements:  # column j goes to row perm[j]
            perm = undigits(table[b][digs], h.dim)
            yield lambda idx, perm=perm: (perm[idx], np.arange(len(idx), dtype=np.int64), None)
        return
    regular = regular_left_module(h)
    power = trivial_module(h)
    for _ in range(slots - 1):
        power = tensor_module(h, power, regular)
    for b in elements:
        action = tensor_actions(h, power, regular, [b])[0] if slots else power.action[b]
        yield action.column_map()
