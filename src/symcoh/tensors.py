"""Coordinate bookkeeping on tensor powers of the algebra: the flat-index
layer.

A^(tensor t) is coordinatized by index tuples in lexicographic order
with the leftmost factor most significant; a cochain with values in an
m-dimensional module puts component (tuple, j) at flat(tuple) * m + j.
Digit k of a flat index idx on t slots is idx // d**(t-1-k) % d, so the
operators below are built as numpy arithmetic on arrays of flat indices.
Each operator has one column map, that of its transpose
(`columns(idx) -> (rows, position in idx, vals)`, see sparse.py): the
diagonal action of a basis element, and the counit-deletion chain map,
whose transpose is a weighted slot insertion (`insertion_columns`, which
also prepends the unit in the contracting homotopy).  The resolution's
descent check reads the induced maps off these column maps, and the
equivariant basis reads the whole of each transposed diagonal action as
the left factor of its Kronecker products.
The cochain operators (precomposition with a chain map, X tensor id_M
from the canonical triples of X, signed slot swaps) are SparseMatrix
triples built by the same arithmetic.  No operator here multiplies from
the right: bimodule coefficients reach the homogeneous constructions as
the left module ad M (see bar.py).

The diagonal action of a group element permutes flat indices, so its
transpose is that of the inverse element, computed only on the columns
asked for; for any other algebra it is the transpose of the action of
the tensor power of the regular module, each level's kron terms charged
first, and the caller passes the list that keeps the levels formed for
one slot count for the next.  The counit is read off its sparse map.
"""

from __future__ import annotations

import numpy as np

from .hopf import HopfAlgebra
from .modules import regular_left_module, tensor_actions, tensor_module, trivial_module
from .sparse import SparseMatrix, field_array


def flat(tup, d: int) -> int:
    idx = 0
    for t in tup:
        idx = idx * d + t
    return idx


def swap_slots(idx: np.ndarray, d: int, slots: int, i: int) -> np.ndarray:
    """Flat indices of the tuples with slots i-1 and i exchanged."""
    high = d ** (slots - i)
    low = d ** (slots - 1 - i)
    a = idx // high % d
    b = idx // low % d
    return idx + (b - a) * high + (a - b) * low


def insertion_columns(d: int, n: int, xs, weights):
    """Column map of the map A^(tensor n) -> A^(tensor n+1) that takes a
    tuple to the sum of weights[i, k] times the tuple with xs[k] inserted
    before slot i, for i < len(weights).  The entries of a column are not
    sorted by row, and those that meet are left for the caller to sum."""
    place = d ** (n - np.arange(len(weights), dtype=np.int64))  # d^(digits after the insertion)

    def columns(idx):
        high, low = np.divmod(idx[:, None], place)
        rows = ((high * d)[:, :, None] + xs) * place[:, None] + low[:, :, None]
        return (rows.reshape(-1), np.repeat(np.arange(len(idx), dtype=np.int64), weights.size),
                np.broadcast_to(weights, rows.shape).reshape(-1))

    return columns


def bar_chain_transpose_columns(h: HopfAlgebra, n: int):
    """Column map of the transpose of the homogeneous chain map A^(n+1) ->
    A^n, the alternating counit deletions of slots 0..n: the insertion of
    every x before slot i with weight (-1)^i eps(x), for i = 0..n."""
    _row, xs, eps = h.maps.counit.triples()
    return insertion_columns(h.dim, n, xs, np.stack([eps, h.field.neg(eps)])[np.arange(n + 1) % 2])


def tensor_identity_triples(rows, cols, vals, m: int):
    """Canonical triples of X tensor id_m from the canonical triples of X:
    the entry (r, c) gives the entries (r*m + k, c*m + k), k < m.  Taken by
    c, then k, then r, they are in canonical order: each run of X's triples
    with one c is repeated once per k."""
    if m == 1:
        return rows, cols, vals
    runs = np.flatnonzero(np.concatenate(([True], cols[1:] != cols[:-1])))
    length = np.diff(np.append(runs, len(cols)))
    first = np.repeat(runs, length)  # start of the run of each entry
    k = np.arange(m, dtype=np.int64)
    at = ((m - 1) * first + np.arange(len(cols)))[:, None] + k * np.repeat(length, length)[:, None]
    out = [np.empty(len(cols) * m, dtype=a.dtype) for a in (rows, cols, vals)]
    out[0][at] = rows[:, None] * m + k
    out[1][at] = cols[:, None] * m + k
    out[2][at] = vals[:, None]
    return out


def cochain_precompose(chain: SparseMatrix, m: int) -> SparseMatrix:
    """Turn a chain map V -> W into Hom(W, M) -> Hom(V, M) on flat
    coordinates: its transpose tensor id_M (`tensor_identity_triples`)."""
    c, r, v = chain.transpose().triples()  # sorted by (r, c)
    return SparseMatrix(chain.field, chain.cols * m, chain.rows * m,
                        tensor_identity_triples(c, r, v, m))


def cochain_swap_sigmas(field, d: int, slots: int, m: int) -> list:
    """The signed precompositions with the swaps of tensor slots i-1 and i,
    i = 1..slots-1: (sigma_i f)(tup) = -f(tup with slots i-1, i exchanged).

    Each has one entry per cochain coordinate, so its triples come in
    canonical order by column (the swap is an involution), its columns
    are 0..size-1 and its values -1: all of them share those two arrays.
    """
    cols = np.arange(d ** slots * m, dtype=np.int64)
    tup, j = np.divmod(cols, m)
    minus = np.repeat(field_array(field, [field.neg(field.one())]), len(cols))
    return [SparseMatrix(field, len(cols), len(cols),
                         (swap_slots(tup, d, slots, i) * m + j, cols, minus))
            for i in range(1, slots)]


def _slotwise(row: np.ndarray, d: int, slots: int):
    """Column map of the permutation of flat indices applying the map `row`
    of basis indices to every slot, by table lookups of up to 4096 entries."""
    width, table = 1, row
    while width < slots and d ** (width + 1) <= 4096:
        width, table = width + 1, (table[:, None] * d + row).reshape(-1)
    blocks = [table] * (slots // width) + [row] * (slots % width)  # least significant first

    def columns(idx):
        out, rest, place = np.zeros(len(idx), dtype=np.int64), idx, 1
        for look in blocks:
            rest, part = np.divmod(rest, len(look))
            out, place = out + look[part] * place, place * len(look)
        return out, np.arange(len(idx), dtype=np.int64), None

    return columns


def diagonal_columns(h: HopfAlgebra, elements, slots: int, levels: list):
    """The transposed column maps of the diagonal actions of the basis
    elements `elements` on A^(tensor slots), yielded one at a time.
    For a group algebra: the permutation of flat indices that left
    multiplication by the inverse element on every slot induces.
    Otherwise: the transpose of the action of the tensor power of the
    regular module (the counit on 0 slots), its last level formed one
    element at a time, each charged first (modules.tensor_actions).
    `levels`, a list kept across calls, holds the whole levels formed so
    far (level k on k slots), so that each is formed once: a call for the
    most slots first leaves the levels that the calls for fewer read."""
    if h.group_like:
        table = np.asarray(h.group_table, dtype=np.int64)
        for b in elements:
            yield _slotwise(table[h.group_inverse[b]], h.dim, slots)
        return
    regular = regular_left_module(h)
    if not levels:
        levels.append(trivial_module(h))
    while len(levels) < slots:
        levels.append(tensor_module(h, levels[-1], regular))
    for b in elements:
        action = (levels[slots].action[b] if len(levels) > slots
                  else tensor_actions(h, levels[-1], regular, [b])[0])
        yield action.transpose().column_map()
