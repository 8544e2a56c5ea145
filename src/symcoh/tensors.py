"""Coordinate bookkeeping on tensor powers of the algebra: the flat-index
layer.

A^(tensor t) is coordinatized by index tuples in lexicographic order
with the leftmost factor most significant; a cochain with values in an
m-dimensional module puts component (tuple, j) at flat(tuple) * m + j.
Digit k of a flat index idx on t slots is idx // d**(t-1-k) % d, so the
operators below are built as numpy arithmetic on arrays of flat indices.
Each has a column map `columns(idx) -> (rows, position in idx, vals)`
(see sparse.py): the diagonal action and the counit-deletion chain map,
each with its transpose.
The cochain operators (precomposition with a chain map, X tensor id_M
from the canonical triples of X, signed slot swaps) are SparseMatrix
triples built by the same arithmetic.  No operator here multiplies from
the right: bimodule coefficients reach the homogeneous constructions as
the left module ad M (see bar.py).

The diagonal action of a group element permutes flat indices, computed
only on the columns asked for; for any other algebra it is that of the
tensor power of the regular module, each level's kron terms charged first,
and the caller passes the list that keeps the levels formed for one slot
count for the next.  The counit is read off its sparse map.
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
    eps = h.maps.counit.to_dense().data[0]
    signed = np.stack([eps, h.field.neg(eps)])
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


def bar_chain_transpose_columns(h: HopfAlgebra, n: int):
    """Column map of the transpose of bar_chain_columns(h, n), A^n -> A^(n+1):
    (-1)^i eps(x) at the tuple with x inserted before slot i, for i = 0..n
    and every x with eps(x) != 0.  The entries of a column are not sorted
    by row, and those that meet are left for the caller to sum."""
    d = h.dim
    _row, xs, eps = h.maps.counit.triples()
    signed = np.stack([eps, h.field.neg(eps)])[np.arange(n + 1) % 2]
    place = d ** (n - np.arange(n + 1, dtype=np.int64))  # d^(digits after the insertion)

    def columns(idx):
        high, low = np.divmod(idx[:, None], place)
        rows = ((high * d)[:, :, None] + xs) * place[:, None] + low[:, :, None]
        return (rows.reshape(-1), np.repeat(np.arange(len(idx), dtype=np.int64), signed.size),
                np.broadcast_to(signed, rows.shape).reshape(-1))

    return columns


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
    canonical order by column (the swap is an involution), and its columns
    are 0..size-1: all of them share that one array.
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
    """(column map, transposed column map) of the diagonal actions of the
    basis elements `elements` on A^(tensor slots), yielded one at a time.
    For a group algebra: the permutation of flat indices that left
    multiplication on every slot induces, and that of the inverse element.
    Otherwise: the action of the tensor power of the regular module (the
    counit on 0 slots), its last level formed one element at a time, each
    charged first (modules.tensor_actions), and its transpose when asked.
    `levels`, a list kept across calls, holds the whole levels formed so
    far (level k on k slots), so that each is formed once: a call for the
    most slots first leaves the levels that the calls for fewer read."""
    if h.group_like:
        table = np.asarray(h.group_table, dtype=np.int64)
        for b in elements:
            yield (_slotwise(table[b], h.dim, slots),
                   _slotwise(table[h.group_inverse[b]], h.dim, slots))
        return
    regular = regular_left_module(h)
    if not levels:
        levels.append(trivial_module(h))
    while len(levels) < slots:
        levels.append(tensor_module(h, levels[-1], regular))
    for b in elements:
        action = (levels[slots].action[b] if len(levels) > slots
                  else tensor_actions(h, levels[-1], regular, [b])[0])
        yield action.column_map(), lambda idx, a=action: a.transpose().column_map()(idx)
