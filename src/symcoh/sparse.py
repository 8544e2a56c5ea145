"""Sparse matrices for ambient tensor-power operators.

Differentials, symmetric-group operators and equivariant bases on
A^(tensor n) coordinates are far too sparse to materialize densely.  A
SparseMatrix stores its entries in one form, canonical triples: parallel
arrays (rows, cols, vals) sorted by (col, row), with duplicates summed
and zeros dropped.  Values are in the array form of the field
(`Field.array`: int64 reduced mod p, or ints and Fractions), and every
product of them goes through `Field.reduce`, so no code here branches on
the field.  Every SparseMatrix goes through `canonical` when it is
built, so equal matrices have equal arrays.  Rank, kernel and quotient
work stays in the dense layer; this layer composes, adds, forms linear
combinations (`combination`, summed once), tensors (`kron`, or
`apply_in_slot` without forming the product) and compares, and applies
an operator to a dense basis (`dense_product`, in batches whose one
temporary has at most a quarter of the result's cells).

The sort order is one int64 key, col * rows + row.  `canonical` computes
the key and checks in one pass whether it is already strictly increasing;
then the triples are canonical up to zeros, and nothing is sorted or
gathered.  A key that only repeats is summed without a sort.  Builders
that can emit their triples in that order: the slot swaps and
precompositions of tensors.py, the homogeneous differential images of bar.py
(summed batch by batch), a Kronecker product of canonical factors whose
left one has one row (the coordinates of an equivariant space), and any
product whose right operand has one entry per column.
Otherwise one argsort orders the key, the key and the triples are
gathered in that order one array at a time, each replacing its unsorted
array before the next is gathered, and `np.add.reduceat` sums equal keys.
The key of a shape with rows * cols >= 2^63 would overflow, and so would
the factor `rows` itself when it is 2^63 or more, even with no columns
(the empty section of a vanishing coinvariant degree); such a shape
raises BudgetExceeded before anything is allocated.

Bulk work passes triples that need not be canonical; `vals` None means
every value is one.  Values already reduced are stored as they are
passed, not copied, so matrices built on one value array share it (the
slot swaps of a degree); no code writes into a stored array.  An
operator acts on triples through its column map `columns(idx)`, which
returns the entries of the columns idx as (rows, position in idx,
vals), grouped by position and sorted by row within it.
The map reads a pointer array, ptr[j]:ptr[j+1] being the entries of
column j, built with each map and sized by its last stored column:
a lookup is an index, and a column past the last stored one is empty
(with `search`, a binary search in the stored columns).  Composing is
applying one operator's column map to the other's triples and summing
with `canonical`.  `@` does that in batches of whole columns of the right
operand, each of at most max(nnz(self), nnz(other)) unsummed terms,
summed before the next is expanded, and `apply_in_slot` batches as `@`
would its unformed product (where a single column may pass the bound and
is a batch of its own).  `require_terms` charges terms known before they
are formed, three int64 cells each (row, column, value), against
DENSE_RANK_CELLS.

The read-only `cols_data` property rebuilds one {row: value} dict per
column on demand.  It exists only for the benchmark's tracer
(perfbench/traced_job.py), which counts nonzeros through it; the engine
and its tests use the arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded
from .fields import Field
from .linalg import DENSE_RANK_CELLS, Matrix


class SparseMatrix:
    __slots__ = ("field", "rows", "cols", "row_idx", "col_idx", "vals")

    def __init__(self, field: Field, rows: int, cols: int, triples=None):
        """The rows x cols matrix with the entries `triples` (summed where
        they repeat), or the zero matrix."""
        self.field = field
        self.rows = rows
        self.cols = cols
        if triples is None:
            triples = (np.zeros(0, dtype=np.int64),) * 2 + (field_array(field, []),)
        self.row_idx, self.col_idx, self.vals = canonical(field, *triples, shape=(rows, cols))

    # -- constructors --------------------------------------------------

    @staticmethod
    def identity(field: Field, n: int) -> "SparseMatrix":
        idx = np.arange(n, dtype=np.int64)
        return SparseMatrix(field, n, n, (idx, idx, None))

    @staticmethod
    def from_dense(m: Matrix) -> "SparseMatrix":
        a = m.data
        cols, rows = np.nonzero(a.T)
        return SparseMatrix(m.field, m.rows, m.cols, (rows, cols, a[rows, cols]))

    def to_dense(self) -> Matrix:
        m = Matrix.zeros(self.field, self.rows, self.cols)
        m.data[self.row_idx, self.col_idx] = self.vals
        return m

    # -- reading ---------------------------------------------------------

    def nnz(self) -> int:
        return len(self.vals)

    def triples(self):
        """(rows, cols, vals) of the stored entries, sorted by (col, row)."""
        return self.row_idx, self.col_idx, self.vals

    def column_map(self, search: bool = False):
        """The column map of self; with `search`, stored columns are found by
        binary search, and no array spans the columns (for a projection)."""
        if not search:
            return _lookup(pointers(self.col_idx), self.row_idx, self.vals)
        first = np.flatnonzero(np.diff(self.col_idx, prepend=-1))  # of each stored column
        keys = np.append(self.col_idx[first], np.iinfo(np.int64).max)  # a miss: past the last
        lookup = _lookup(np.append(first, [self.nnz()] * 2), self.row_idx, self.vals)

        def columns(idx):
            at = np.searchsorted(keys, idx)
            at[keys[at] != idx] = len(keys) - 1
            return lookup(at)

        return columns

    @property
    def cols_data(self) -> list:
        """One {row: value} dict per column, rebuilt on every read."""
        out = [dict() for _ in range(self.cols)]
        for i, j, x in zip(self.row_idx.tolist(), self.col_idx.tolist(), self.vals.tolist()):
            out[j][i] = x
        return out

    # -- algebra ---------------------------------------------------------

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in sparse matmul")
        fld = self.field
        ptr = pointers(self.col_idx)
        columns = _lookup(ptr, self.row_idx, self.vals)
        r, c, v = other.triples()
        return _expand(fld, (self.rows, other.cols), ptr, r, c,
                       max(self.nnz(), other.nnz()),
                       lambda lo, hi: apply_columns(fld, columns, (r[lo:hi], c[lo:hi], v[lo:hi])))

    def dense_product(self, k: Matrix) -> Matrix:
        """self @ k for a dense k, as a dense Matrix.

        The entries go in batches of at most rows/4: each batch gathers its
        rows of k, scales them in place and adds them into the result
        unbuffered (`np.add.at`), so the one temporary has at most a quarter
        of the result's cells.  The result is reduced once at the end: a row
        of n entries sums n reduced terms, below n * p, which int64 holds
        for every n under 2^63 / p (over 3 * 10^9 at every p a Field accepts).
        """
        fld = self.field
        out = Matrix.zeros(fld, self.rows, k.cols)
        r, c, v = self.triples()
        step = max(self.rows // 4, 1)
        for at in range(0, len(v), step):
            terms = k.data[c[at:at + step]]
            terms *= v[at:at + step, None]
            np.add.at(out.data, r[at:at + step], fld.reduce(terms, out=terms))
            del terms  # before the next batch gathers its own
        fld.reduce(out.data, out=out.data)
        return out

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return SparseMatrix(self.field, self.rows, self.cols,
                            [np.concatenate(pair) for pair in zip(self.triples(),
                                                                  other.triples())])

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        r, c, v = other.triples()
        return self + SparseMatrix(other.field, other.rows, other.cols, (r, c, self.field.neg(v)))

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.field, self.cols, self.rows,
                            (self.col_idx, self.row_idx, self.vals))

    def is_zero(self) -> bool:
        return not len(self.vals)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.field, self.rows, self.cols) == (other.field, other.rows, other.cols) \
            and all(np.array_equal(a, b) for a, b in zip(self.triples(), other.triples()))

    def equals_identity(self) -> bool:
        return self == SparseMatrix.identity(self.field, self.rows)


def kron(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Kronecker product with the left factor most significant: entry
    ((i, k), (j, l)) is a[i, j] b[k, l], at row i * b.rows + k."""
    return SparseMatrix(a.field, a.rows * b.rows, a.cols * b.cols,
                        kron_triples(a.field, a.triples(), b.triples(), (b.rows, b.cols)))


def combination(field: Field, rows: int, cols: int, terms) -> SparseMatrix:
    """The rows x cols sum of c * x over the pairs (c, x) of terms, summed
    once by `canonical`."""
    parts = [(x.row_idx, x.col_idx, field.reduce(x.vals * c)) for c, x in terms]
    return SparseMatrix(field, rows, cols, [np.concatenate(p) for p in zip(*parts)] or None)


def apply_in_slot(x: SparseMatrix, y: SparseMatrix, before: int, after: int) -> SparseMatrix:
    """kron(kron(identity(before), x), identity(after)) @ y, without forming
    the Kronecker product: x's column map is applied to the middle digit of
    each row of y, and the digits before and after it are kept.  Batched as
    `@` batches that product, whose left operand has before * nnz(x) * after
    entries."""
    fld = y.field
    r, c, v = y.triples()
    high, low = np.divmod(r, after)
    high, mid = np.divmod(high, x.cols)
    ptr = pointers(x.col_idx)
    columns = _lookup(ptr, x.row_idx, x.vals)

    def terms_of(lo, hi):
        rows, pos, vals = columns(mid[lo:hi])
        pos += lo
        return ((high[pos] * x.rows + rows) * after + low[pos], c[pos], fld.reduce(v[pos] * vals))

    return _expand(fld, (before * x.rows * after, y.cols), ptr, mid, c,
                   max(before * x.nnz() * after, y.nnz()), terms_of)


def require_terms(terms: int, what: str):
    """Refuse `what` when its `terms` sparse terms, three int64 cells each,
    would take more than DENSE_RANK_CELLS cells."""
    if 3 * terms > DENSE_RANK_CELLS:
        raise BudgetExceeded(
            f"{what} needs at least {terms} terms, {3 * terms} cells as (row, column, "
            f"value) triples, over the limit of {DENSE_RANK_CELLS} cells")


def integer_mod(sm: SparseMatrix, q: int) -> SparseMatrix:
    """A matrix whose values are Python ints, reduced mod the prime q."""
    field = Field.prime(q)
    return SparseMatrix(field, sm.rows, sm.cols,
                        (sm.row_idx, sm.col_idx, field_array(field, sm.vals % q)))


def integer_gram(sm: SparseMatrix, q: int) -> Matrix:
    """Transpose(M) @ M mod the prime q, dense, for M with int values.

    Used for certified rational ranks: over Q, rank(M^T M) = rank(M), and
    a rank mod q is a lower bound for it.
    """
    m = integer_mod(sm, q)
    return (m.transpose() @ m).to_dense()


# -- triples ---------------------------------------------------------------


def field_array(field: Field, values) -> np.ndarray:
    """Scalars of `field` as a flat array of its array form (`Field.array`)."""
    return field.array(values).reshape(-1)


def kron_triples(field: Field, a, b, b_shape):
    """Triples of the Kronecker product (`kron`) of the triples a and b, b
    of shape b_shape; a's vals may be None, b's may not."""
    (ra, ca, va), (rb, cb, vb) = a, b
    return ((ra[:, None] * b_shape[0] + rb).reshape(-1),
            (ca[:, None] * b_shape[1] + cb).reshape(-1),
            np.tile(vb, len(ra)) if va is None else field.reduce(va[:, None] * vb).reshape(-1))


def apply_columns(field: Field, columns, triples):
    """The operator with column map `columns` applied to triples (not summed)."""
    r, c, v = triples
    rows, pos, vals = columns(r)
    if v is not None:
        v = v[pos]
        if vals is None:
            vals = v
        else:
            vals = field.reduce(v * vals)
    return rows, c[pos], vals


def canonical(field: Field, rows, cols, vals, shape):
    """Triples sorted by (col, row) with duplicates summed and zeros dropped;
    `shape` (rows, cols) fixes the sort key col * rows + row."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if shape[0] * shape[1] >= 1 << 63 or shape[0] >= 1 << 63:
        raise BudgetExceeded(f"a sparse {shape[0]} x {shape[1]} matrix has 2^63 or more "
                             "positions or rows, past its int64 sort key")
    ones = vals is None
    if ones:
        vals = np.ones(len(rows), dtype=field.dtype)  # over Q, int ones
    else:
        vals = np.asarray(vals, dtype=field.dtype)
    key = cols * shape[0] + rows
    if not (key[1:] > key[:-1]).all():
        if not (key[1:] >= key[:-1]).all():
            order = np.argsort(key)
            key = key[order]  # one array at a time, each replacing its unsorted one
            rows = rows[order]
            cols = cols[order]
            vals = vals[order]
            del order
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        if len(starts) < len(key):
            rows, cols, vals = rows[starts], cols[starts], np.add.reduceat(vals, starts)
            ones = False  # a sum of ones may vanish
    if not (ones or field.is_reduced(vals)):  # reduced values are kept, not copied
        vals = field.reduce(vals)
    if not ones:
        keep = vals.astype(bool)
        if not keep.all():
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return rows, cols, vals


def pointers(cols: np.ndarray) -> np.ndarray:
    """Column pointers of triples sorted by column: the entries of column j
    are ptr[j]:ptr[j+1].  ptr runs to one past the last stored column, so it
    has (last stored column) + 3 entries whatever the shape."""
    stored = int(cols[-1]) + 1 if len(cols) else 0
    ptr = np.zeros(stored + 2, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=stored), out=ptr[1:stored + 1])
    ptr[-1] = len(cols)
    return ptr


def _lookup(ptr: np.ndarray, rows: np.ndarray, vals: np.ndarray):
    """Column map reading the pointers ptr of the triples (rows, -, vals)."""
    last = len(ptr) - 2

    def columns(idx):
        at = np.minimum(idx, last)
        start = ptr[at]
        at += 1
        count = ptr[at]
        count -= start
        del at
        if (count == 1).all():
            return rows[start], np.arange(len(idx), dtype=np.int64), vals[start]
        # entry k of the output is entry start[p] + (k - first output of p) of self
        first = np.cumsum(count)
        first -= count
        start -= first
        ent = np.repeat(start, count)
        ent += np.arange(len(ent), dtype=np.int64)
        return rows[ent], np.repeat(np.arange(len(idx), dtype=np.int64), count), vals[ent]

    return columns


def _expand(field: Field, shape, ptr: np.ndarray, meets: np.ndarray, cols: np.ndarray,
            bound: int, terms_of) -> SparseMatrix:
    """The summed terms of an operator with pointers ptr on the entries of a
    right operand sorted by column (`cols`), entry i meeting column
    meets[i]; terms_of(lo, hi) expands entries lo:hi, batched under bound."""
    if len(meets) * int(np.diff(ptr).max()) > bound:
        at = np.minimum(meets, len(ptr) - 2)
        ends = np.cumsum(ptr[at + 1] - ptr[at])  # terms of entries 0..i
        if ends[-1] > bound:
            parts = [canonical(field, *terms_of(lo, hi), shape=shape)
                     for lo, hi in _column_batches(cols, ends, bound)]
            return SparseMatrix(field, *shape, [np.concatenate(p) for p in zip(*parts)])
    return SparseMatrix(field, *shape, terms_of(0, len(cols)))


def _column_batches(cols: np.ndarray, ends: np.ndarray, bound: int):
    """(lo, hi) slices of triples sorted by column that cut only between
    columns, each with at most `bound` terms when ends[i] is the number of
    terms of entries 0..i; a column over the bound is a batch of its own."""
    cuts = np.flatnonzero(np.concatenate((cols[1:] != cols[:-1], [len(cols) > 0]))) + 1
    before = ends[cuts - 1]  # terms before each cut
    lo = done = 0  # done: terms before lo
    while lo < len(cols):
        # the last cut within the bound, or else the first cut after lo
        k = max(np.searchsorted(before, done + bound, side="right"),
                np.searchsorted(cuts, lo, side="right") + 1)
        hi = int(cuts[k - 1])
        yield lo, hi
        lo, done = hi, int(ends[hi - 1])
