"""Sparse matrices for ambient tensor-power operators.

Differentials, symmetric-group operators and equivariant bases on
A^(tensor n) coordinates are far too sparse to materialize densely.  A
SparseMatrix stores its entries in one form, canonical triples: parallel
arrays (rows, cols, vals) sorted by (col, row), with duplicates summed
and zeros dropped.  Values are an int64 array over GF(p) and an object
array of Fractions over Q.  Every SparseMatrix goes through `canonical`
when it is built, so equal matrices have equal arrays.  Rank, kernel and
quotient work stays in the dense layer; this layer composes, adds and
compares, and applies an operator to a dense basis (`dense_product`).

Bulk work passes triples that need not be canonical; `vals` None means
every value is one.  An operator acts on triples through its
`columns(idx)` map, which returns the entries of the columns idx as
(rows, position in idx, vals); composing is applying one operator's
column map to the other's triples and summing with `canonical`.

The read-only `cols_data` property rebuilds one {row: value} dict per
column on demand.  It exists only for the benchmark's tracer
(perfbench/traced_job.py), which counts nonzeros through it; the engine
and its tests use the arrays.
"""

from __future__ import annotations

import numpy as np

from .fields import Field
from .linalg import Matrix, _array, _matrix, _zeros


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
        self.row_idx, self.col_idx, self.vals = canonical(field, *triples)

    # -- constructors --------------------------------------------------

    @staticmethod
    def identity(field: Field, n: int) -> "SparseMatrix":
        idx = np.arange(n, dtype=np.int64)
        return SparseMatrix(field, n, n, (idx, idx, None))

    @staticmethod
    def from_dense(m: Matrix) -> "SparseMatrix":
        a = _array(m)
        cols, rows = np.nonzero(a.T)
        return SparseMatrix(m.field, m.rows, m.cols, (rows, cols, a[rows, cols]))

    def to_dense(self) -> Matrix:
        a = _zeros(self.field, self.rows, self.cols)
        a[self.row_idx, self.col_idx] = self.vals
        return _matrix(self.field, a)

    # -- reading ---------------------------------------------------------

    def nnz(self) -> int:
        return len(self.vals)

    def triples(self):
        """(rows, cols, vals) of the stored entries, sorted by (col, row)."""
        return self.row_idx, self.col_idx, self.vals

    def column_map(self):
        return csc_columns(*self.triples())

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
        return SparseMatrix(self.field, self.rows, other.cols,
                            apply_columns(self.field, self.column_map(), other.triples()))

    def dense_product(self, k: Matrix) -> Matrix:
        """self @ k for a dense k, as a dense Matrix.

        The entries go in batches of at most self.rows, each summed per row,
        so no temporary has more cells than the result.
        """
        fld = self.field
        out = _zeros(fld, self.rows, k.cols)
        dense = _array(k)
        r, c, v = self.triples()
        step = max(self.rows, 1)
        for at in range(0, len(v), step):
            order = np.argsort(r[at:at + step], kind="stable") + at
            rows = r[order]
            terms = v[order, None] * dense[c[order]]
            starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
            out[rows[starts]] += np.add.reduceat(terms if fld.is_rational else terms % fld.p,
                                                 starts, axis=0)
            if not fld.is_rational:
                out %= fld.p
        return _matrix(fld, out)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return SparseMatrix(self.field, self.rows, self.cols,
                            [np.concatenate(pair) for pair in zip(self.triples(),
                                                                  other.triples())])

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

    def __repr__(self):
        return f"SparseMatrix({self.field}, {self.rows}x{self.cols}, nnz={self.nnz()})"


def integer_mod(sm: SparseMatrix, q: int) -> SparseMatrix:
    """A matrix whose values are Python ints, reduced mod the prime q."""
    field = Field.prime(q)
    return SparseMatrix(field, sm.rows, sm.cols,
                        (sm.row_idx, sm.col_idx, field_array(field, sm.vals % q)))


def integer_gram(sm: SparseMatrix, q: int) -> np.ndarray:
    """Transpose(M) @ M mod the prime q, dense, for M with int values.

    Used for certified rational ranks: over Q, rank(M^T M) = rank(M), and
    a rank mod q is a lower bound for it.
    """
    m = integer_mod(sm, q)
    return (m.transpose() @ m).to_dense().data


# -- triples ---------------------------------------------------------------


def field_array(field: Field, values) -> np.ndarray:
    """Scalars of `field` as an array that keeps their products exact."""
    return np.array(values, dtype=object if field.is_rational else np.int64).reshape(-1)


def apply_columns(field: Field, columns, triples):
    """The operator with column map `columns` applied to triples (not summed)."""
    r, c, v = triples
    rows, pos, vals = columns(r)
    if v is not None:
        v = v[pos]
        if vals is None:
            vals = v
        else:
            vals = v * vals if field.is_rational else v * vals % field.p
    return rows, c[pos], vals


def canonical(field: Field, rows, cols, vals):
    """Triples sorted by (col, row) with duplicates summed and zeros dropped."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if vals is None:
        vals = field_array(field, [field.one()] * len(rows))
    else:
        vals = np.asarray(vals, dtype=object if field.is_rational else np.int64)
    order = np.lexsort((rows, cols))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if len(rows):
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        if not new.all():
            starts = np.flatnonzero(new)
            rows, cols, vals = rows[starts], cols[starts], np.add.reduceat(vals, starts)
    if not field.is_rational:
        vals = vals % field.p
    keep = vals != 0
    return rows[keep], cols[keep], vals[keep]


def csc_columns(rows, cols, vals):
    """Column map of the triples (rows, cols, vals), which are sorted by column."""
    def columns(idx):
        start = np.searchsorted(cols, idx)
        count = np.searchsorted(cols, idx, side="right") - start
        pos = np.repeat(np.arange(len(idx), dtype=np.int64), count)
        at = np.arange(len(pos), dtype=np.int64) + np.repeat(start - np.cumsum(count) + count,
                                                             count)
        return rows[at], pos, vals[at]

    return columns


def dense_columns(a: np.ndarray):
    """Column map of the nonzero entries of a dense array of field scalars."""
    cols, rows = np.nonzero(a.T)
    return csc_columns(rows, cols, a[rows, cols])
