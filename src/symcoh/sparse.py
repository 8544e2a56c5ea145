"""Column-sparse matrices for ambient tensor-power operators.

Differentials, symmetric-group operators and equivariant bases on
A^(tensor n) coordinates are far too sparse to materialize densely, so
they are kept as one dict {row: value} per column.  Rank, kernel and
quotient work stays in the dense layer; this layer only composes, adds
and evaluates.

Bulk work goes through triples instead: parallel arrays (rows, cols,
vals) of entries, with values in an int64 array over GF(p) (an object
array of ints when a product of two entries could overflow int64) and an
object array of Fractions over Q; `vals` None means every value is one.  An
operator acts on triples through its `columns(idx)` map, which returns
the entries of the columns idx as (rows, position in idx, vals).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import Field
from .linalg import Matrix


class SparseMatrix:
    __slots__ = ("field", "rows", "cols", "cols_data")

    def __init__(self, field: Field, rows: int, cols: int, cols_data=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.cols_data = cols_data if cols_data is not None else [dict() for _ in range(cols)]

    # -- constructors --------------------------------------------------

    @staticmethod
    def identity(field: Field, n: int) -> "SparseMatrix":
        one = field.one()
        return SparseMatrix(field, n, n, [{i: one} for i in range(n)])

    @staticmethod
    def from_dense(m: Matrix) -> "SparseMatrix":
        cols_data = [dict() for _ in range(m.cols)]
        if m.field.is_rational:
            for i, row in enumerate(m.data):
                for j, v in enumerate(row):
                    if v != 0:
                        cols_data[j][i] = v
        else:
            cols, rows = np.nonzero(m.data.T)
            for i, j, v in zip(rows.tolist(), cols.tolist(), m.data[rows, cols].tolist()):
                cols_data[j][i] = v
        return SparseMatrix(m.field, m.rows, m.cols, cols_data)

    @staticmethod
    def from_triples(field: Field, rows: int, cols: int, triples) -> "SparseMatrix":
        r, c, v = canonical(field, *triples)
        cols_data = [dict() for _ in range(cols)]
        for i, j, x in zip(r.tolist(), c.tolist(), v.tolist()):
            cols_data[j][i] = x
        return SparseMatrix(field, rows, cols, cols_data)

    def to_dense(self) -> Matrix:
        m = Matrix.zeros(self.field, self.rows, self.cols)
        for j, col in enumerate(self.cols_data):
            for i, v in col.items():
                m._set(i, j, v)
        return m

    # -- building -------------------------------------------------------

    def add_entry(self, i: int, j: int, value):
        """Accumulate value at (i, j), dropping the entry if it cancels."""
        col = self.cols_data[j]
        if self.field.is_rational:
            v = col.get(i, 0) + value
        else:
            v = (col.get(i, 0) + value) % self.field.p
        if v:
            col[i] = v
        elif i in col:
            del col[i]

    def column(self, j) -> dict:
        return self.cols_data[j]

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols_data)

    def triples(self):
        """(rows, cols, vals) of the stored entries, column by column."""
        counts = np.fromiter(map(len, self.cols_data), dtype=np.int64, count=self.cols)
        nnz = int(counts.sum())
        rows = np.fromiter((i for col in self.cols_data for i in col), dtype=np.int64,
                           count=nnz)
        vals = field_array(self.field, [v for col in self.cols_data for v in col.values()])
        return rows, np.repeat(np.arange(self.cols, dtype=np.int64), counts), vals

    def column_map(self):
        """The column map of this matrix, read from its entries now."""
        return csc_columns(*self.triples(), self.cols)

    # -- algebra ---------------------------------------------------------

    def apply(self, vec: dict) -> dict:
        """Matrix times a sparse vector given as {index: value}."""
        out: dict = {}
        rational = self.field.is_rational
        p = None if rational else self.field.p
        for j, x in vec.items():
            col = self.cols_data[j]
            for i, v in col.items():
                out[i] = out.get(i, 0) + v * x
        if rational:
            return {i: v for i, v in out.items() if v != 0}
        return {i: v % p for i, v in out.items() if v % p != 0}

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in sparse matmul")
        cols_data = [self.apply(col) for col in other.cols_data]
        return SparseMatrix(self.field, self.rows, other.cols, cols_data)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_shape(other)
        out = SparseMatrix(self.field, self.rows, self.cols)
        for j in range(self.cols):
            for i, v in self.cols_data[j].items():
                out.add_entry(i, j, v)
            for i, v in other.cols_data[j].items():
                out.add_entry(i, j, v)
        return out

    def scale(self, c) -> "SparseMatrix":
        out = SparseMatrix(self.field, self.rows, self.cols)
        for j in range(self.cols):
            for i, v in self.cols_data[j].items():
                out.add_entry(i, j, self.field.mul(v, c))
        return out

    def transpose(self) -> "SparseMatrix":
        out = SparseMatrix(self.field, self.cols, self.rows)
        for j, col in enumerate(self.cols_data):
            for i, v in col.items():
                out.cols_data[i][j] = v
        return out

    def is_zero(self) -> bool:
        return all(not col for col in self.cols_data)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.field, self.rows, self.cols) == (other.field, other.rows, other.cols) \
            and self.cols_data == other.cols_data

    def equals_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one = self.field.one()
        return all(col == {j: one} for j, col in enumerate(self.cols_data))

    def _check_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __repr__(self):
        return f"SparseMatrix({self.field}, {self.rows}x{self.cols}, nnz={self.nnz()})"


def integer_gram(sm: SparseMatrix) -> np.ndarray | None:
    """Transpose(M) @ M as an int64 array, or None if entries are not integers.

    Used for certified rational ranks: over Q, rank(M^T M) = rank(M).
    Accumulates over rows so the cost is sum of (row support)^2.
    """
    n = sm.cols
    rows: dict[int, list] = {}
    for j, col in enumerate(sm.cols_data):
        for i, v in col.items():
            if isinstance(v, Fraction):
                if v.denominator != 1:
                    return None
                v = v.numerator
            rows.setdefault(i, []).append((j, int(v)))
    gram = np.zeros((n, n), dtype=np.int64)
    for entries in rows.values():
        for j1, v1 in entries:
            for j2, v2 in entries:
                gram[j1, j2] += v1 * v2
    return gram


def to_int64_dense(sm: SparseMatrix, modulus: int) -> np.ndarray | None:
    """Dense int64 reduction mod `modulus`, or None if entries are not integers."""
    a = np.zeros((sm.rows, sm.cols), dtype=np.int64)
    for j, col in enumerate(sm.cols_data):
        for i, v in col.items():
            if isinstance(v, Fraction):
                if v.denominator != 1:
                    return None
                v = v.numerator
            a[i, j] = int(v) % modulus
    return a


# -- triples ---------------------------------------------------------------


def field_array(field: Field, values) -> np.ndarray:
    """Scalars of `field` as an array that keeps their products exact."""
    return np.array(values, dtype=np.int64 if field.int64_products else object).reshape(-1)


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


def csc_columns(rows, cols, vals, ncols: int):
    """Column map of the triples (rows, cols, vals), which are sorted by column."""
    indptr = np.zeros(ncols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=ncols), out=indptr[1:])

    def columns(idx):
        start = indptr[idx]
        count = indptr[idx + 1] - start
        pos = np.repeat(np.arange(len(idx), dtype=np.int64), count)
        at = np.arange(len(pos), dtype=np.int64) + np.repeat(start - np.cumsum(count) + count,
                                                             count)
        return rows[at], pos, vals[at]

    return columns


def dense_columns(a: np.ndarray):
    """Column map of the nonzero entries of a dense array of field scalars."""
    cols, rows = np.nonzero(a.T)
    return csc_columns(rows, cols, a[rows, cols], a.shape[1])


def dense_from_triples(field: Field, rows: int, cols: int, triples) -> Matrix:
    r, c, v = canonical(field, *triples)
    m = Matrix.zeros(field, rows, cols)
    if field.is_rational:
        for i, j, x in zip(r.tolist(), c.tolist(), v.tolist()):
            m.data[i][j] = x
    else:
        m.data[r, c] = v
    return m
