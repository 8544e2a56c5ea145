"""Deterministic dense exact linear algebra over Q and GF(p).

Matrices over a prime field are stored as numpy int64 arrays with
entries in [0, p); rational matrices as nested lists of Fractions.
Elimination always pivots on the first nonzero entry in row-major scan
order, so identical inputs produce bit-identical outputs.

Ambient dimensions here are desk-scale (a few thousand); anything
larger lives in the sparse layer and only drops down to dense form for
rank/kernel/quotient work.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import Field


class Matrix:
    """A dense rows x cols matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data  # ndarray (prime) or list of row lists (rational)

    # -- constructors --------------------------------------------------

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        if field.is_rational:
            z = Fraction(0)
            return Matrix(field, rows, cols, [[z] * cols for _ in range(rows)])
        return Matrix(field, rows, cols, np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        m = Matrix.zeros(field, n, n)
        one = field.one()
        for i in range(n):
            m._set(i, i, one)
        return m

    @staticmethod
    def from_rows(field: Field, rows_list) -> "Matrix":
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        for row in rows_list:
            if len(row) != cols:
                raise ValueError("ragged rows")
        if field.is_rational:
            data = [[Fraction(x) for x in row] for row in rows_list]
        else:
            data = np.array([[int(x) % field.p for x in row] for row in rows_list],
                            dtype=np.int64).reshape(rows, cols)
        return Matrix(field, rows, cols, data)

    @staticmethod
    def from_columns(field: Field, cols_list, rows: int | None = None) -> "Matrix":
        ncols = len(cols_list)
        if rows is None:
            rows = len(cols_list[0]) if ncols else 0
        m = Matrix.zeros(field, rows, ncols)
        for j, col in enumerate(cols_list):
            if len(col) != rows:
                raise ValueError("ragged columns")
            for i, x in enumerate(col):
                m._set(i, j, field.from_int(x) if isinstance(x, int) and not field.is_rational else x)
        return m

    # -- element access -------------------------------------------------

    def _set(self, i, j, value):
        if self.field.is_rational:
            self.data[i][j] = Fraction(value)
        else:
            self.data[i, j] = int(value) % self.field.p

    def __getitem__(self, ij):
        i, j = ij
        if self.field.is_rational:
            return self.data[i][j]
        return int(self.data[i, j])

    def entries(self):
        """Row-major list of all entries."""
        if self.field.is_rational:
            return [x for row in self.data for x in row]
        return [int(x) for x in self.data.reshape(-1)]

    def column(self, j):
        return [self[i, j] for i in range(self.rows)]

    def row(self, i):
        return [self[i, j] for j in range(self.cols)]

    def copy(self) -> "Matrix":
        if self.field.is_rational:
            return Matrix(self.field, self.rows, self.cols,
                          [row[:] for row in self.data])
        return Matrix(self.field, self.rows, self.cols, self.data.copy())

    # -- arithmetic -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.field, self.rows, self.cols) != (other.field, other.rows, other.cols):
            return False
        if self.field.is_rational:
            return self.data == other.data
        return bool(np.array_equal(self.data % self.field.p, other.data % other.field.p))

    def is_zero(self) -> bool:
        if self.field.is_rational:
            return all(x == 0 for row in self.data for x in row)
        return not np.any(self.data % self.field.p)

    def __add__(self, other):
        self._check_same_shape(other)
        if self.field.is_rational:
            data = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)]
            return Matrix(self.field, self.rows, self.cols, data)
        return Matrix(self.field, self.rows, self.cols,
                      (self.data + other.data) % self.field.p)

    def __sub__(self, other):
        self._check_same_shape(other)
        if self.field.is_rational:
            data = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)]
            return Matrix(self.field, self.rows, self.cols, data)
        return Matrix(self.field, self.rows, self.cols,
                      (self.data - other.data) % self.field.p)

    def __neg__(self):
        if self.field.is_rational:
            return Matrix(self.field, self.rows, self.cols,
                          [[-a for a in row] for row in self.data])
        return Matrix(self.field, self.rows, self.cols, (-self.data) % self.field.p)

    def scale(self, c):
        if self.field.is_rational:
            c = Fraction(c)
            return Matrix(self.field, self.rows, self.cols,
                          [[c * a for a in row] for row in self.data])
        c = int(c) % self.field.p
        return Matrix(self.field, self.rows, self.cols, (self.data * c) % self.field.p)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.field.is_rational:
            out = [[Fraction(0)] * other.cols for _ in range(self.rows)]
            bdata = other.data
            for i, arow in enumerate(self.data):
                orow = out[i]
                for k, a in enumerate(arow):
                    if a:
                        brow = bdata[k]
                        for j in range(other.cols):
                            b = brow[j]
                            if b:
                                orow[j] += a * b
            return Matrix(self.field, self.rows, other.cols, out)
        # each chunk of inner terms sums to at most 2^63 - 1 before reducing
        p = self.field.p
        step = (2 ** 63 - 1) // (p - 1) ** 2
        out = (self.data[:, :step] @ other.data[:step]) % p
        for k in range(step, self.cols, step):
            out = (out + (self.data[:, k:k + step] @ other.data[k:k + step]) % p) % p
        return Matrix(self.field, self.rows, other.cols, out)

    def matvec(self, vec):
        return (self @ Matrix.from_columns(self.field, [vec], rows=self.cols)).column(0)

    def transpose(self) -> "Matrix":
        if self.field.is_rational:
            data = [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
            return Matrix(self.field, self.cols, self.rows, data)
        return Matrix(self.field, self.cols, self.rows, self.data.T.copy())

    def hstack(self, other) -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        if self.field.is_rational:
            data = [ra + rb for ra, rb in zip(self.data, other.data)]
            return Matrix(self.field, self.rows, self.cols + other.cols, data)
        return Matrix(self.field, self.rows, self.cols + other.cols,
                      np.hstack([self.data, other.data]))

    @staticmethod
    def vstack(field: Field, mats) -> "Matrix":
        mats = list(mats)
        if not mats:
            return Matrix.zeros(field, 0, 0)
        cols = mats[0].cols
        for m in mats:
            if m.cols != cols:
                raise ValueError("column count mismatch")
        if field.is_rational:
            data = [row[:] for m in mats for row in m.data]
            return Matrix(field, sum(m.rows for m in mats), cols, data)
        return Matrix(field, sum(m.rows for m in mats), cols,
                      np.vstack([m.data for m in mats]) if mats else None)

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"


# -- elimination -------------------------------------------------------


def _rref_prime(a: np.ndarray, p: int):
    """In-place reduced row echelon form mod p; returns pivot column list."""
    rows, cols = a.shape
    a %= p
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r, c:] = (a[r, c:] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[np.ix_(mask, np.arange(c, cols))] = \
                (a[np.ix_(mask, np.arange(c, cols))]
                 - np.outer(col[mask], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return pivots


def _rank_prime(a: np.ndarray, p: int) -> int:
    """Rank mod p by forward elimination (cheaper than full rref)."""
    a = a % p
    rows, cols = a.shape
    buf = np.empty_like(a)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        inv = pow(int(a[r, c]), p - 2, p)
        row = a[r, c:]
        if inv != 1:
            np.multiply(row, inv, out=row)
            row %= p
        below = a[r + 1:, c]
        count = int(np.count_nonzero(below))
        if count:
            sub = a[r + 1:, c:]
            if count * 4 < below.size:
                mask = below != 0
                sub[mask] = (sub[mask] - np.outer(below[mask], row)) % p
            else:
                prod = np.multiply.outer(below, row, out=buf[:below.size, :row.size])
                sub -= prod
                sub %= p
        r += 1
    return r


def _rref_rational(data):
    """In-place reduced row echelon form over Q; returns pivot column list."""
    rows = len(data)
    cols = len(data[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = None
        for i in range(r, rows):
            if data[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            data[r], data[pivot_row] = data[pivot_row], data[r]
        pv = data[r][c]
        if pv != 1:
            inv = 1 / pv
            data[r] = [x * inv for x in data[r]]
        row_r = data[r]
        for i in range(rows):
            if i != r:
                f = data[i][c]
                if f:
                    data[i] = [a - f * b for a, b in zip(data[i], row_r)]
        pivots.append(c)
        r += 1
    return pivots


def rref(m: Matrix):
    """Reduced row echelon form and pivot columns. Does not modify m."""
    if m.field.is_rational:
        data = [row[:] for row in m.data]
        pivots = _rref_rational(data)
        return Matrix(m.field, m.rows, m.cols, data), pivots
    data = m.data.copy()
    pivots = _rref_prime(data, m.field.p)
    return Matrix(m.field, m.rows, m.cols, data), pivots


def rank(m: Matrix) -> int:
    """Exact rank by Gaussian elimination with row-major-first pivoting."""
    if m.rows == 0 or m.cols == 0:
        return 0
    if m.field.is_rational:
        data = [row[:] for row in m.data]
        return len(_rref_rational(data))
    return _rank_prime(m.data, m.field.p)


class Subspace:
    """A subspace of k^ambient_dim with an explicit column basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.rows != ambient_dim:
            raise ValueError("basis rows must equal ambient dimension")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.cols

    def check_independent(self) -> bool:
        return rank(self.basis) == self.basis.cols

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


def kernel_basis(m: Matrix) -> Subspace:
    """Echelon-derived basis of ker(m); deterministic for identical input."""
    field = m.field
    if m.cols == 0:
        return Subspace(0, Matrix.zeros(field, 0, 0))
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    basis = Matrix.zeros(field, m.cols, len(free))
    one = field.one()
    for k, j in enumerate(free):
        basis._set(j, k, one)
        for i, pc in enumerate(pivots):
            v = reduced[i, j]
            if v != 0:
                basis._set(pc, k, field.neg(v))
    return Subspace(m.cols, basis)


def solve_membership(s: Subspace, vec):
    """Coordinates c with basis @ c == vec, or None if vec is outside the span."""
    field = s.basis.field
    if len(vec) != s.ambient_dim:
        raise ValueError("vector length must equal ambient dimension")
    aug = s.basis.hstack(Matrix.from_columns(field, [list(vec)], rows=s.ambient_dim))
    reduced, pivots = rref(aug)
    if s.basis.cols in pivots:
        return None
    coords = [field.zero()] * s.basis.cols
    for i, pc in enumerate(pivots):
        coords[pc] = reduced[i, s.basis.cols]
    # basis columns are independent by invariant, so every basis column is a pivot
    return coords


def quotient(ambient_dim: int, relations: Matrix):
    """Projection/section pair for k^ambient_dim modulo the column span of relations.

    projection @ section = identity on the quotient, and ker(projection) is
    exactly the span of the relation columns.  Quotient coordinates are the
    non-pivot coordinates of the relation row space, in ascending order.
    """
    if relations.rows != ambient_dim:
        raise ValueError("relations must live in the ambient space")
    field = relations.field
    reduced, pivots = rref(relations.transpose())
    pivot_set = set(pivots)
    free = [j for j in range(ambient_dim) if j not in pivot_set]
    q = len(free)
    projection = Matrix.zeros(field, q, ambient_dim)
    section = Matrix.zeros(field, ambient_dim, q)
    one = field.one()
    for k, f in enumerate(free):
        projection._set(k, f, one)
        section._set(f, k, one)
        for i, pc in enumerate(pivots):
            v = reduced[i, f]
            if v != 0:
                projection._set(k, pc, field.neg(v))
    return projection, section


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises on singular input."""
    if m.rows != m.cols:
        raise ValueError("only square matrices invert")
    reduced, pivots = rref(m.hstack(Matrix.identity(m.field, m.rows)))
    if pivots != list(range(m.rows)):
        raise ValueError("matrix is singular")
    out = Matrix.zeros(m.field, m.rows, m.rows)
    for i in range(m.rows):
        for j in range(m.rows):
            out._set(i, j, reduced[i, m.rows + j])
    return out


def intersect_kernels(mats) -> Subspace:
    """Common kernel of a family of matrices with equal column counts."""
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one matrix")
    field = mats[0].field
    return kernel_basis(Matrix.vstack(field, mats))
