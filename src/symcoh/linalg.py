"""Deterministic dense exact linear algebra over Q and GF(p).

Matrices over a prime field are stored as numpy int64 arrays with
entries in [0, p); rational matrices as nested lists of Fractions.
Elimination always pivots on the first nonzero entry in row-major scan
order, so identical inputs produce bit-identical outputs.

A product over GF(p) is a float64 BLAS product with delayed reduction
(Dumas, Giorgi and Pernet, FFLAS-FFPACK, ACM TOMS 35, 2008): float64
holds every integer up to 2^53 exactly, so a chunk of inner terms is
summed unreduced as long as its sum stays below that.  When (p-1)^2 is
too large for a single term, the right operand is split into limbs of
fewer bits first, so the same path is exact for every p a Field accepts.

Ambient dimensions here are desk-scale (a few thousand); anything
larger lives in the sparse layer and only drops down to dense form for
rank/kernel/quotient work.  `intersect_kernels` refuses a step whose
dense matrices would exceed DENSE_RANK_CELLS cells.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded
from .fields import Field

DENSE_RANK_CELLS = 1 << 24  # cells of the largest dense matrix a rank or kernel step may build


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
        return Matrix(self.field, self.rows, other.cols,
                      _matmul_prime(self.data, other.data, self.field.p))

    def matvec(self, vec):
        return (self @ Matrix.from_columns(self.field, [vec], rows=self.cols)).column(0)

    def transpose(self) -> "Matrix":
        if self.field.is_rational:
            data = [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
            return Matrix(self.field, self.cols, self.rows, data)
        return Matrix(self.field, self.cols, self.rows, self.data.T.copy())

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The same entries, read row-major into a rows x cols matrix."""
        if self.field.is_rational:
            flat = [x for row in self.data for x in row]
            return Matrix(self.field, rows, cols,
                          [flat[i * cols:(i + 1) * cols] for i in range(rows)])
        return Matrix(self.field, rows, cols, self.data.reshape(rows, cols))

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


def _array(m: Matrix) -> np.ndarray:
    """The entries of m as an array: int64 over GF(p), Fractions over Q."""
    if m.field.is_rational:
        return np.array(m.data, dtype=object).reshape(m.rows, m.cols)
    return m.data


def _matrix(field: Field, a: np.ndarray) -> Matrix:
    """The Matrix of an array of integers (reduced here) or Fractions."""
    if field.is_rational:
        return Matrix(field, a.shape[0], a.shape[1], a.tolist())
    return Matrix(field, a.shape[0], a.shape[1], a % field.p)


def _zeros(field: Field, rows: int, cols: int) -> np.ndarray:
    return np.full((rows, cols), field.zero(), dtype=object if field.is_rational else np.int64)


# -- products over GF(p) -------------------------------------------------


@functools.lru_cache(maxsize=None)
def _product_plan(p: int):
    """(bits, limbs, chunk) of the exact float64 product mod p.

    The right operand is cut into `limbs` limbs of `bits` bits each; one
    limb, the operand itself, when (p-1)^2 < 2^53.  Otherwise the limbs
    are narrow enough that a chunk holds at least 2^10 inner terms.  A
    chunk of `chunk` terms, each a reduced entry times a limb entry,
    sums to at most 2^53.
    """
    top = (p - 1).bit_length()
    bits = top if (p - 1) ** 2 < 2 ** 53 else 43 - top
    largest = min(p - 1, (1 << bits) - 1)
    return bits, -(-top // bits), 2 ** 53 // ((p - 1) * largest)


def _matmul_prime(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for reduced int64 arrays, by float64 BLAS products.

    Each chunk's float64 sum is an integer of at most 2^53, so it is
    exact, and so is its fmod; remainders of further chunks are added two
    at a time.  The limbs are combined in int64, where a reduced product
    plus a reduced accumulator stays below 2^63.
    """
    bits, limbs, chunk = _product_plan(p)
    af = a.astype(np.float64)
    for j in range(limbs):
        limb = (b if limbs == 1 else b >> (j * bits) & ((1 << bits) - 1)).astype(np.float64)
        part = np.fmod(af[:, :chunk] @ limb[:chunk], p)
        for k in range(chunk, a.shape[1], chunk):
            part = np.fmod(part + np.fmod(af[:, k:k + chunk] @ limb[k:k + chunk], p), p)
        part = part.astype(np.int64)
        out = part if j == 0 else (out + part * pow(2, j * bits, p)) % p
    return out


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


def _pivots_and_free(pivots: list, cols: int):
    """The pivot columns and the other columns of range(cols), as ascending arrays."""
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    return np.array(pivots, dtype=np.int64), np.flatnonzero(free)


def kernel_basis(m: Matrix) -> Subspace:
    """Echelon-derived basis of ker(m); deterministic for identical input.

    The basis is reduced: column k is 1 at the k-th free (non-pivot)
    coordinate, 0 at the other free coordinates and after its own, so it
    depends only on the kernel, not on how m presents it.
    """
    field = m.field
    if m.cols == 0:
        return Subspace(0, Matrix.zeros(field, 0, 0))
    reduced, pivots = rref(m)
    pivots, free = _pivots_and_free(pivots, m.cols)
    basis = _zeros(field, m.cols, len(free))
    basis[free, np.arange(len(free))] = field.one()
    basis[pivots] = -_array(reduced)[:len(pivots), free]
    return Subspace(m.cols, _matrix(field, basis))


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
    pivots, free = _pivots_and_free(pivots, ambient_dim)
    at = np.arange(len(free))
    projection = _zeros(field, len(free), ambient_dim)
    section = _zeros(field, ambient_dim, len(free))
    projection[at, free] = section[free, at] = field.one()
    projection[:, pivots] = -_array(reduced)[:len(pivots), free].T
    return _matrix(field, projection), _matrix(field, section)


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises on singular input."""
    if m.rows != m.cols:
        raise ValueError("only square matrices invert")
    reduced, pivots = rref(m.hstack(Matrix.identity(m.field, m.rows)))
    if pivots != list(range(m.rows)):
        raise ValueError("matrix is singular")
    return _matrix(m.field, _array(reduced)[:, m.rows:])


def intersect_kernels(field: Field, dim: int, constraints) -> Subspace:
    """Common kernel of linear maps C_1, C_2, ... on k^dim, one at a time.

    Each constraint is a pair (rows, apply) where apply(K) is the
    rows x K.cols product C_i @ K.  The basis K starts as the identity and
    shrinks to K @ kernel_basis(C_i @ K); a constraint that vanishes on K
    is skipped, and the loop stops once K is empty.  Products of reduced
    kernel bases are reduced, so the result is the basis that
    kernel_basis(Matrix.vstack(field, [C_1, C_2, ...])) gives, entry for
    entry, without the stack.  Every matrix a step builds fits in
    max(rows, dim) x K.cols cells; a step over DENSE_RANK_CELLS raises
    BudgetExceeded before it builds anything, the identity included.
    """
    basis = None  # the identity until a constraint cuts it down
    for rows, apply in constraints:
        width = dim if basis is None else basis.cols
        if width == 0:
            break
        if max(rows, dim) * width > DENSE_RANK_CELLS:
            raise BudgetExceeded(
                f"common kernel step needs a dense {max(rows, dim)} x {width} matrix, "
                f"over the limit of {DENSE_RANK_CELLS} cells")
        image = apply(Matrix.identity(field, dim) if basis is None else basis)
        if not image.is_zero():
            kernel = kernel_basis(image).basis
            basis = kernel if basis is None else basis @ kernel
    return Subspace(dim, Matrix.identity(field, dim) if basis is None else basis)
