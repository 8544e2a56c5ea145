"""Deterministic dense exact linear algebra over Q and GF(p).

A Matrix holds one ndarray of its field's scalars (`Field.array`):
int64 entries reduced into [0, p) over GF(p), ints and Fractions over Q.
Every operation is numpy arithmetic on that array followed by
`Field.reduce`, so both fields run the same code; only the product has
a path per field.  Matrix is the carrier of elimination (rank, rref,
kernels, solves, quotient, inverse) and the form a parsed input takes
(an antipode, a module file's matrices); module actions, resolution
maps and every other operator are sparse (`sparse.SparseMatrix`).  So
besides the product, which combines elimination results, it has no
arithmetic.

Elimination is one in-place routine, `_echelon`.  It pivots on the
first nonzero entry of each column at or below the current row, scales
the pivot row to one, and clears the entries below the pivot with one
outer-product update: on the rows that need it when they are fewer than
a quarter, else on every row through a buffer allocated once.  `rank`
is its pivot count; `rref` adds back-substitution with the same update,
and `_kernel` reads the reduced kernel basis off it.  The reduced row
echelon form is unique, so identical inputs produce identical outputs.

A product over GF(p) is a float64 BLAS product with delayed reduction
(Dumas, Giorgi and Pernet, FFLAS-FFPACK, ACM TOMS 35, 2008): float64
holds every integer up to 2^53 exactly, so a chunk of inner terms is
summed unreduced as long as its sum stays below that.  When (p-1)^2 is
too large for a single term, the right operand is split into limbs of
fewer bits first, so the same path is exact for every p a Field accepts.
A product over Q multiplies integer numerators over one common
denominator per operand, one term per pair of nonzero entries that
meet, so a signed permutation costs one term per entry; an integral
product (both denominators one) is all ints, with no Fraction built.

Ambient dimensions here are desk-scale (a few thousand); anything
larger lives in the sparse layer and only drops down to dense form for
rank/kernel/quotient work.  `intersect_kernels` takes its constraints
as sparse operators and densifies one image at a time, echelonned in
place: a step holds two arrays of at most max(rows, dim) x (kernel so
far) cells, and a step over DENSE_RANK_CELLS cells is refused by
`require_cells`, through which every layer charges that limit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BudgetExceeded
from .fields import Field

DENSE_RANK_CELLS = 1 << 24  # cells of the largest dense matrix a rank or kernel step may build


def require_cells(cells: int, what: str):
    """Refuse `what`, which would take `cells` cells, past DENSE_RANK_CELLS:
    BudgetExceeded, its reason `what` and the limit."""
    if cells > DENSE_RANK_CELLS:
        raise BudgetExceeded(f"{what}, over the limit of {DENSE_RANK_CELLS}")


class Matrix:
    """A dense matrix over an exact field; `data` is a 2-d array of reduced
    scalars of the field (see `Field.array`)."""

    __slots__ = ("field", "data")

    def __init__(self, field: Field, data: np.ndarray):
        self.field = field
        self.data = data

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    # -- constructors --------------------------------------------------

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, np.full((rows, cols), field.zero(), dtype=field.dtype))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        m = Matrix.zeros(field, n, n)
        np.fill_diagonal(m.data, field.one())
        return m

    @staticmethod
    def from_rows(field: Field, rows_list) -> "Matrix":
        cols = len(rows_list[0]) if len(rows_list) else 0
        if any(len(row) != cols for row in rows_list):
            raise ValueError("ragged rows")
        return Matrix(field, field.array(rows_list).reshape(len(rows_list), cols))

    # -- element access -------------------------------------------------

    def _set(self, i, j, value):
        self.data[i, j] = self.field.array(value)[()]

    def __getitem__(self, ij):
        return self.data.item(ij)

    # -- arithmetic -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.data.shape == other.data.shape \
            and bool(np.array_equal(self.data, other.data))

    def is_zero(self) -> bool:
        return not self.data.any()

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.field.is_rational:
            return Matrix(self.field, _matmul_rational(self.data, other.data))
        return Matrix(self.field, _matmul_prime(self.data, other.data, self.field.p))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.data.T.copy())

    def hstack(self, other) -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return Matrix(self.field, np.hstack([self.data, other.data]))


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


# -- products over Q ----------------------------------------------------


def _numerators(a: np.ndarray):
    """The rows of the rationals a as lists of (column, integer numerator)
    over the least common denominator den of the nonzero entries, and den.
    Zeros are skipped by truth value, before any other work."""
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in a.tolist()]
    den = math.lcm(*(x.denominator for row in rows for _j, x in row))
    return [[(j, x.numerator * (den // x.denominator)) for j, x in row] for row in rows], den


def _matmul_rational(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over Q on integer numerators, one term per nonzero entry of a
    and nonzero entry of b that meet; an entry of the result is an int
    when both common denominators are one, else a Fraction."""
    from fractions import Fraction
    (ra, da), (rb, db) = _numerators(a), _numerators(b)
    rows, cols, den = a.shape[0], b.shape[1], da * db
    out = []
    for arow in ra:
        acc = [0] * cols
        for k, x in arow:
            for j, y in rb[k]:
                acc[j] += x * y
        out.extend(acc if den == 1 else (Fraction(v, den) if v else 0 for v in acc))
    # fromiter, since np.array probes every Fraction for a sequence interface
    return np.fromiter(out, dtype=object, count=rows * cols).reshape(rows, cols)


# -- elimination -------------------------------------------------------


def _eliminate(rest: np.ndarray, row: np.ndarray, field: Field, buf: np.ndarray):
    """rest -= outer(rest[:, 0], row) in place, which clears the first
    column of rest when row starts with one: on the nonzero rows of that
    column alone when they are under a quarter, else on every row, with
    the outer product written into buf."""
    live = rest[:, 0].astype(bool)
    count = np.count_nonzero(live)
    if not count:
        return
    if count * 4 < len(live):
        rest[live] = field.reduce(rest[live] - np.multiply.outer(rest[live, 0], row))
    else:
        rest -= np.multiply.outer(rest[:, 0], row, out=buf[:len(live), :len(row)])
        field.reduce(rest, out=rest)


def _echelon(a: np.ndarray, field: Field, reduced: bool = False) -> list:
    """Row echelon form of a, in place; reduced row echelon form when
    `reduced`.  Returns the pivot columns.

    The pivot of each column is its first nonzero entry at or below the
    current row; it is swapped up, its row scaled to one, and the entries
    below it are cleared.  Back-substitution then clears the entries above
    each pivot, last pivot first.
    """
    rows, cols = a.shape
    buf = np.empty_like(a)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        below = np.flatnonzero(a[r:, c])
        if not below.size:
            continue
        i = r + int(below[0])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        row = a[r, c:]
        inv = field.inv(row.item(0))
        if inv != 1:
            np.multiply(row, inv, out=row)
            field.reduce(row, out=row)
        _eliminate(a[r + 1:, c:], row, field, buf)
        pivots.append(c)
    if reduced:
        for r in reversed(range(len(pivots))):
            c = pivots[r]
            _eliminate(a[:r, c:], a[r, c:], field, buf)
    return pivots


def rref(m: Matrix):
    """Reduced row echelon form and pivot columns. Does not modify m."""
    data = m.data.copy()
    pivots = _echelon(data, m.field, reduced=True)
    return Matrix(m.field, data), pivots


def rank(m: Matrix) -> int:
    """Exact rank: the pivot count of a row echelon form."""
    return len(_echelon(m.data.copy(), m.field))


def _pivots_and_free(pivots: list, cols: int):
    """The pivot columns and the other columns of range(cols), as ascending arrays."""
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    return np.array(pivots, dtype=np.int64), np.flatnonzero(free)


def _kernel(a: np.ndarray, field: Field) -> np.ndarray:
    """The reduced kernel basis of a (see kernel_basis), echelonning a in place."""
    pivots, free = _pivots_and_free(_echelon(a, field, reduced=True), a.shape[1])
    basis = np.full((a.shape[1], len(free)), field.zero(), dtype=field.dtype)
    basis[free, np.arange(len(free))] = field.one()
    block = a[:len(pivots), free]
    basis[pivots] = field.reduce(np.negative(block, out=block), out=block)
    return basis


def kernel_basis(m: Matrix) -> Matrix:
    """Echelon-derived basis of ker(m), as columns; deterministic for
    identical input.

    The basis is reduced: column k is 1 at the k-th free (non-pivot)
    coordinate, 0 at the other free coordinates and after its own, so it
    depends only on the kernel, not on how m presents it.
    """
    return Matrix(m.field, _kernel(m.data.copy(), m.field))


def solve_columns(basis: Matrix, b: Matrix) -> Matrix | None:
    """Coordinates C with basis @ C == b, by one rref of [basis | b], or
    None if a column of b is outside the span.  The basis columns are
    independent, so they are the first pivots, and C is read off the rows
    they take; a pivot in b marks a column outside the span."""
    k = basis.cols
    reduced, pivots = rref(basis.hstack(b))
    if len(pivots) > k:
        return None
    return Matrix(b.field, reduced.data[:k, k:].copy())


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
    projection = Matrix.zeros(field, len(free), ambient_dim)
    section = Matrix.zeros(field, ambient_dim, len(free))
    projection.data[at, free] = section.data[free, at] = field.one()
    projection.data[:, pivots] = field.neg(reduced.data[:len(pivots), free].T)
    return projection, section


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises on singular input."""
    if m.rows != m.cols:
        raise ValueError("only square matrices invert")
    reduced, pivots = rref(m.hstack(Matrix.identity(m.field, m.rows)))
    if pivots != list(range(m.rows)):
        raise ValueError("matrix is singular")
    return Matrix(m.field, reduced.data[:, m.rows:].copy())


def intersect_kernels(field: Field, dim: int, constraints) -> Matrix:
    """Common kernel of sparse operators C_1, C_2, ... on k^dim (each a
    `SparseMatrix` with dim columns), one at a time.

    The basis K starts as the identity and shrinks to K @ ker(C_i @ K):
    the first step densifies C_1 itself (`to_dense`), later ones form
    C_i @ K (`dense_product`), and each image is echelonned in place.  A
    constraint that vanishes on K is skipped, and the loop stops once K is
    empty; K is returned.  Products of reduced kernel bases are reduced, so the result is
    the basis that kernel_basis of the stacked matrix [C_1; C_2; ...]
    gives, entry for entry, without the stack.  A step holds the image and
    the echelon's buffer, two arrays of at most max(rows, dim) x K.cols
    cells; a step over DENSE_RANK_CELLS raises BudgetExceeded before it
    builds anything.
    """
    basis = None  # the identity until a constraint cuts it down
    for op in constraints:
        width = dim if basis is None else basis.cols
        if width == 0:
            break
        require_cells(max(op.rows, dim) * width,
                      f"common kernel step needs a dense {max(op.rows, dim)} x {width} matrix")
        image = op.to_dense() if basis is None else op.dense_product(basis)
        if not image.is_zero():
            kernel = Matrix(field, _kernel(image.data, field))
            del image  # before the product allocates its own arrays
            basis = kernel if basis is None else basis @ kernel
    return Matrix.identity(field, dim) if basis is None else basis
