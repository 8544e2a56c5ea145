"""Bounded cochain complexes carried by subspaces of ambient coordinate spaces.

A complex holds degrees 0..N with a differential per degree n < N.  The
space at each degree is a subspace of the ambient coordinate space with
an explicit sparse basis and a sparse left inverse ("coords"), so
restricting operators to the subspace is a cheap composition instead of
a linear solve.

Cohomology dimensions come from exact ranks of the restricted
differentials.  Over prime fields that is one dense elimination; over
the rationals every rank first tries a certified sandwich rank (a
modular lower bound meeting the d.d = 0 upper bound, or min(rows, cols)
where the complex gives none), with a dense Fraction elimination as the
always-correct fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ActionLeavesSubspace, ActionNotCompatible, BudgetExceeded,
                     DegreeOutOfRange, NotASubcomplex)
from .fields import Field
from .linalg import (DENSE_RANK_CELLS, Matrix, intersect_kernels, inverse, kernel_basis,
                     quotient, rank, rref, solve_membership)
from .sparse import SparseMatrix, integer_gram, integer_mod

_SANDWICH_PRIMES = (1000003, 999983, 1000033)


class CochainSpace:
    """A subspace of k^ambient with basis and a left inverse of the basis."""

    __slots__ = ("ambient_dim", "basis", "coords", "is_full")

    def __init__(self, ambient_dim: int, basis: SparseMatrix, coords: SparseMatrix,
                 check: bool = True, is_full: bool = False):
        if basis.rows != ambient_dim or coords.cols != ambient_dim:
            raise ValueError("basis/coords must live in the ambient space")
        if basis.cols != coords.rows:
            raise ValueError("coords must be a left inverse of basis")
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.coords = coords
        self.is_full = is_full
        if check and not (coords @ basis).equals_identity():
            raise ValueError("coords is not a left inverse of basis")

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "CochainSpace":
        eye = SparseMatrix.identity(field, ambient_dim)
        return CochainSpace(ambient_dim, eye, eye, check=False, is_full=True)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains(self, vecs: SparseMatrix) -> bool:
        """Whether every column of vecs lies in the space, by the coords
        round trip (valid since coords.basis = id)."""
        return self.basis @ (self.coords @ vecs) == vecs

    def __repr__(self):
        return f"CochainSpace(dim {self.dim} of k^{self.ambient_dim})"


@dataclass
class ActionOperator:
    """Matrices of the adjacent-transposition generators on one ambient degree."""

    degree: int
    sigmas: list  # sigmas[i-1] is the operator of the transposition (i, i+1)


@dataclass
class CochainComplex:
    field: Field
    top_degree: int
    spaces: list  # CochainSpace per degree 0..N
    diffs: list   # SparseMatrix per degree 0..N-1, ambient(n) -> ambient(n+1)
    label: str = ""

    def ambient_dim(self, n: int) -> int:
        return self.spaces[n].ambient_dim

    def restricted_diff(self, n: int) -> SparseMatrix:
        """The differential space(n) -> space(n+1) in subspace coordinates."""
        out = self.diffs[n]
        if not self.spaces[n].is_full:
            out = out @ self.spaces[n].basis
        if not self.spaces[n + 1].is_full:
            out = self.spaces[n + 1].coords @ out
        return out


# -- exact ranks of restricted differentials ------------------------------


def _integerize_columns(sm: SparseMatrix) -> SparseMatrix:
    """Scale each column by the lcm of its denominators (rank-preserving),
    leaving Python ints as values."""
    rows, cols, vals = sm.triples()
    lcm = np.ones(sm.cols, dtype=object)
    np.lcm.at(lcm, cols, np.array([v.denominator for v in vals], dtype=object))
    ints = np.array([v.numerator for v in vals * lcm[cols]], dtype=object)
    return SparseMatrix(sm.field, sm.rows, sm.cols, (rows, cols, ints))


def _certified_rational_rank(sm: SparseMatrix, upper: int | None) -> int:
    """Exact rank over Q.

    First try to certify rank == upper via a modular lower bound (over Q,
    column independence mod q implies independence, and rank(M^T M) =
    rank(M)); without an upper bound from the complex, min(rows, cols)
    serves.  On failure fall back to the exact dense Fraction elimination.
    """
    if sm.rows == 0 or sm.cols == 0 or sm.is_zero():
        return 0
    if upper is None:
        upper = min(sm.rows, sm.cols)
    scaled = _integerize_columns(sm)
    for q in _SANDWICH_PRIMES:
        if rank(integer_gram(scaled, q)) == upper:
            return upper
    if rank(integer_mod(scaled, _SANDWICH_PRIMES[0]).to_dense()) == upper:
        return upper
    return rank(sm.to_dense())


def _restricted_rank(c: CochainComplex, reduced, n: int, prev_rank: int) -> int:
    sm = reduced[n]
    if sm.cols == 0 or sm.rows == 0:
        return 0
    if not c.field.is_rational:
        return rank(sm.to_dense())
    upper = None
    if n > 0:
        # valid upper bound only when im(d^{n-1}) lies in ker(d^n); verify it
        if (sm @ reduced[n - 1]).is_zero():
            upper = c.spaces[n].dim - prev_rank
    return _certified_rational_rank(sm, upper)


def cohomology_dims(c: CochainComplex, up_to: int) -> list:
    """Exact dims of H^0..H^up_to; needs up_to < top_degree."""
    if not (0 <= up_to < c.top_degree):
        raise DegreeOutOfRange(
            f"up_to must lie in 0..{c.top_degree - 1}, got {up_to}")
    for n in range(up_to + 1):
        # the rank densifies the rows x cols differential, over Q perhaps its
        # cols x cols Gram matrix as well
        rows, cols = c.spaces[n + 1].dim, c.spaces[n].dim
        cells = max(rows, cols) * cols if c.field.is_rational else rows * cols
        if cells > DENSE_RANK_CELLS:
            raise BudgetExceeded(
                f"rank of the degree-{n} differential needs a dense {rows} x {cols} "
                f"matrix, over the limit of {DENSE_RANK_CELLS} cells")
    reduced = {n: c.restricted_diff(n) for n in range(up_to + 1)}
    ranks = []
    prev = 0
    for n in range(up_to + 1):
        r = _restricted_rank(c, reduced, n, prev)
        ranks.append(r)
        prev = r
    dims = []
    for n in range(up_to + 1):
        below = ranks[n - 1] if n > 0 else 0
        dims.append(c.spaces[n].dim - ranks[n] - below)
        if dims[-1] < 0:
            raise AssertionError(f"H^{n} came out with negative dimension {dims[-1]}: "
                                 "the ranks contradict d.d = 0")
    return dims


# -- fixed subcomplexes ---------------------------------------------------


def _left_inverse_dense(m: Matrix) -> Matrix:
    """A deterministic left inverse of a full-column-rank dense matrix: the
    inverse of its pivot rows, placed at those rows."""
    _, pivots = rref(m.transpose())
    # pivots of m^T are the pivot rows of m
    if len(pivots) != m.cols:
        raise ValueError("matrix does not have full column rank")
    left = Matrix.zeros(m.field, m.cols, m.rows)
    left.data[:, pivots] = inverse(Matrix(m.field, m.data[pivots])).data
    return left


def restrict_operator(space: CochainSpace, op: SparseMatrix) -> SparseMatrix:
    """op in subspace coordinates; error if op does not preserve the subspace."""
    mapped = op @ space.basis
    reduced = space.coords @ mapped
    if not (space.basis @ reduced == mapped):
        raise ActionLeavesSubspace("operator does not preserve the subspace")
    return reduced


def fixed_subcomplex(c: CochainComplex, ops: list, through_degree: int | None = None) -> CochainComplex:
    """Replace space(n) by its intersection with the fixed points of ops[n].

    ops[n].sigmas act on ambient(n) and must preserve space(n).  The fixed
    points are the common kernel of the restricted sigma - 1, found by
    `intersect_kernels` one generator at a time: each step is one sparse
    times dense product on the s x (fixed so far) basis, bounded by
    DENSE_RANK_CELLS, and no (#sigma * s) x s stack is built.  Degrees
    above `through_degree` (default: all) keep their original space; the
    differential-compatibility check runs at every restricted degree.
    """
    if through_degree is None:
        through_degree = c.top_degree
    field = c.field
    new_spaces = []
    for n in range(c.top_degree + 1):
        space = c.spaces[n]
        sigmas = ops[n].sigmas if n < len(ops) and ops[n] is not None else []
        if n > through_degree or not sigmas:
            new_spaces.append(space)
            continue
        s = space.dim
        restricted = [restrict_operator(space, sigma) for sigma in sigmas]
        fixed = intersect_kernels(field, s, [
            (s, lambda k, red=red: red.dense_product(k) - k) for red in restricted])
        fdim = fixed.dim
        if fdim == s:
            new_spaces.append(space)
            continue
        if fdim == 0:
            zero_basis = SparseMatrix(field, space.ambient_dim, 0)
            zero_coords = SparseMatrix(field, 0, space.ambient_dim)
            new_spaces.append(CochainSpace(space.ambient_dim, zero_basis,
                                           zero_coords, check=False))
            continue
        fb = SparseMatrix.from_dense(fixed.basis)
        lb = SparseMatrix.from_dense(_left_inverse_dense(fixed.basis))
        new_spaces.append(CochainSpace(space.ambient_dim,
                                       space.basis @ fb,
                                       lb @ space.coords, check=False))
    out = CochainComplex(field, c.top_degree, new_spaces, c.diffs,
                         label=c.label + " fixed")
    # a fixed vector must stay fixed after applying the differential
    for n in range(min(through_degree + 1, c.top_degree)):
        next_sigmas = ops[n + 1].sigmas if n + 1 < len(ops) and ops[n + 1] is not None else []
        if not next_sigmas:
            continue
        image = c.diffs[n] @ out.spaces[n].basis
        for sigma in next_sigmas:
            if not (sigma @ image == image):
                raise ActionNotCompatible(
                    f"differential image at degree {n} is not fixed")
    return out


# -- induced maps on cohomology -------------------------------------------


@dataclass
class InducedMapReport:
    degrees: list
    matrices: list
    injective: list

    def matrix(self, n: int) -> Matrix:
        return self.matrices[self.degrees.index(n)]

    def is_injective(self, n: int) -> bool:
        return self.injective[self.degrees.index(n)]


def _cohomology_basis(c: CochainComplex, n: int):
    """Cocycle kernel basis at degree n with the projection onto H^n and a
    section choosing cocycle representatives of the quotient basis."""
    dn = c.restricted_diff(n).to_dense()
    cocycles = kernel_basis(dn)
    if n == 0:
        image_in_z = Matrix.zeros(c.field, cocycles.dim, 0)
    else:
        prev = c.restricted_diff(n - 1).to_dense()
        coords_cols = []
        for j in range(prev.cols):
            coords = solve_membership(cocycles, prev.column(j))
            if coords is None:
                raise NotASubcomplex("image column is not a cocycle")
            coords_cols.append(coords)
        image_in_z = Matrix.from_columns(c.field, coords_cols, rows=cocycles.dim)
    proj, sect = quotient(cocycles.dim, image_in_z)
    return cocycles, proj, sect


def induced_map_on_cohomology(sub: CochainComplex, full: CochainComplex,
                              up_to: int) -> InducedMapReport:
    """Matrices of H^n(sub) -> H^n(full) for the inclusion, with injectivity flags."""
    if sub.top_degree != full.top_degree or up_to >= sub.top_degree or \
            any(sub.ambient_dim(n) != full.ambient_dim(n)
                for n in range(min(up_to + 2, sub.top_degree + 1))):
        raise NotASubcomplex("ambient spaces disagree")
    for n in range(min(up_to + 2, sub.top_degree)):
        if not (sub.diffs[n] == full.diffs[n]):
            raise NotASubcomplex("differentials disagree")
    for n in range(up_to + 1):
        if not full.spaces[n].contains(sub.spaces[n].basis):
            raise NotASubcomplex(f"space at degree {n} is not contained")
    degrees, matrices, injective = [], [], []
    for n in range(up_to + 1):
        z_sub, _proj_sub, sect_sub = _cohomology_basis(sub, n)
        z_full, proj_full, _sect_full = _cohomology_basis(full, n)
        reps = z_sub.basis @ sect_sub  # cocycle representatives of H^n(sub) basis
        # subspace-coordinate cocycle representatives -> ambient -> full coordinates
        full_red = (full.spaces[n].coords @ (sub.spaces[n].basis
                                             @ SparseMatrix.from_dense(reps))).to_dense()
        cols = []
        for j in range(reps.cols):
            coords = solve_membership(z_full, full_red.column(j))
            if coords is None:
                raise NotASubcomplex("sub cocycle is not a cocycle in the full complex")
            cols.append(proj_full.matvec(coords))
        mat = Matrix.from_columns(full.field, cols, rows=proj_full.rows)
        degrees.append(n)
        matrices.append(mat)
        injective.append(rank(mat) == mat.cols)
    return InducedMapReport(degrees, matrices, injective)
