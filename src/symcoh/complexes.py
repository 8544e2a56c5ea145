"""Bounded cochain complexes carried by subspaces of ambient coordinate spaces.

A complex holds degrees 0..N with a differential per degree n < N.
Degree N is only the target of the last differential, so its cohomology
is never taken: `cohomology_dims` gives H^0..H^(N-1).  The space at each
degree is a subspace of the ambient coordinate space with an explicit
sparse basis and a sparse left inverse ("coords"), so restricting
operators to the subspace is a cheap composition instead of a linear
solve.  A space spanned by a kernel (`CochainSpace.of`) has a reduced
basis, as `linalg.kernel_basis` defines it, so its coords are read, not
solved: they select each column's free coordinate, its last nonzero row.

A fixed subcomplex replaces each space below the top by the common fixed
points of its symmetric-group generators, and keeps the top space as it
is; at every degree, the top included, the generators are certified to
preserve the space.  When every restricted generator is a monomial
matrix (a signed permutation, as for a group algebra with a permutation
module) the fixed points are a sum over orbits, read off by label
propagation with no dense array; otherwise they are a common kernel
(`linalg.intersect_kernels`).  Both give the same basis and coords.
It is built one degree at a time (`fixed_degrees`) from a realization's
spaces, generators and differential images, so no whole ambient complex
is held; `fixed_cohomology` ranks its restricted differentials.

Cohomology dimensions come from exact ranks of the restricted
differentials.  Over prime fields that is one dense elimination; over
the rationals every rank first tries a certified sandwich rank (one
Gram rank mod a prime, a lower bound, meeting the d.d = 0 upper bound,
or min(rows, cols) where the complex gives none), with a dense Fraction
elimination as the always-correct fallback.  So the cochain pipeline
eliminates in two places: kernels in `intersect_kernels`, ranks in
`cohomology_dims`.  The exactness of a chain complex is the cohomology
of its dual, so it is counted there too
(`resolution.ResolutionComplex.exactness_report`); only the induced maps
on cohomology solve on their own.

Both routes, `bar` and `resolution`, take `require_cocommutative` from
here, so neither route imports the other; each returns its cohomology as
the plain list of `cohomology_dims`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ActionLeavesSubspace, ActionNotCompatible, BudgetExceeded, NotASubcomplex,
                     NotCocommutative)
from .fields import Field
from .hopf import HopfAlgebra
from .linalg import (DENSE_RANK_CELLS, Matrix, Subspace, intersect_kernels, kernel_basis,
                     quotient, rank, solve_columns)
from .sparse import SparseMatrix, integer_gram

_SANDWICH_PRIME = 1000003


class CochainSpace:
    """A subspace of k^ambient with basis and a left inverse of the basis."""

    __slots__ = ("ambient_dim", "basis", "coords", "is_full")

    def __init__(self, ambient_dim: int, basis: SparseMatrix, coords: SparseMatrix,
                 is_full: bool = False):
        if basis.rows != ambient_dim or coords.cols != ambient_dim:
            raise ValueError("basis/coords must live in the ambient space")
        if basis.cols != coords.rows:
            raise ValueError("coords must be a left inverse of basis")
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.coords = coords
        self.is_full = is_full

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "CochainSpace":
        eye = SparseMatrix.identity(field, ambient_dim)
        return CochainSpace(ambient_dim, eye, eye, is_full=True)

    @staticmethod
    def of(sub: Subspace) -> "CochainSpace":
        """The span of a reduced Subspace basis (see linalg.kernel_basis),
        with coords selecting each column's free coordinate, its last
        nonzero row: coords @ basis = 1 there, checked one entry at a time."""
        basis = SparseMatrix.from_dense(sub.basis)
        rows, cols, _vals = basis.triples()
        free = rows[np.flatnonzero(np.diff(cols, append=basis.cols))]  # last row of each column
        coords = SparseMatrix(basis.field, basis.cols, sub.ambient_dim,
                              (np.arange(len(free), dtype=np.int64), free, None))
        if not (coords @ basis).equals_identity():
            raise ValueError("the basis is not reduced")
        return CochainSpace(sub.ambient_dim, basis, coords)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains(self, vecs: SparseMatrix) -> bool:
        """Whether every column of vecs lies in the space, by the coords
        round trip (valid since coords.basis = id)."""
        return self.basis @ (self.coords @ vecs) == vecs


@dataclass
class CochainComplex:
    field: Field
    top_degree: int
    spaces: list  # CochainSpace per degree 0..N
    diffs: list   # SparseMatrix per degree 0..N-1, ambient(n) -> ambient(n+1)

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


def require_cocommutative(h: HopfAlgebra):
    if not h.is_cocommutative:
        raise NotCocommutative("the symmetric-group action needs tw . comult = comult")


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
    """Exact rank over Q: certify rank == upper by the lower bound
    rank(M^T M mod q) <= rank(M mod q) <= rank(M), M with its columns
    scaled to integers and q = _SANDWICH_PRIME, where min(rows, cols)
    serves as upper when the complex gives none; when the bound falls
    short, fall back to the exact dense Fraction elimination."""
    if sm.rows == 0 or sm.cols == 0 or sm.is_zero():
        return 0
    if upper is None:
        upper = min(sm.rows, sm.cols)
    if rank(integer_gram(_integerize_columns(sm), _SANDWICH_PRIME)) == upper:
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


def cohomology_dims(c: CochainComplex) -> list:
    """Exact dims of H^0..H^(top-1); the top space is only the target of
    the last differential."""
    top = c.top_degree
    for n in range(top):
        # the rank densifies the rows x cols differential, over Q perhaps its
        # cols x cols Gram matrix as well
        rows, cols = c.spaces[n + 1].dim, c.spaces[n].dim
        cells = max(rows, cols) * cols if c.field.is_rational else rows * cols
        if cells > DENSE_RANK_CELLS:
            raise BudgetExceeded(
                f"rank of the degree-{n} differential needs a dense {rows} x {cols} "
                f"matrix, over the limit of {DENSE_RANK_CELLS} cells")
    reduced = {n: c.restricted_diff(n) for n in range(top)}
    ranks = [0]  # ranks[n + 1] is the rank of the degree-n differential
    for n in range(top):
        ranks.append(_restricted_rank(c, reduced, n, ranks[-1]))
    dims = []
    for n in range(top):
        dims.append(c.spaces[n].dim - ranks[n + 1] - ranks[n])
        if dims[-1] < 0:
            raise AssertionError(f"H^{n} came out with negative dimension {dims[-1]}: "
                                 "the ranks contradict d.d = 0")
    return dims


# -- fixed subcomplexes ---------------------------------------------------


def restrict_operator(space: CochainSpace, op: SparseMatrix) -> SparseMatrix:
    """op in subspace coordinates; error if op does not preserve the subspace.
    Every op preserves a full space, in its own coordinates: op is returned."""
    if space.is_full:
        return op
    mapped = op @ space.basis
    reduced = space.coords @ mapped
    if not (space.basis @ reduced == mapped):
        raise ActionLeavesSubspace("operator does not preserve the subspace")
    return reduced


def _monomial(op: SparseMatrix):
    """(perm, vals) of a square op with one entry per column, its rows a
    permutation (op e_j = vals[j] e_perm[j]); None for any other op."""
    if op.nnz() != op.cols or not np.array_equal(op.col_idx, np.arange(op.cols)):
        return None
    if not (np.bincount(op.row_idx, minlength=op.rows) == 1).all():
        return None
    return op.row_idx, op.vals


def _orbit_fixed_space(field: Field, dim: int, gens: list) -> CochainSpace:
    """The common fixed space of the monomial operators gens, each a pair
    (perm, vals) of `_monomial`, as CochainSpace.of(intersect_kernels(...))
    of their sigma - 1 would give it, matrix for matrix.

    A fixed v satisfies v[perm[j]] = vals[j] v[j], so the fixed space is
    the sum over the orbits of the perms: an orbit carries one fixed vector
    up to scale, or none when its edges disagree.  In the reduced kernel
    basis the free coordinate of an orbit is its largest index, its root,
    so its vector is 1 there, and the vectors are ordered by that index;
    coords reads each orbit at its root.
    """
    idx = np.arange(dim, dtype=np.int64)
    label = idx  # per index, the largest index of its orbit seen so far
    while True:
        seen = label
        for perm, _vals in gens:
            seen = np.maximum(seen, seen[perm])
            seen[perm] = np.maximum(seen[perm], seen)
        seen = seen[seen]
        if np.array_equal(seen, label):
            break
        label = seen
    # values from 1 at each orbit's largest index, along one edge at a time;
    # a permutation's inverse is a power of it, so forward edges reach the orbit
    vals = np.full(dim, field.zero(), dtype=field.dtype)
    known = label == idx
    vals[known] = field.one()
    while not known.all():
        for perm, c in gens:
            out = known & ~known[perm]
            vals[perm[out]] = field.reduce(c[out] * vals[out])
            known[perm[out]] = True
    dead = np.zeros(dim, dtype=bool)
    for perm, c in gens:
        dead[label[field.reduce(c * vals) != vals[perm]]] = True
    roots = np.flatnonzero((label == idx) & ~dead)
    alive = np.flatnonzero(~dead[label])
    return CochainSpace(
        dim,
        SparseMatrix(field, dim, len(roots),
                     (alive, np.searchsorted(roots, label[alive]), vals[alive])),
        SparseMatrix(field, len(roots), dim, (np.arange(len(roots), dtype=np.int64), roots, None)))


def _fixed_space(field: Field, space: CochainSpace, sigmas: list) -> CochainSpace:
    """The common fixed space of sigmas inside space, in ambient
    coordinates, or space itself when all of it is fixed: by orbits when
    every restricted generator is monomial (certified by sigma B == B for
    each), else by `intersect_kernels` of sigma - 1, each step bounded by
    DENSE_RANK_CELLS.  In a full space the fixed points are taken as they
    are, since its coordinates are the ambient ones."""
    restricted = [restrict_operator(space, sigma) for sigma in sigmas]
    gens = [_monomial(op) for op in restricted]
    if any(g is None for g in gens):
        eye = SparseMatrix.identity(field, space.dim)
        sub = intersect_kernels(field, space.dim, [op - eye for op in restricted])
        fixed = space if sub.dim == space.dim else CochainSpace.of(sub)
    else:
        fixed = _orbit_fixed_space(field, space.dim, gens)
        for op in restricted:
            if not (op @ fixed.basis == fixed.basis):
                raise AssertionError("an orbit vector is not fixed by its generators")
    if fixed.dim == space.dim:
        return space
    return fixed if space.is_full else CochainSpace(space.ambient_dim, space.basis @ fixed.basis,
                                                    fixed.coords @ space.coords)


def fixed_degrees(field: Field, spaces: list, sigmas, image):
    """The fixed subcomplex of a realization, one degree at a time: for
    n = 0..top, yield the fixed space of degree n in ambient coordinates
    and the restricted differential into it (None at degree 0).  spaces
    holds each degree's space, highest first, popped when its degree is
    reached; sigmas(n) forms the generators on ambient(n), and image(n,
    fixed) the image of a fixed space of degree n under the differential.
    Below the top, the fixed points replace the space (`_fixed_space`); the
    top space is kept, its generators certified.  The image of the fixed
    space below is formed once, checked to be fixed by the generators and
    read off in the coords of the fixed space; then the generators, the
    image and the space below are dropped."""
    top, below = len(spaces) - 1, None
    for n in range(top + 1):
        space, ops = spaces.pop(), sigmas(n)
        for sigma in ops if n == top else ():
            restrict_operator(space, sigma)
        fixed = _fixed_space(field, space, ops) if ops and n < top else space
        mapped = image(n - 1, below) if n else None
        for sigma in ops if n else ():  # a fixed vector must stay fixed under the differential
            if not (sigma @ mapped == mapped):
                raise ActionNotCompatible(f"differential image at degree {n - 1} is not fixed")
        diff = mapped if n == 0 or fixed.is_full else fixed.coords @ mapped
        del space, ops, mapped
        below = fixed
        yield fixed, diff


def fixed_cohomology(field: Field, degrees) -> list:
    """cohomology_dims of the subcomplex that `fixed_degrees` yields, ranked
    on full spaces of the fixed dimensions."""
    dims, diffs = [], []
    for fixed, diff in degrees:
        dims.append(fixed.dim)
        diffs += [] if diff is None else [diff]
    return cohomology_dims(CochainComplex(field, len(diffs),
                                          [CochainSpace.full(field, s) for s in dims], diffs))


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
    cocycles = kernel_basis(c.restricted_diff(n).to_dense())
    if n == 0:
        image_in_z = Matrix.zeros(c.field, cocycles.dim, 0)
    else:
        image_in_z = solve_columns(cocycles, c.restricted_diff(n - 1).to_dense())
        if image_in_z is None:
            raise NotASubcomplex("image column is not a cocycle")
    proj, sect = quotient(cocycles.dim, image_in_z)
    return cocycles, proj, sect


def induced_map_on_cohomology(sub: CochainComplex, full: CochainComplex) -> InducedMapReport:
    """Matrices of H^n(sub) -> H^n(full), n < top, for the inclusion, with
    injectivity flags."""
    top = sub.top_degree
    if full.top_degree != top or \
            any(sub.ambient_dim(n) != full.ambient_dim(n) for n in range(top + 1)):
        raise NotASubcomplex("ambient spaces disagree")
    for n in range(top):
        if not (sub.diffs[n] == full.diffs[n]):
            raise NotASubcomplex("differentials disagree")
    for n in range(top):
        if not full.spaces[n].contains(sub.spaces[n].basis):
            raise NotASubcomplex(f"space at degree {n} is not contained")
    degrees, matrices, injective = [], [], []
    for n in range(top):
        z_sub, _proj_sub, sect_sub = _cohomology_basis(sub, n)
        z_full, proj_full, _sect_full = _cohomology_basis(full, n)
        reps = z_sub.basis @ sect_sub  # cocycle representatives of H^n(sub) basis
        # subspace-coordinate cocycle representatives -> ambient -> full coordinates
        full_red = (full.spaces[n].coords @ (sub.spaces[n].basis
                                             @ SparseMatrix.from_dense(reps))).to_dense()
        coords = solve_columns(z_full, full_red)
        if coords is None:
            raise NotASubcomplex("sub cocycle is not a cocycle in the full complex")
        mat = proj_full @ coords
        degrees.append(n)
        matrices.append(mat)
        injective.append(rank(mat) == mat.cols)
    return InducedMapReport(degrees, matrices, injective)
