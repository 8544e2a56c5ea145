"""Bounded cochain complexes as lists of restricted differentials.

A complex of degrees 0..N is the list of its differentials d^0..d^(N-1)
in subspace coordinates, each degree's dimension read off their shapes.
Degree N is only the target of the last differential, so its cohomology
is never taken: `cohomology_dims` gives H^0..H^(N-1).  A subspace of an
ambient coordinate space (`CochainSpace`) has a sparse basis and a
sparse left inverse ("coords"), and `read_in` reads every operator into
it, certified: an image outside the space is refused.  A space spanned
by a kernel (`CochainSpace.of`) has a reduced basis, as
`linalg.kernel_basis` defines it, so its coords are read, not solved:
they select each column's free coordinate, its last nonzero row.

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
is held; `fixed_cohomology` ranks the read-in differentials it yields.

Cohomology dimensions come from exact ranks of the restricted
differentials.  Over prime fields that is one dense elimination, or for
a tall one past DENSE_RANK_CELLS cols - dim ker by `intersect_kernels`
on blocks of rows; over the rationals every rank first tries a certified
sandwich rank (one Gram rank mod a prime, a lower bound, meeting the
d.d = 0 upper bound, or min(rows, cols) where the complex gives none),
with a dense Fraction elimination as the always-correct fallback.  The
exactness of a chain complex is the cohomology of its dual, so it is
counted there too (`resolution.ResolutionComplex.exactness_report`), and
so is the Hom route (`resolution.sh_via_resolution`); only the induced
maps on cohomology solve on their own.

Both routes, `bar` and `resolution`, take `require_cocommutative` from
here, so neither route imports the other; each returns its cohomology as
the plain list of `cohomology_dims`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ActionLeavesSubspace, ActionNotCompatible, NotASubcomplex, NotCocommutative
from .fields import Field
from .hopf import HopfAlgebra
from .linalg import (DENSE_RANK_CELLS, Matrix, intersect_kernels, kernel_basis, quotient, rank,
                     require_cells, solve_columns)
from .sparse import SparseMatrix, integer_gram

_SANDWICH_PRIME = 1000003


class CochainSpace:
    """A subspace of k^ambient_dim with basis and a left inverse of the basis."""

    __slots__ = ("basis", "coords", "is_full")

    def __init__(self, basis: SparseMatrix, coords: SparseMatrix, is_full: bool = False):
        self.basis, self.coords, self.is_full = basis, coords, is_full
        if (coords.rows, coords.cols) != (self.dim, self.ambient_dim):
            raise ValueError("coords must be a left inverse of basis")

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "CochainSpace":
        eye = SparseMatrix.identity(field, ambient_dim)
        return CochainSpace(eye, eye, is_full=True)

    @staticmethod
    def of(kernel: Matrix) -> "CochainSpace":
        """The span of a reduced kernel basis (see linalg.kernel_basis),
        with coords selecting each column's free coordinate, its last
        nonzero row: coords @ basis = 1 there, checked one entry at a time."""
        basis = SparseMatrix.from_dense(kernel)
        rows, cols, _vals = basis.triples()
        free = rows[np.flatnonzero(np.diff(cols, append=basis.cols))]  # last row of each column
        coords = SparseMatrix(basis.field, basis.cols, basis.rows,
                              (np.arange(len(free), dtype=np.int64), free, None))
        if not (coords @ basis).equals_identity():
            raise ValueError("the basis is not reduced")
        return CochainSpace(basis, coords)

    @property
    def ambient_dim(self) -> int:
        return self.basis.rows

    @property
    def dim(self) -> int:
        return self.basis.cols


def read_in(space: CochainSpace, mapped: SparseMatrix) -> SparseMatrix:
    """coords @ mapped, unless a column of mapped lies outside the space:
    then basis @ (coords @ mapped) != mapped, and ActionLeavesSubspace.  A
    full space's coords are the ambient ones: mapped is returned."""
    if space.is_full:
        return mapped
    reduced = space.coords @ mapped
    if not (space.basis @ reduced == mapped):
        raise ActionLeavesSubspace("an image leaves the subspace it is read in")
    return reduced


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


def _restricted_rank(diffs: list, n: int, prev_rank: int) -> int:
    sm = diffs[n]
    if sm.cols == 0 or sm.rows == 0:
        return 0
    if not sm.field.is_rational:
        if sm.rows * sm.cols <= DENSE_RANK_CELLS:
            return rank(sm.to_dense())
        r, col, v = sm.triples()  # cols - dim ker, cut by blocks of cols/2 rows
        half = max(sm.cols // 2, 1)
        blocks = (SparseMatrix(sm.field, half, sm.cols, (r[at] - lo, col[at], v[at]))
                  for lo in range(0, sm.rows, half)
                  for at in [np.flatnonzero((r >= lo) & (r < lo + half))])
        return sm.cols - intersect_kernels(sm.field, sm.cols, blocks).cols
    upper = None
    if n > 0:
        # valid upper bound only when im(d^{n-1}) lies in ker(d^n); verify it
        if (sm @ diffs[n - 1]).is_zero():
            upper = sm.cols - prev_rank
    return _certified_rational_rank(sm, upper)


def cohomology_dims(diffs: list) -> list:
    """Exact dims of H^0..H^(top-1) of the complex of the restricted
    differentials diffs[n]: degree n -> n+1, degree n of diffs[n].cols
    dimensions; differentials that do not compose are a ValueError."""
    for n in range(1, len(diffs)):
        if diffs[n].cols != diffs[n - 1].rows:
            raise ValueError(f"the degree-{n - 1} and degree-{n} differentials do not compose: "
                             f"{diffs[n - 1].rows} rows against {diffs[n].cols} columns")
    for n, sm in enumerate(diffs):
        # the rank densifies the rows x cols differential (over GF(p), at most
        # cols x cols at a time), over Q perhaps its Gram matrix as well
        side = max(sm.rows, sm.cols) if sm.field.is_rational else min(sm.rows, sm.cols)
        require_cells(side * sm.cols, f"rank of the degree-{n} differential needs a dense "
                                      f"{sm.rows} x {sm.cols} matrix")
    ranks = [0]  # ranks[n + 1] is the rank of the degree-n differential
    for n in range(len(diffs)):
        ranks.append(_restricted_rank(diffs, n, ranks[-1]))
    dims = []
    for n, sm in enumerate(diffs):
        dims.append(sm.cols - ranks[n + 1] - ranks[n])
        if dims[-1] < 0:
            raise AssertionError(f"H^{n} came out with negative dimension {dims[-1]}: "
                                 "the ranks contradict d.d = 0")
    return dims


# -- fixed subcomplexes ---------------------------------------------------


def restrict_operator(space: CochainSpace, op: SparseMatrix) -> SparseMatrix:
    """op in subspace coordinates, certified by `read_in` to preserve the
    subspace.  Every op preserves a full space, in its own coordinates: op
    is returned, with no product formed."""
    return read_in(space, op if space.is_full else op @ space.basis)


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
        kernel = intersect_kernels(field, space.dim, [op - eye for op in restricted])
        fixed = space if kernel.cols == space.dim else CochainSpace.of(kernel)
    else:
        fixed = _orbit_fixed_space(field, space.dim, gens)
        for op in restricted:
            if not (op @ fixed.basis == fixed.basis):
                raise AssertionError("an orbit vector is not fixed by its generators")
    if fixed.dim == space.dim:
        return space
    return fixed if space.is_full else CochainSpace(space.basis @ fixed.basis,
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
    read in by `read_in` (the fixed space is Fix(sigma) meet the space, so
    a fixed image need not lie in it); then the generators, the image and
    the space below are dropped."""
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
        diff = mapped if n == 0 else read_in(fixed, mapped)
        del space, ops, mapped
        below = fixed
        yield fixed, diff


def fixed_cohomology(degrees) -> list:
    """cohomology_dims of the restricted differentials that `fixed_degrees`
    yields, each fixed space dropped as the next degree is reached."""
    return cohomology_dims([diff for _fixed, diff in degrees if diff is not None])


# -- induced maps on cohomology -------------------------------------------


class InducedMapReport(NamedTuple):
    degrees: list
    matrices: list
    injective: list

    def matrix(self, n: int) -> Matrix:
        return self.matrices[self.degrees.index(n)]

    def is_injective(self, n: int) -> bool:
        return self.injective[self.degrees.index(n)]


def _cohomology_basis(diffs: list, n: int):
    """Cocycle kernel basis at degree n of diffs with the projection onto
    H^n and a section choosing cocycle representatives of the quotient basis."""
    cocycles = kernel_basis(diffs[n].to_dense())
    if n == 0:
        image_in_z = Matrix.zeros(cocycles.field, cocycles.cols, 0)
    else:
        image_in_z = solve_columns(cocycles, diffs[n - 1].to_dense())
        if image_in_z is None:
            raise NotASubcomplex("image column is not a cocycle")
    proj, sect = quotient(cocycles.cols, image_in_z)
    return cocycles, proj, sect


def induced_map_on_cohomology(diffs: list, sub_spaces: list,
                              full_spaces: list) -> InducedMapReport:
    """Matrices of H^n(sub) -> H^n(full), n < top, for the inclusion, with
    injectivity flags: the ambient differentials diffs[0..top-1] on the
    spaces sub_spaces and full_spaces of degrees 0..top, each differential
    and each sub space read into the full one by `read_in`."""
    top = len(diffs)
    if [s.ambient_dim for s in sub_spaces] != [f.ambient_dim for f in full_spaces]:
        raise NotASubcomplex("ambient spaces disagree")
    sub, full = ([read_in(spaces[n + 1], diffs[n] @ spaces[n].basis) for n in range(top)]
                 for spaces in (sub_spaces, full_spaces))
    degrees, matrices, injective = [], [], []
    for n in range(top):
        inclusion = read_in(full_spaces[n], sub_spaces[n].basis)
        z_sub, _proj_sub, sect_sub = _cohomology_basis(sub, n)
        z_full, proj_full, _sect_full = _cohomology_basis(full, n)
        # cocycle representatives of the H^n(sub) basis, in full coordinates
        reps = (inclusion @ SparseMatrix.from_dense(z_sub @ sect_sub)).to_dense()
        coords = solve_columns(z_full, reps)
        if coords is None:
            raise NotASubcomplex("sub cocycle is not a cocycle in the full complex")
        mat = proj_full @ coords
        degrees.append(n)
        matrices.append(mat)
        injective.append(rank(mat) == mat.cols)
    return InducedMapReport(degrees, matrices, injective)
