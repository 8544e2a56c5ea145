"""The coinvariant resolution of k: the quotients of tensor powers by the
signed permutation action, their induced module structures, the exact
augmented complex they form, the contracting homotopy, the Hom route to
SH and SHH, the projectivity splitting maps, and the cyclic-group rank
table.

The coinvariants have a sorted-tuple basis in any basis of A, since the
permutations only move tensor slots: Lambda^(n+1) A away from
characteristic 2 (repeated-entry tensors die and every tuple equals its
sorted form up to the permutation sign), Sym^(n+1) A in characteristic 2
(every tuple equals its sorted form).  Away from characteristic 2 all is
built on the d!/(d-n-1)! nonzeros of the projection P: P itself, the
induced maps and their self-checks (X descends exactly when X =
(X . section) . P, checked transposed on the rows of P), so no array spans
A^(tensor n+1); in characteristic 2, P spans it.  `_require_ambient` still
charges d^(n+1), up to DENSE_RANK_CELLS coordinates.

Every induced map stays sparse: the module actions, the boundaries, the
augmentation, the contracting homotopy and the splitting maps are
`SparseMatrix`, and their self-checks compare sparse composites, so no
dense product is formed.  Only ranks densify, and those of exactness and
of the Hom route go through `complexes.cohomology_dims`.

SHH needs no second resolution: SHH(A, M) = SH(A, ad M), the paper's
theorem, so the Hom route takes Hom_A(S_n, ad M) out of the same one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .complexes import (CochainComplex, CochainSpace, CohomologyReport, cohomology_dims,
                        require_cocommutative)
from .errors import BudgetExceeded, CharacteristicDivides, InvalidPrime, SchemaError
from .hopf import HopfAlgebra, cyclic_group_table
from .linalg import DENSE_RANK_CELLS, rank
from .modules import (Bimodule, LeftModule, adjoint_module, hom_equivariant,
                      regular_left_module, tensor_module, validate_module)
from .sparse import SparseMatrix, apply_columns, field_array
from .tensors import (bar_chain_columns, bar_chain_transpose_columns, cochain_precompose,
                      delete_slot, diagonal_columns, flat, swap_slots)


class CoinvariantSpace:
    """A^(tensor n+1) modulo the signed S_{n+1} action, with projection,
    section, labels and the induced module structure."""

    def __init__(self, degree, projection, section, labels, module: LeftModule | None):
        self.degree = degree
        self.projection = projection  # SparseMatrix dim x ambient
        self.section = section        # SparseMatrix ambient x dim
        self.basis_labels = labels
        self.module = module

    @property
    def dim(self) -> int:
        return self.projection.rows

    @property
    def ambient_dim(self) -> int:
        """d^(slots), or 0 for a vanishing degree (_sorted_tuple_coinvariants)."""
        return self.projection.cols

    @property
    def slots(self) -> int:
        return self.degree + 1

    def __repr__(self):
        return f"<Coinvariants degree {self.degree}, dim {self.dim}>"


def coinvariant_dim(d: int, n: int, characteristic: int) -> int:
    """dim of the degree-n coinvariants of a d-dimensional algebra:
    Lambda^(n+1) of a d-space, Sym^(n+1) in characteristic 2."""
    return comb(d + n, n + 1) if characteristic == 2 else comb(d, n + 1)


def _require_ambient(h: HopfAlgebra, top: int):
    """Refuse coinvariant spaces through degree `top` whose largest nonzero
    one (by its closed-form dimension) has an ambient A^(tensor n+1) over
    DENSE_RANK_CELLS coordinates, before anything is built."""
    n = top if h.field.characteristic == 2 else min(top, h.dim - 1)
    if h.dim ** (n + 1) > DENSE_RANK_CELLS:
        raise BudgetExceeded(
            f"the degree-{n} coinvariants live on {h.dim}^{n + 1} = {h.dim ** (n + 1)} "
            f"ambient coordinates, over the limit of {DENSE_RANK_CELLS}")


def _sorted_tuple_coinvariants(fld, d, slots):
    """Projection, section and labels of the sorted-tuple basis: strictly
    increasing tuples, where a tuple with distinct entries maps to its
    sorted label with the sign of the sorting permutation and any other
    tuple to zero; in characteristic 2, non-decreasing tuples, where every
    tuple maps to its sorted label (gathered from the labels' signed slot
    permutations, or in characteristic 2 by sorting every tuple).  Without
    labels (slots > d outside characteristic 2) both maps are 0 x 0: no
    index of the ambient is formed."""
    char2 = fld.characteristic == 2
    labels = list((itertools.combinations_with_replacement if char2
                   else itertools.combinations)(range(d), slots))
    if not labels:
        return SparseMatrix(fld, 0, 0), SparseMatrix(fld, 0, 0), labels
    label_idx = np.array([flat(lab, d) for lab in labels], dtype=np.int64)
    if char2:
        cols = np.arange(d ** slots, dtype=np.int64)
        powers = d ** np.arange(slots - 1, -1, -1, dtype=np.int64)
        rows = np.searchsorted(label_idx, powers @ np.sort(cols // powers[:, None] % d, axis=0))
        signs = None
    else:
        perms = np.array(list(itertools.permutations(range(slots))), dtype=np.int64)
        odd = np.triu(perms[:, :, None] > perms[:, None, :]).sum(axis=(1, 2)) % 2
        signs = np.tile(field_array(fld, [fld.one(), fld.neg(fld.one())])[odd], len(labels))
        entries, cols = np.array(labels, dtype=np.int64), 0
        for k in range(slots):  # each label with its slots permuted
            cols = cols * d + entries[:, perms[:, k]]
        rows = np.repeat(np.arange(len(labels), dtype=np.int64), len(perms))
    projection = SparseMatrix(fld, len(labels), d ** slots, (rows, cols.reshape(-1), signs))
    section = SparseMatrix(fld, d ** slots, len(labels),
                           (label_idx, np.arange(len(labels), dtype=np.int64), None))
    return projection, section, labels


def _induced(fld, rows, section, columns, project=None) -> SparseMatrix:
    """op . section, or project . op . section, as a sparse matrix with
    `rows` rows: an induced action, boundary, augmentation or homotopy,
    never densified.  op and project are column maps, and op is
    evaluated on the section's columns only."""
    image = apply_columns(fld, columns, section.triples())
    if project is not None:
        image = apply_columns(fld, project, image)
    return SparseMatrix(fld, rows, section.cols, image)


def _check_quotient(h: HopfAlgebra, space: CoinvariantSpace, project):
    """Certify ker P = the relations swap_i(v) + v: P swap_i = -P (2v = 0
    on equal slots i-1, i), P . section = 1, and dim is the closed form."""
    fld, p = h.field, space.projection
    r, c, v = p.triples()
    if not all(SparseMatrix(fld, p.rows, p.cols, (r, swap_slots(c, h.dim, space.slots, i),
                                                  fld.neg(v))) == p
               for i in range(1, space.slots)):
        raise AssertionError("projection does not kill the relations")
    split = SparseMatrix(fld, p.rows, p.rows, apply_columns(fld, project, space.section.triples()))
    if not split.equals_identity() or \
            p.rows != coinvariant_dim(h.dim, space.degree, fld.characteristic):
        raise AssertionError("projection . section != id on the closed-form dimension")


def _require_descent(fld, transposed, target_t, source_t, induced, message, columns=None):
    """Raise unless X = target . op descends from source, X = (X . S) . P with
    induced = X . S: op^T target^T == P^T induced^T on the rows of P, op^T by
    `transposed`; a permutation op (`columns`) must be inverted by it there."""
    image = apply_columns(fld, transposed, target_t.triples())
    inverts = columns is None or all(np.array_equal(a, b) for a, b in zip(
        apply_columns(fld, columns, image), target_t.triples()))
    if not (inverts and SparseMatrix(fld, source_t.rows, target_t.cols, image) ==
            source_t @ induced.transpose()):
        raise AssertionError(message)


def coinvariant_space(h: HopfAlgebra, n: int, levels: list) -> CoinvariantSpace:
    """The degree-n coinvariant space of A^(tensor n+1), on the sorted-tuple
    basis (Lambda^(n+1) A, or Sym^(n+1) A in characteristic 2), certified
    as the quotient by the swap relations.  Each diagonal action is
    induced, checked to descend and dropped in turn; `levels` keeps the
    levels of the tensor power across calls (see diagonal_columns)."""
    d, fld = h.dim, h.field
    _require_ambient(h, n)
    space = CoinvariantSpace(n, *_sorted_tuple_coinvariants(fld, d, n + 1), None)
    action = []
    if space.dim:
        project = space.projection.column_map(search=True)
        _check_quotient(h, space, project)
        p_t = space.projection.transpose()
        for op, op_t in diagonal_columns(h, range(d), n + 1, levels):
            action.append(_induced(fld, space.dim, space.section, op, project))
            _require_descent(fld, op_t, p_t, p_t, action[-1], "induced action is not well-defined",
                             op if h.group_like else None)
    space.module = LeftModule(space.dim, action or [SparseMatrix(fld, 0, 0)] * d)
    validate_module(h, space.module)
    return space


# -- the resolution of k --------------------------------------------------------


@dataclass
class ResolutionComplex:
    """The augmented coinvariant complex through degree `top`, its maps
    sparse: boundaries[n] is d_n: S_n -> S_(n-1) in the sorted-tuple
    bases, and the augmentation maps S_0 onto k."""

    hopf: HopfAlgebra
    top: int
    spaces: list            # CoinvariantSpace per degree 0..top
    boundaries: list             # SparseMatrix, boundaries[n]: degree n -> n-1 (n >= 1)
    augmentation: SparseMatrix   # onto k (1 x dim S_0)

    def dims(self):
        return [s.dim for s in self.spaces]

    def exactness_report(self):
        """Onto k, and exact at each degree, as the vanishing cohomology of
        the dual complex k -> S_0* -> ... -> S_top* (`cohomology_dims`):
        onto k is H^0 = 0, exact at n is H^(n+1) = 0.  The top degree is
        certified only when the next space, which is not built, is zero by
        its closed-form dimension; a zero map into it then ends the dual."""
        fld = self.hopf.field
        dims = [1] + self.dims()
        diffs = [self.augmentation.transpose()] + [b.transpose() for b in self.boundaries[1:]]
        if coinvariant_dim(self.hopf.dim, self.top + 1, fld.characteristic) == 0:
            dims.append(0)
            diffs.append(SparseMatrix(fld, 0, dims[-2]))
        dual = CochainComplex(fld, len(diffs), [CochainSpace.full(fld, d) for d in dims], diffs)
        onto, *above = cohomology_dims(dual)
        return [("onto_k", onto == 0)] + [(f"exact_at_{n}", x == 0) for n, x in enumerate(above)]


def sym_resolution_complex(h: HopfAlgebra, top: int) -> ResolutionComplex:
    """The augmented coinvariant chain complex S_top -> ... -> S_0 -> k,
    every space and induced boundary self-checked.  The highest degree is
    built first, and the levels of the tensor power formed for it serve
    the smaller ones."""
    _require_ambient(h, top)
    levels = []
    spaces = [coinvariant_space(h, n, levels) for n in range(top, -1, -1)][::-1]
    transposed = [s.projection.transpose() for s in spaces]
    fld = h.field
    boundaries = [None]
    for n in range(1, top + 1):
        if spaces[n].dim == 0:
            boundaries.append(SparseMatrix(fld, spaces[n - 1].dim, 0))
            continue
        below = spaces[n - 1]
        boundaries.append(_induced(fld, below.dim, spaces[n].section, bar_chain_columns(h, n),
                                   below.projection.column_map(search=True)))
        _require_descent(fld, bar_chain_transpose_columns(h, n), transposed[n - 1],
                         transposed[n], boundaries[-1], "induced boundary is not well-defined")
    # the augmentation deletes slot 0 by the counit
    aug = _induced(fld, 1, spaces[0].section, bar_chain_columns(h, 0))
    return ResolutionComplex(h, top, spaces, boundaries, aug)


def _unit_insert_columns(h: HopfAlgebra, slots: int):
    """Column map of A^(tensor slots) -> A^(tensor slots+1): prepend the unit."""
    lead, _col, coeffs = h.maps.unit.triples()
    shift = lead * h.dim ** slots

    def columns(idx):
        at = np.arange(len(idx), dtype=np.int64)
        return ((shift[:, None] + idx[None, :]).reshape(-1), np.tile(at, len(lead)),
                np.repeat(coeffs, len(idx)))

    return columns


@dataclass
class HomotopyReport:
    degrees: list  # (n, whether the identity at degree n holds)


def contracting_homotopy_check(res: ResolutionComplex) -> HomotopyReport:
    """Assemble h_n = projection . (prepend 1) . section on the resolution
    `res` and verify d_{n+1} h_n + h_{n-1} d_n = id, with the augmentation
    conventions at degree 0, where eps . eta = 1 is checked as well."""
    h, top = res.hopf, res.top
    spaces = res.spaces
    homotopies = []
    fld = h.field
    for n in range(top):
        above = spaces[n + 1].projection
        if not spaces[n].dim:  # no unit insertion on the indices of a vanishing degree
            homotopies.append(SparseMatrix(fld, above.rows, 0))
            continue
        homotopies.append(_induced(fld, above.rows, spaces[n].section,
                                   _unit_insert_columns(h, n + 1), above.column_map(search=True)))
    # unit section k -> S_0 followed by the augmentation
    unit_col = spaces[0].projection @ h.maps.unit
    identities = [res.boundaries[1] @ homotopies[0] + unit_col @ res.augmentation]
    identities += [res.boundaries[n + 1] @ homotopies[n] + homotopies[n - 1] @ res.boundaries[n]
                   for n in range(1, top)]
    degrees = [(n, x.equals_identity()) for n, x in enumerate(identities)]
    degrees[0] = (0, degrees[0][1] and (res.augmentation @ unit_col).equals_identity())
    return HomotopyReport(degrees)


def sh_via_resolution(h: HopfAlgebra, mod: LeftModule, top: int) -> CohomologyReport:
    """SH^0..SH^{top-1} from Hom_A(S_n, M) with the induced action; for a
    bimodule M, SHH(A, M) as SH(A, ad M) by the paper's theorem."""
    require_cocommutative(h)
    coeffs = adjoint_module(h, mod) if isinstance(mod, Bimodule) else mod
    validate_module(h, coeffs)
    res = sym_resolution_complex(h, top)
    spaces = [CochainSpace.of(hom_equivariant(h, s.module, coeffs)) for s in res.spaces]
    diffs = [cochain_precompose(b, coeffs.dim) for b in res.boundaries[1:]]
    cpx = CochainComplex(h.field, top, spaces, diffs)
    return CohomologyReport(cohomology_dims(cpx), "resolution")


# -- projectivity splitting --------------------------------------------------


@dataclass
class SplittingReport:
    """The sparse maps phi: S_n -> A tensor S_(n-1) and psi back, and
    whether psi phi = 1 and both commute with the A-actions."""

    phi: SparseMatrix
    psi: SparseMatrix
    retract_ok: bool
    equivariant_ok: bool


def splitting_maps(h: HopfAlgebra, n: int) -> SplittingReport:
    """The averaged face map S_n -> A tensor S_{n-1} and its retraction.

    Exists only when the characteristic does not divide n+1; certifies
    the degree-n coinvariants as a direct summand of a free module.
    """
    if n < 1:
        raise ValueError("splitting is defined for n >= 1")
    p = h.field.characteristic
    if p and (n + 1) % p == 0:
        raise CharacteristicDivides(f"characteristic {p} divides {n + 1}")
    d = h.dim
    fld = h.field
    levels = []
    sn = coinvariant_space(h, n, levels)
    sm = coinvariant_space(h, n - 1, levels)
    if not sn.dim:  # a vanishing degree has no ambient indices to work on
        return SplittingReport(SparseMatrix(fld, d * sm.dim, 0), SparseMatrix(fld, 0, d * sm.dim),
                               True, True)
    inv_np1 = fld.inv(fld.from_int(n + 1))

    # ambient face map: tau -> sum_i (-1)^i tau_i tensor (tau without i)
    project = sm.projection.column_map()
    idx = np.arange(d ** (n + 1), dtype=np.int64)
    rows, cols, vals = [], [], []
    for i in range(n + 1):
        r, pos, v = project(delete_slot(idx, d, n + 1, i))
        rows.append(idx[pos] // d ** (n - i) % d * sm.dim + r)
        cols.append(idx[pos])
        scale = fld.mul(inv_np1, fld.one() if i % 2 == 0 else fld.neg(fld.one()))
        vals.append(fld.reduce(v * scale))
    amb = SparseMatrix(fld, d * sm.dim, d ** (n + 1),
                       [np.concatenate(part) for part in (rows, cols, vals)])
    phi = amb @ sn.section
    # well-definedness on the quotient: amb = (amb . section) . projection
    if amb != phi @ sn.projection:
        raise AssertionError("phi is not well-defined on the coinvariants")

    # retraction: a tensor (section column j) -> the class of (a, section column j)
    r, c, v = sm.section.triples()
    a = np.repeat(np.arange(d, dtype=np.int64), len(r))
    lift = SparseMatrix(fld, d ** (n + 1), d * sm.dim,
                        (a * d ** n + np.tile(r, d), a * sm.dim + np.tile(c, d), np.tile(v, d)))
    psi = sn.projection @ lift
    # both maps must commute with the A-actions (diagonal on A tensor S_{n-1})
    tensor_action = tensor_module(h, regular_left_module(h), sm.module).action
    equivariant_ok = all(phi @ x == y @ phi and psi @ y == x @ psi
                         for x, y in zip(sn.module.action, tensor_action))
    return SplittingReport(phi, psi, (psi @ phi).equals_identity(), equivariant_ok)


# -- the cyclic-group rank table ----------------------------------------------


@dataclass
class CpRankRow:
    n: int
    dim: int
    rank: int
    claimed_rank: int
    is_free: bool


def cp_rank_table(h: HopfAlgebra, top: int) -> list:
    """Freeness certificates for the coinvariants of the cyclic group
    algebra h = kC_p in its own characteristic, degrees 1..min(top, p-2).

    The rank column is the rank of the norm element (the sum of the group
    elements) on S_n.  It acts with rank 1 on the free indecomposable
    module of kC_p and as zero on the others, so it counts the free
    summands, and S_n is free exactly when that rank times p is dim S_n.
    Any other algebra is a SchemaError; a field other than GF(p), or
    p = 2, is an InvalidPrime.
    """
    p = h.dim
    if not h.group_like or h.group_table != cyclic_group_table(p):
        raise SchemaError("cp-table needs a cyclic group algebra (Cp:<p>)")
    if h.field.characteristic != p:
        raise InvalidPrime("cp-table needs the field GF(p) matching the order")
    if p == 2:
        raise InvalidPrime(f"{p} is not an odd prime")
    top = min(top, p - 2)
    _require_ambient(h, top)
    rows = []
    for n in range(1, top + 1):
        space = coinvariant_space(h, n, [])  # a group algebra forms no levels
        norm = space.module.act_element(h, dict.fromkeys(range(p), h.field.one()))
        free_rank = rank(norm.to_dense())
        rows.append(CpRankRow(n, space.dim, free_rank, comb(p, n + 1) // p,
                              free_rank * p == space.dim))
    return rows
