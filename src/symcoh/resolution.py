"""Coinvariant resolutions: the quotients of tensor powers by the signed
permutation action, their induced module structures, the exact augmented
complexes they form, the contracting homotopy, the Hom route to SH/SHH,
the projectivity splitting maps, and the cyclic-group rank table.

The coinvariants have a sorted-tuple basis in any basis of A, since the
permutations only move tensor slots: Lambda^(n+1) A away from
characteristic 2 (repeated-entry tensors die and every tuple equals its
sorted form up to the permutation sign), Sym^(n+1) A in characteristic 2
(every tuple equals its sorted form).  The induced actions go through
`tensors.diagonal_columns`.  A space is built only when its ambient
A^(tensor n+1) has at most DENSE_RANK_CELLS coordinates.

The bimodule resolution (for SHH, `tail` 1, read from the coefficient
type) is not a second quotient: its degree-n space S_n tensor A is the
plain one tensored with A, with the diagonal left action, right
multiplication on the A factor, and the plain boundaries and augmentation
tensored with the identity of A.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .bar import CohomologyReport, require_cocommutative
from .complexes import CochainComplex, CochainSpace, _left_inverse_dense, cohomology_dims
from .errors import BudgetExceeded, CharacteristicDivides, InvalidPrime
from .fields import Field
from .hopf import HopfAlgebra, cyclic_group_table, group_algebra
from .linalg import DENSE_RANK_CELLS, Matrix, rank
from .modules import (Bimodule, LeftModule, hom_equivariant, kron, regular_bimodule,
                      regular_left_module, tensor_module, validate_module)
from .sparse import SparseMatrix, apply_columns, canonical, field_array, kron_triples
from .tensors import (all_columns, bar_chain_columns, cochain_precompose, delete_slot,
                      diagonal_columns, digits, flat, swap_slots, undigits)


class CoinvariantSpace:
    """A^(tensor n+1) modulo the signed S_{n+1} action, with projection,
    section, labels and the induced module structure; or that space tensor
    A, a bimodule with one trailing slot (see _tensor_regular)."""

    def __init__(self, degree, projection, section, labels, module: LeftModule):
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
        return self.degree + 1 + self.module.tail

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
    tuple maps to its sorted label.  Without labels (slots > d outside
    characteristic 2) both maps are 0 x 0: no index of the ambient is formed."""
    char2 = fld.characteristic == 2
    labels = list((itertools.combinations_with_replacement if char2
                   else itertools.combinations)(range(d), slots))
    if not labels:
        return SparseMatrix(fld, 0, 0), SparseMatrix(fld, 0, 0), labels
    size = d ** slots
    label_idx = np.array([flat(lab, d) for lab in labels], dtype=np.int64)
    idx = np.arange(size, dtype=np.int64)
    digs = digits(idx, d, slots)
    head = np.sort(digs, axis=0)
    if not char2:
        distinct = np.all(head[1:] != head[:-1], axis=0)
        idx, digs, head = idx[distinct], digs[:, distinct], head[:, distinct]
    inversions = np.zeros(len(idx), dtype=np.int64)
    for i in range(slots):
        for j in range(i + 1, slots):
            inversions += digs[i] > digs[j]
    rows = np.searchsorted(label_idx, undigits(head, d))
    one = fld.one()
    signs = field_array(fld, [one, fld.neg(one)])[inversions % 2]
    projection = SparseMatrix(fld, len(labels), size, (rows, idx, signs))
    section = SparseMatrix(fld, size, len(labels),
                           (label_idx, np.arange(len(labels), dtype=np.int64), None))
    return projection, section, labels


def _induced(fld, rows, section, columns, project=None):
    """op . section, or project . op . section, as a dense matrix with
    `rows` rows; op and project are column maps, and op is evaluated on
    the section's columns only."""
    image = apply_columns(fld, columns, section.triples())
    if project is not None:
        image = apply_columns(fld, project, image)
    return SparseMatrix(fld, rows, section.cols, image).to_dense()


def coinvariant_space(h: HopfAlgebra, n: int, check: bool = True) -> CoinvariantSpace:
    """The degree-n coinvariant space of A^(tensor n+1), on the sorted-tuple
    basis (Lambda^(n+1) A, or Sym^(n+1) A in characteristic 2)."""
    d = h.dim
    fld = h.field
    _require_ambient(h, n)
    projection, section, labels = _sorted_tuple_coinvariants(fld, d, n + 1)
    dim = projection.rows
    ops = list(diagonal_columns(h, range(d), n + 1)) if dim else []
    project = projection.column_map()
    action = [_induced(fld, dim, section, op, project) for op in ops] or \
        [Matrix.zeros(fld, 0, 0)] * d
    space = CoinvariantSpace(n, projection, section, labels, LeftModule(dim, action))
    if check:
        if not (space.projection @ space.section).equals_identity():
            raise AssertionError("projection . section != id")
        validate_module(h, space.module)
        _check_descends(h, space, space.projection, ops, "induced action is not well-defined")
    return space


def _tensor_regular(h: HopfAlgebra, space: CoinvariantSpace, regular: Bimodule,
                    check: bool) -> CoinvariantSpace:
    """The bimodule coinvariants S_n tensor A of A^(tensor n+2): the plain
    space's projection and section tensor the identity of A, the diagonal
    left action, and right multiplication on the A factor."""
    d = h.dim
    fld = h.field
    eye = Matrix.identity(fld, space.dim)
    module = Bimodule(space.dim * d, tensor_module(h, space.module, regular).action,
                      [kron(eye, r) for r in regular.right])
    if check:
        validate_module(h, module)
    identity = all_columns(d)
    projection = SparseMatrix(fld, space.dim * d, space.ambient_dim * d,
                              kron_triples(fld, space.projection.triples(), identity, (d, d)))
    section = SparseMatrix(fld, space.ambient_dim * d, space.dim * d,
                           kron_triples(fld, space.section.triples(), identity, (d, d)))
    labels = [lab + (a,) for lab in space.basis_labels for a in range(d)]
    return CoinvariantSpace(space.degree, projection, section, labels, module)


def _descends_to_quotient(field, d, slots, sym_slots, triples) -> bool:
    """True when projection . op kills every relation  swap_i(v) + v, given
    the canonical triples of projection . op: for i < sym_slots, a column
    whose digits i-1 > i plus its swap_i partner must vanish, and a column
    with a repeated adjacent digit must satisfy 2v = 0."""
    rows, cols, vals = triples
    digs = digits(cols, d, slots)[:sym_slots]
    repeated = np.any(digs[1:] == digs[:-1], axis=0)
    if np.any(field.neg(vals[repeated]) != vals[repeated]):
        return False
    for i in range(1, sym_slots):
        up = digs[i - 1] > digs[i]
        down = digs[i - 1] < digs[i]
        # the entries of each swapped-down column, moved onto its partner
        moved = (rows[up], swap_slots(cols[up], d, slots, i), field.neg(vals[up]))
        order = np.lexsort(moved[:2])
        moved = tuple(a[order] for a in moved)
        if not all(np.array_equal(a, b[down]) for a, b in zip(moved, triples)):
            return False
    return True


def _check_descends(h, space, projection, ops, message):
    """Every op (a column map on the ambient space of `space`) followed by
    `projection` must kill the relations of `space`."""
    if space.dim == 0:
        return
    fld = h.field
    project = projection.column_map()
    everything = all_columns(space.ambient_dim)
    for op in ops:
        triples = canonical(fld, *apply_columns(fld, project,
                                                apply_columns(fld, op, everything)))
        if not _descends_to_quotient(fld, h.dim, space.slots, space.degree + 1, triples):
            raise AssertionError(message)


# -- the resolutions of k and of A ---------------------------------------------


@dataclass
class ResolutionComplex:
    hopf: HopfAlgebra
    top: int
    spaces: list            # CoinvariantSpace per degree 0..top
    boundaries: list        # Matrix, boundaries[n]: degree n -> n-1 (n >= 1)
    augmentation: Matrix    # onto k (1 x dim S_0) or onto A (dim A x dim S^e_0)

    def dims(self):
        return [s.dim for s in self.spaces]

    def exactness_report(self):
        """Rank counting: exact at inner degrees, at degree 0 against the
        augmentation, and onto k (or A).  The top degree is certified only
        when the next space, which is not built, is zero by its closed-form
        dimension."""
        aug_rank = rank(self.augmentation)
        # ranks[n] is the rank of d_n, with the augmentation as d_0
        ranks = [aug_rank] + [rank(b) for b in self.boundaries[1:]]
        onto = "onto_A" if self.spaces[0].module.tail else "onto_k"
        checks = [(onto, aug_rank == self.augmentation.rows)]
        for n in range(self.top):
            checks.append((f"exact_at_{n}", ranks[n] + ranks[n + 1] == self.spaces[n].dim))
        if coinvariant_dim(self.hopf.dim, self.top + 1, self.hopf.field.characteristic) == 0:
            checks.append((f"exact_at_{self.top}", ranks[self.top] == self.spaces[self.top].dim))
        return checks


def sym_resolution_complex(h: HopfAlgebra, top: int, check: bool = True,
                           tail: int = 0) -> ResolutionComplex:
    """The augmented coinvariant chain complex S_top -> ... -> S_0 -> k;
    with tail 1, the bimodule complex S_top tensor A -> ... -> S_0 tensor A
    -> A, the same complex tensored with A."""
    _require_ambient(h, top)
    spaces = [coinvariant_space(h, n, check=check) for n in range(top + 1)]
    fld = h.field
    boundaries = [None]
    for n in range(1, top + 1):
        if spaces[n].dim == 0:
            boundaries.append(Matrix.zeros(fld, spaces[n - 1].dim, 0))
            continue
        chain = bar_chain_columns(h, n, 0)  # A^(n+1) -> A^n
        below = spaces[n - 1].projection
        if check:
            _check_descends(h, spaces[n], below, [chain],
                            "induced boundary is not well-defined")
        boundaries.append(_induced(fld, below.rows, spaces[n].section, chain,
                                   below.column_map()))
    # the augmentation deletes slot 0 by the counit
    aug = _induced(fld, 1, spaces[0].section, bar_chain_columns(h, 0, 0))
    if tail:
        regular = regular_bimodule(h)
        eye = Matrix.identity(fld, h.dim)
        spaces = [_tensor_regular(h, s, regular, check) for s in spaces]
        boundaries = [None] + [kron(b, eye) for b in boundaries[1:]]
        aug = kron(aug, eye)
    return ResolutionComplex(h, top, spaces, boundaries, aug)


def hochschild_resolution(h: HopfAlgebra, top: int, check: bool = True) -> ResolutionComplex:
    """The augmented bimodule complex (coinvariants of A^(tensor n+1))
    tensor A -> A."""
    return sym_resolution_complex(h, top, check=check, tail=1)


def _unit_insert_columns(h: HopfAlgebra, slots: int):
    """Column map of A^(tensor slots) -> A^(tensor slots+1): prepend the unit."""
    unit = list(h.unit_dict().items())
    shift = np.array([u * h.dim ** slots for u, _ in unit], dtype=np.int64)
    coeffs = field_array(h.field, [uc for _, uc in unit])

    def columns(idx):
        at = np.arange(len(idx), dtype=np.int64)
        return ((shift[:, None] + idx[None, :]).reshape(-1), np.tile(at, len(unit)),
                np.repeat(coeffs, len(idx)))

    return columns


@dataclass
class HomotopyReport:
    degrees: list
    passed: bool


def contracting_homotopy_check(h: HopfAlgebra, top: int,
                               res: ResolutionComplex | None = None) -> HomotopyReport:
    """Assemble h_n = projection . (prepend 1) . section and verify
    d_{n+1} h_n + h_{n-1} d_n = id, with the augmentation conventions at
    degree 0.  `res` is the resolution of k through degree top, built
    here unless the caller already has it."""
    if res is None:
        res = sym_resolution_complex(h, top)
    elif res.hopf is not h or res.top != top or res.spaces[0].module.tail:
        raise ValueError("res must be the resolution of k for this algebra through top")
    spaces = res.spaces
    homotopies = []
    fld = h.field
    for n in range(top):
        above = spaces[n + 1].projection
        if not spaces[n].dim:  # no unit insertion on the indices of a vanishing degree
            homotopies.append(Matrix.zeros(fld, above.rows, 0))
            continue
        homotopies.append(_induced(fld, above.rows, spaces[n].section,
                                   _unit_insert_columns(h, n + 1), above.column_map()))
    degrees = []
    ok = True
    # unit section k -> S_0 followed by the augmentation
    unit = h.unit_dict()
    unit_col = (spaces[0].projection @ SparseMatrix(
        fld, h.dim, 1, (list(unit), [0] * len(unit), list(unit.values())))).to_dense()
    if not (res.augmentation @ unit_col) == Matrix.identity(fld, 1):
        ok = False
    ident0 = res.boundaries[1] @ homotopies[0] + unit_col @ res.augmentation
    good = ident0 == Matrix.identity(fld, spaces[0].dim)
    degrees.append((0, good))
    ok = ok and good
    for n in range(1, top):
        ident = res.boundaries[n + 1] @ homotopies[n] \
            + homotopies[n - 1] @ res.boundaries[n]
        good = ident == Matrix.identity(fld, spaces[n].dim)
        degrees.append((n, good))
        ok = ok and good
    return HomotopyReport(degrees, ok)


def sh_via_resolution(h: HopfAlgebra, mod: LeftModule, top: int) -> CohomologyReport:
    """SH^0..SH^{top-1} from Hom_A(S_n, M) with the induced action; for a
    bimodule M, SHH from bimodule maps out of the bimodule resolution."""
    require_cocommutative(h)
    validate_module(h, mod)
    res = sym_resolution_complex(h, top, tail=mod.tail)
    m = mod.dim
    fld = h.field
    spaces = []
    diffs = []
    for n in range(top + 1):
        s = res.spaces[n].dim
        sub = hom_equivariant(h, res.spaces[n].module, mod)
        if sub.dim and s:
            basis = SparseMatrix.from_dense(sub.basis)
            coords = SparseMatrix.from_dense(_left_inverse_dense(sub.basis))
        else:
            basis = SparseMatrix(fld, m * s, 0)
            coords = SparseMatrix(fld, 0, m * s)
        spaces.append(CochainSpace(m * s, basis, coords, check=False))
    for n in range(top):
        diffs.append(cochain_precompose(SparseMatrix.from_dense(res.boundaries[n + 1]), m))
    cpx = CochainComplex(fld, top, spaces, diffs,
                         label="Hom(S^e,M)" if mod.tail else "Hom(S,M)")
    dims = cohomology_dims(cpx, top - 1)
    return CohomologyReport(dims, "resolution", kind="SHH" if mod.tail else "SH")


# SHH from the bimodule resolution is sh_via_resolution with a bimodule
shh_via_resolution = sh_via_resolution


# -- projectivity splitting --------------------------------------------------


@dataclass
class SplittingReport:
    phi: Matrix
    psi: Matrix
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
    sn = coinvariant_space(h, n)
    sm = coinvariant_space(h, n - 1)
    if not sn.dim:  # a vanishing degree has no ambient indices to work on
        return SplittingReport(Matrix.zeros(fld, d * sm.dim, 0), Matrix.zeros(fld, 0, d * sm.dim),
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
    triples = canonical(fld, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))
    # well-definedness on the quotient
    if not _descends_to_quotient(fld, d, n + 1, n + 1, triples):
        raise AssertionError("phi is not well-defined on the coinvariants")
    amb = SparseMatrix(fld, d * sm.dim, d ** (n + 1), triples)
    phi = (amb @ sn.section).to_dense()

    # retraction: a tensor (section column j) -> the class of (a, section column j)
    r, c, v = sm.section.triples()
    a = np.repeat(np.arange(d, dtype=np.int64), len(r))
    lift = SparseMatrix(fld, d ** (n + 1), d * sm.dim,
                        (a * d ** n + np.tile(r, d), a * sm.dim + np.tile(c, d), np.tile(v, d)))
    psi = (sn.projection @ lift).to_dense()

    retract_ok = (psi @ phi) == Matrix.identity(fld, sn.dim)

    # both maps must commute with the A-actions (diagonal on A tensor S_{n-1})
    tensor_action = tensor_module(h, regular_left_module(h), sm.module).action
    equivariant_ok = True
    for i in range(d):
        if phi @ sn.module.action[i] != tensor_action[i] @ phi:
            equivariant_ok = False
        if psi @ tensor_action[i] != sn.module.action[i] @ psi:
            equivariant_ok = False
    return SplittingReport(phi, psi, retract_ok, equivariant_ok)


# -- the cyclic-group rank table ----------------------------------------------


@dataclass
class CpRankRow:
    n: int
    dim: int
    rank: int
    claimed_rank: int
    is_free: bool


def cp_rank_table(p: int, n_max: int | None = None) -> list:
    """Freeness certificates for the coinvariants of the cyclic group
    algebra in its own characteristic, degrees 1..p-2.

    The rank column is the rank of the norm element (the sum of the group
    elements) on S_n.  It acts with rank 1 on the free indecomposable
    module of kC_p and as zero on the others, so it counts the free
    summands, and S_n is free exactly when that rank times p is dim S_n.
    """
    from .fields import is_prime
    if p == 2 or not is_prime(p):
        raise InvalidPrime(f"{p} is not an odd prime")
    h = group_algebra(p, cyclic_group_table(p), Field.prime(p))
    top = p - 2 if n_max is None else min(n_max, p - 2)
    _require_ambient(h, top)
    rows = []
    for n in range(1, top + 1):
        space = coinvariant_space(h, n)
        norm = space.module.act_element(h, dict.fromkeys(range(p), h.field.one()))
        free_rank = rank(norm)
        rows.append(CpRankRow(n, space.dim, free_rank, comb(p, n + 1) // p,
                              free_rank * p == space.dim))
    return rows
