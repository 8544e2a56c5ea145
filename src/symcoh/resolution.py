"""Coinvariant resolutions: the quotients of tensor powers by the signed
permutation action, their induced module structures, the exact augmented
complexes they form, the contracting homotopy, the Hom route to SH/SHH,
the projectivity splitting maps, and the cyclic-group rank table.

The bimodule resolution (for SHH) carries one trailing tensor slot that
the permutations leave alone and that A acts on from the right; `tail`
(0 or 1) is that number of slots, read from the coefficient type.

For group algebras away from characteristic 2 the coinvariants have the
strictly-increasing-tuple basis: repeated-entry tensors die and every
tuple equals its sorted form up to the permutation sign.  The generic
path builds the same quotient by elimination.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field as dc_field
from math import comb

import numpy as np

from .bar import GENERIC_SOLVE_LIMIT, CohomologyReport, require_cocommutative
from .complexes import CochainComplex, CochainSpace, _left_inverse_dense, cohomology_dims
from .errors import BudgetExceeded, CharacteristicDivides, InvalidPrime
from .fields import Field
from .hopf import HopfAlgebra, cyclic_group_table, group_algebra
from .linalg import Matrix, quotient, rank
from .modules import (Bimodule, LeftModule, hom_equivariant, kron,
                      regular_bimodule, regular_left_module, validate_module)
from .sparse import SparseMatrix, apply_columns, canonical, field_array
from .tensors import (all_columns, all_tuples, bar_chain_columns, delete_slot,
                      diagonal_columns, digits, flat, right_mult_columns, swap_slots,
                      undigits)


def _sorted_with_sign(tup):
    """(sorted tuple, permutation sign), or None on a repeated entry."""
    inversions = 0
    n = len(tup)
    for i in range(n):
        for j in range(i + 1, n):
            if tup[i] == tup[j]:
                return None
            if tup[i] > tup[j]:
                inversions += 1
    return tuple(sorted(tup)), -1 if inversions % 2 else 1


def _swap_plus_identity_columns(d, slots, sym_slots):
    """Relation generators v . sigma_i - v = -(swap_i v + v) as triples,
    one column per (i, tuple)."""
    size = d ** slots
    idx = np.arange(size, dtype=np.int64)
    rows, cols = [idx[:0]], [idx[:0]]
    for i in range(1, sym_slots):
        col = (i - 1) * size + idx
        rows += [swap_slots(idx, d, slots, i), idx]
        cols += [col, col]
    return np.concatenate(rows), np.concatenate(cols), None


class CoinvariantSpace:
    """A^(tensor n+1+tail) modulo the signed S_{n+1} action on the first n+1
    slots, with projection, section, labels and the induced module
    structure (a bimodule when tail is 1)."""

    def __init__(self, degree, ambient_dim, projection, section, labels,
                 module: LeftModule, fast_path: bool):
        self.degree = degree
        self.ambient_dim = ambient_dim
        self.projection = projection  # SparseMatrix dim x ambient
        self.section = section        # SparseMatrix ambient x dim
        self.basis_labels = labels
        self.module = module
        self.fast_path = fast_path

    @property
    def dim(self) -> int:
        return self.projection.rows

    @property
    def slots(self) -> int:
        return self.degree + 1 + self.module.tail

    def __repr__(self):
        return f"<Coinvariants degree {self.degree}, dim {self.dim}>"


def _fast_path_available(h: HopfAlgebra) -> bool:
    return h.group_like and h.field.characteristic != 2


def _sorted_tuple_coinvariants(fld, d, slots, sym_slots, tail):
    """Projection, section and labels of the strictly-increasing-tuple basis:
    a tuple with distinct symmetric slots maps to its sorted label with the
    sign of the sorting permutation, any other tuple to zero."""
    labels = [inc + last for inc in itertools.combinations(range(d), sym_slots)
              for last in all_tuples(d, tail)]
    size = d ** slots
    label_idx = np.array([flat(lab, d) for lab in labels], dtype=np.int64)
    idx = np.arange(size if labels else 0, dtype=np.int64)
    digs = digits(idx, d, slots)
    head = np.sort(digs[:sym_slots], axis=0)
    distinct = np.all(head[1:] != head[:-1], axis=0)
    idx, digs, head = idx[distinct], digs[:, distinct], head[:, distinct]
    inversions = np.zeros(len(idx), dtype=np.int64)
    for i in range(sym_slots):
        for j in range(i + 1, sym_slots):
            inversions += digs[i] > digs[j]
    rows = np.searchsorted(label_idx, undigits(np.vstack([head, digs[sym_slots:]]), d))
    one = fld.one()
    signs = field_array(fld, [one, fld.neg(one)])[inversions % 2]
    projection = SparseMatrix(fld, len(labels), size, (rows, idx, signs))
    section = SparseMatrix(fld, size, len(labels),
                           (label_idx, np.arange(len(labels), dtype=np.int64), None))
    return projection, section, labels


def _generic_coinvariants(h, slots, sym_slots):
    d = h.dim
    ambient = d ** slots
    if ambient > GENERIC_SOLVE_LIMIT:
        raise BudgetExceeded(f"generic coinvariant quotient on {ambient} coordinates")
    relations = SparseMatrix(h.field, ambient, (sym_slots - 1) * ambient,
                             _swap_plus_identity_columns(d, slots, sym_slots)).to_dense()
    proj, sect = quotient(ambient, relations)
    return SparseMatrix.from_dense(proj), SparseMatrix.from_dense(sect)


def _induced(fld, rows, section, columns, project=None):
    """op . section, or project . op . section, as a dense matrix with
    `rows` rows; op and project are column maps, and op is evaluated on
    the section's columns only."""
    image = apply_columns(fld, columns, section.triples())
    if project is not None:
        image = apply_columns(fld, project, image)
    return SparseMatrix(fld, rows, section.cols, image).to_dense()


def coinvariant_space(h: HopfAlgebra, n: int, force_generic: bool = False,
                      check: bool = True, tail: int = 0) -> CoinvariantSpace:
    """The degree-n coinvariant space of A^(tensor n+1+tail).

    Group algebras in characteristic other than 2 take the sorted-tuple
    fast path; characteristic 2 falls back to the generic quotient (the
    sign argument that kills repeated entries fails there).
    """
    d = h.dim
    fld = h.field
    sym_slots = n + 1
    slots = sym_slots + tail
    if h.group_like and fld.characteristic == 2 and not force_generic:
        warnings.warn("characteristic 2: sorted-tuple fast path disabled "
                      "(odd characteristic is the intended setting)")
    fast_path = _fast_path_available(h) and not force_generic
    if fast_path:
        projection, section, labels = _sorted_tuple_coinvariants(fld, d, slots, sym_slots, tail)
    else:
        projection, section = _generic_coinvariants(h, slots, sym_slots)
        labels = _section_labels(section, d, slots)
    dim = projection.rows
    if dim:
        # per basis element: the diagonal action, then right multiplication
        ops = [[diagonal_columns(h, g, slots)] + [right_mult_columns(h, g, slots)] * tail
               for g in range(d)]
        project = projection.column_map()
        induced = [[_induced(fld, dim, section, op, project) for op in per_g] for per_g in ops]
    else:
        ops = []
        induced = [[Matrix.zeros(fld, 0, 0)] * (1 + tail)] * d
    left = [per_g[0] for per_g in induced]
    if tail:
        module = Bimodule(dim, left, [per_g[1] for per_g in induced])
    else:
        module = LeftModule(dim, left)
    space = CoinvariantSpace(n, d ** slots, projection, section, labels,
                             module, fast_path=fast_path)
    if check:
        if not (space.projection @ space.section).equals_identity():
            raise AssertionError("projection . section != id")
        validate_module(h, space.module)
        _check_descends(h, space, space.projection, [op for per_g in ops for op in per_g],
                        "induced action is not well-defined")
    return space


def _section_labels(section: SparseMatrix, d, slots):
    """Per column of the section, the tuple of its first row (None if empty)."""
    rows, cols, _ = section.triples()
    first = np.flatnonzero(np.diff(cols, prepend=-1))
    labels = [None] * section.cols
    for j, tup in zip(cols[first].tolist(), digits(rows[first], d, slots).T.tolist()):
        labels[j] = tuple(tup)
    return labels


def _descends_to_quotient(field, d, slots, sym_slots, triples) -> bool:
    """True when projection . op kills every relation  swap_i(v) + v, given
    the canonical triples of projection . op: for i < sym_slots, a column
    whose digits i-1 > i plus its swap_i partner must vanish, and a column
    with a repeated adjacent digit must satisfy 2v = 0."""
    rows, cols, vals = triples
    neg = (lambda v: -v) if field.is_rational else (lambda v: -v % field.p)
    digs = digits(cols, d, slots)[:sym_slots]
    repeated = np.any(digs[1:] == digs[:-1], axis=0)
    if np.any(neg(vals[repeated]) != vals[repeated]):
        return False
    for i in range(1, sym_slots):
        up = digs[i - 1] > digs[i]
        down = digs[i - 1] < digs[i]
        # the entries of each swapped-down column, moved onto its partner
        moved = (rows[up], swap_slots(cols[up], d, slots, i), neg(vals[up]))
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
    factorization_checks: list = dc_field(default_factory=list)

    def dims(self):
        return [s.dim for s in self.spaces]

    def exactness_report(self):
        """Rank counting: exact at inner degrees, at degree 0 against the
        augmentation, and onto k (or A).  The top degree is certified when
        the next space is already zero."""
        checks = []
        ranks = [rank(b) for b in self.boundaries[1:]]  # rank of d_n, n=1..top
        aug_rank = rank(self.augmentation)
        onto = "onto_A" if self.spaces[0].module.tail else "onto_k"
        checks.append((onto, aug_rank == self.augmentation.rows))
        s0 = self.spaces[0].dim
        r1 = ranks[0] if self.top >= 1 else 0
        checks.append(("exact_at_0", aug_rank + r1 == s0))
        for n in range(1, self.top):
            sn = self.spaces[n].dim
            checks.append((f"exact_at_{n}", ranks[n - 1] + ranks[n] == sn))
        if self.spaces[self.top].dim == 0 or \
                (self.hopf.group_like and self.top + 2 > self.hopf.dim):
            sn = self.spaces[self.top].dim
            checks.append((f"exact_at_{self.top}",
                           (ranks[self.top - 1] if self.top >= 1 else aug_rank) == sn))
        return checks


def sym_resolution_complex(h: HopfAlgebra, top: int, force_generic: bool = False,
                           check: bool = True, tail: int = 0) -> ResolutionComplex:
    """The augmented coinvariant chain complex S_top -> ... -> S_0 -> k; with
    a trailing slot, the bimodule complex S^e_top -> ... -> S^e_0 -> A,
    checked against (plain coinvariants) tensor A."""
    spaces = [coinvariant_space(h, n, force_generic=force_generic, check=check, tail=tail)
              for n in range(top + 1)]
    fld = h.field
    boundaries = [None]
    for n in range(1, top + 1):
        if spaces[n].dim == 0:
            boundaries.append(Matrix.zeros(fld, spaces[n - 1].dim, 0))
            continue
        chain = bar_chain_columns(h, n, tail)  # A^(n+1+tail) -> A^(n+tail)
        below = spaces[n - 1].projection
        if check:
            _check_descends(h, spaces[n], below, [chain],
                            "induced boundary is not well-defined")
        boundaries.append(_induced(fld, below.rows, spaces[n].section, chain,
                                   below.column_map()))
    # the augmentation deletes slot 0 by the counit
    aug = _induced(fld, h.dim ** tail, spaces[0].section, bar_chain_columns(h, 0, tail))
    res = ResolutionComplex(h, top, spaces, boundaries, aug)
    if tail:
        res.factorization_checks = _factorization_checks(h, spaces, force_generic)
    return res


def hochschild_resolution(h: HopfAlgebra, top: int, force_generic: bool = False,
                          check: bool = True) -> ResolutionComplex:
    """The augmented bimodule complex of coinvariants of A^(tensor n+2),
    with the factorization check against (coinvariants tensor A)."""
    return sym_resolution_complex(h, top, force_generic=force_generic, check=check, tail=1)


def _factorization_checks(h, spaces, force_generic):
    """Dimension and structure comparison of S^e_n with (plain S_n) tensor A."""
    d = h.dim
    fld = h.field
    regular = regular_bimodule(h)
    plain = [coinvariant_space(h, n, force_generic=force_generic, check=False)
             for n in range(len(spaces))]
    checks = []
    for n, space in enumerate(spaces):
        ok_dim = space.dim == plain[n].dim * d
        checks.append((f"dim_{n}", ok_dim))
        if ok_dim and space.dim:
            ok_left = True
            ok_right = True
            for i in range(d):
                expect = Matrix.zeros(fld, space.dim, space.dim)
                for (j, k), c in h.comult[i].items():
                    expect = expect + kron(plain[n].module.action[j],
                                           regular.left[k]).scale(c)
                if expect != space.module.left[i]:
                    ok_left = False
                rexpect = kron(Matrix.identity(fld, plain[n].dim), regular.right[i])
                if rexpect != space.module.right[i]:
                    ok_right = False
            checks.append((f"left_structure_{n}", ok_left))
            checks.append((f"right_structure_{n}", ok_right))
    return checks


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


def contracting_homotopy_check(h: HopfAlgebra, top: int, force_generic: bool = False,
                               res: ResolutionComplex | None = None) -> HomotopyReport:
    """Assemble h_n = projection . (prepend 1) . section and verify
    d_{n+1} h_n + h_{n-1} d_n = id, with the augmentation conventions at
    degree 0.  `res` is the resolution of k through degree top, built
    here unless the caller already has it."""
    if res is None:
        res = sym_resolution_complex(h, top, force_generic=force_generic)
    elif res.hopf is not h or res.top != top or res.spaces[0].module.tail:
        raise ValueError("res must be the resolution of k for this algebra through top")
    spaces = res.spaces
    homotopies = []
    fld = h.field
    for n in range(top):
        above = spaces[n + 1].projection
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


def sh_via_resolution(h: HopfAlgebra, mod: LeftModule, top: int,
                      force_generic: bool = False) -> CohomologyReport:
    """SH^0..SH^{top-1} from Hom_A(S_n, M) with the induced action; for a
    bimodule M, SHH from bimodule maps out of the bimodule resolution."""
    require_cocommutative(h)
    validate_module(h, mod)
    res = sym_resolution_complex(h, top, force_generic=force_generic, tail=mod.tail)
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
    eye_m = Matrix.identity(fld, m)
    for n in range(top):
        diffs.append(SparseMatrix.from_dense(
            kron(res.boundaries[n + 1].transpose(), eye_m)))
    cpx = CochainComplex(fld, top, spaces, diffs,
                         label="Hom(S^e,M)" if mod.tail else "Hom(S,M)")
    dims = cohomology_dims(cpx, top - 1)
    return CohomologyReport(dims, "resolution", kind="SHH" if mod.tail else "SH")


def shh_via_resolution(h: HopfAlgebra, bim: Bimodule, top: int) -> CohomologyReport:
    """SHH^0..SHH^{top-1} from Hom over the enveloping algebra of the
    bimodule coinvariant resolution."""
    return sh_via_resolution(h, bim, top)


# -- projectivity splitting --------------------------------------------------


@dataclass
class SplittingReport:
    phi: Matrix
    psi: Matrix
    retract_ok: bool
    equivariant_ok: bool


def splitting_maps(h: HopfAlgebra, n: int, force_generic: bool = False) -> SplittingReport:
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
    sn = coinvariant_space(h, n, force_generic=force_generic)
    sm = coinvariant_space(h, n - 1, force_generic=force_generic)
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
        vals.append(v * scale if fld.is_rational else v * scale % fld.p)
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
    regular = regular_left_module(h).action
    tensor_action = []
    for i in range(d):
        acc = Matrix.zeros(fld, d * sm.dim, d * sm.dim)
        for (j, k), c in h.comult[i].items():
            acc = acc + kron(regular[j], sm.module.action[k]).scale(c)
        tensor_action.append(acc)
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

    The greedy pass keeps one sorted-tuple generator per group orbit
    (sign disregarded, as orbits of b and -b coincide as lines); the
    certificate checks that the kept orbits jointly form a basis.
    """
    from .fields import is_prime
    if p == 2 or not is_prime(p):
        raise InvalidPrime(f"{p} is not an odd prime")
    field = Field.prime(p)
    h = group_algebra(p, cyclic_group_table(p), field)
    top = p - 2 if n_max is None else min(n_max, p - 2)
    rows = []
    for n in range(1, top + 1):
        space = coinvariant_space(h, n)
        labels = space.basis_labels
        label_rank = {lab: i for i, lab in enumerate(labels)}
        covered = set()
        selected = []
        for lab in labels:
            if lab in covered:
                continue
            selected.append(lab)
            current = lab
            for _ in range(p):
                covered.add(current)
                moved = tuple(sorted((t + 1) % p for t in current))
                current = moved
        # certificate: all orbit translates of the kept generators span freely
        cols = []
        for lab in selected:
            coeff = field.one()
            col_tuple = lab
            for _ in range(p):
                cols.append({label_rank[col_tuple]: coeff})
                moved = tuple((t + 1) % p for t in col_tuple)
                key, sign = _sorted_with_sign(moved)
                col_tuple = key
                if sign < 0:
                    coeff = field.neg(coeff)
        mat = Matrix.zeros(field, space.dim, len(cols))
        for j, col in enumerate(cols):
            for i, v in col.items():
                mat._set(i, j, v)
        full = rank(mat)
        is_free = (len(selected) * p == space.dim) and (full == space.dim)
        rows.append(CpRankRow(n, space.dim, len(selected),
                              comb(p, n + 1) // p, is_free))
    return rows
