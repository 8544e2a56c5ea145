"""Standard and homogeneous cochain complexes of a cocommutative Hopf
algebra, the signed symmetric-group actions on them, and symmetric
cohomology, with coefficients in a left module (H, SH) or a bimodule
(HH, SHH).

The homogeneous complex is the subspace of Hom_k(A^(tensor n+1), M)
equivariant for the diagonal left action, with the action by signed
swaps of the n+1 slots.  For every algebra its basis is the image of the
tensor identity psi from Hom_k(A^(tensor n), M), and its coordinates are
the inverse F -> F(1 tensor -) (see equivariant_space).  Its differential
is precomposition with the counit-deletion chain map, built as the
transposed chain map tensor id_M (see _homogeneous_differential).  For a
group algebra with a permutation module the restricted swaps are signed
permutations, so its fixed points are orbits (complexes.fixed_subcomplex).
It takes a left module only: SHH(A, M) of a bimodule M is SH(A, ad M),
the paper's theorem, so `symmetric_cohomology` computes it on the
adjoint module.

The standard ("nonhomogeneous") complex lives on reduced coordinates
Hom_k(A^(tensor n), M) and takes a bimodule natively.  It is
Hom_(A-A)(A tensor A^(tensor n) tensor A, M) over the bar resolution,
by f -> F, F(b tensor y tensor c) = b . f(y) . c, so each of its
operators is one evaluation: f -> (x -> F(c(1 tensor x tensor 1))) for a
composite c of the sparse structure maps, applied by hopf._apply (see
_evaluation).  A left module M enters as the bimodule M_eps, whose right
action is the counit.  It computes HH, and it is the side of every SHH
check that never builds ad M (`nonhomogeneous_symmetric_dims`).

Each realization is built through degree top and gives the cohomology of
degrees 0..top-1.  Its fixed subcomplex (`complexes.fixed_subcomplex`)
certifies the swaps at every degree, the top one included, and keeps the
top space, which is only the target of the last differential.
"""

from __future__ import annotations

import numpy as np

from .complexes import (ActionOperator, CochainComplex, CochainSpace, cohomology_dims,
                        fixed_subcomplex, require_cocommutative)
from .errors import BudgetExceeded
from .hopf import HopfAlgebra, _apply
from .modules import Bimodule, LeftModule, _action_map, adjoint_module, validate_module
from .sparse import SparseMatrix, canonical, combination, kron, kron_triples, require_terms
from .tensors import (all_columns, bar_chain_transpose_columns, cochain_swap_sigmas,
                      diagonal_columns, tensor_identity_triples)

BUDGET = 200_000  # coordinates of the largest ambient cochain space a complex may have
DIFF_BATCH = 1 << 14  # terms of the transposed chain map summed at once


def require_budget(coords: int, what: str):
    if coords > BUDGET:
        raise BudgetExceeded(
            f"{what} needs {coords} coordinates, budget is {BUDGET}")


# -- the homogeneous (equivariant-subspace) realization -------------------


def _psi_blocks(h: HopfAlgebra, mod: LeftModule) -> dict:
    """The value blocks of psi, keyed by (u, a): the sparse matrix of the
    value map that psi(f) applies at b_a tensor x where f meets the
    diagonal action of b_u on x.

    A Sweedler term s_1 tensor s_2 of b_a (an entry of column a of Delta)
    gives b_u the coefficient of S(b_(s_2)) (column s_2 of S) and the value
    map v -> s_1 . v.  Each block is summed once.
    """
    legs, a, coef = h.maps.comult.triples()
    s1, s2 = np.divmod(legs, h.dim)
    u, at, su = h.maps.antipode.column_map()(s2)
    keys, coefs = zip(u.tolist(), a[at].tolist()), h.field.reduce(coef[at] * su).tolist()
    terms = {}
    for key, c, s in zip(keys, coefs, s1[at].tolist()):
        terms.setdefault(key, []).append((c, mod.action[s]))
    return {key: combination(h.field, mod.dim, mod.dim, t) for key, t in terms.items()}


def equivariant_space(h: HopfAlgebra, mod: LeftModule, slots: int, levels: list) -> CochainSpace:
    """Maps A^(tensor slots) -> M equivariant for the diagonal left action.

    The basis is the image of the tensor identity
    psi: Hom(A^(tensor n), M) -> Hom_A(A^(tensor slots), M), n = slots-1,

        psi(f)(a tensor x) = a_(1) . f(S(a_(2)) . x),

    and the coords are its inverse F -> F(1 tensor -).  This holds for any
    Hopf algebra; the order of the legs matters only when A is not
    cocommutative.  The action D_u of S(a_(2)) on the n inner slots is
    read off its transposed column map (`diagonal_columns`: a permutation
    for a group algebra, the sparse action of the tensor power of the
    regular module otherwise, whose levels `levels` keeps across calls):
    on every inner index y it gives the entries D_u[y, x] grouped by y.
    """
    d = h.dim
    m = mod.dim
    fld = h.field
    n = slots - 1
    inner = np.arange(d ** n, dtype=np.int64)
    ambient = (d ** slots) * m
    # ordered by a: for a group algebra each a has one u
    blocks = sorted(((key, value.triples()) for key, value in _psi_blocks(h, mod).items()),
                    key=lambda b: b[0][1])
    # D_u[y, x] for every x, sorted by y: the inner argument x of psi(f) meets f at y
    actions = {}
    acting = sorted({u for (u, _a), _t in blocks})
    entries = 0  # of the grids below, charged as each action arrives
    for u, transposed in zip(acting, diagonal_columns(h, acting, n, levels)):
        x, y, dv = transposed(inner)
        entries += len(y) * sum(len(t[0]) for (v, _a), t in blocks if v == u)
        require_terms(entries, f"the equivariant basis on {slots} slots")
        actions[u] = (y, x, dv)
    # one grid per block: an action entry per row, a block entry per column
    grids = []
    for (u, a), (r, j, v) in blocks:
        y, x, dv = actions[u]
        head = a * d ** n * m + r
        prod = np.broadcast_to(v, (len(y), len(v))) if dv is None else np.multiply.outer(dv, v)
        grids.append((head[None, :] + x[:, None] * m, y[:, None] * m + j[None, :],
                      fld.reduce(prod)))
    if h.group_like:
        # every action is a permutation, so grid row y holds column y of psi
        # in every block; side by side with the block entries ordered by
        # (j, a, r), the grids are in canonical order
        order = np.argsort(np.concatenate([t[1] for _key, t in blocks]), kind="stable")
        triples = [np.concatenate(part, axis=1)[:, order].reshape(-1) for part in zip(*grids)]
    else:
        triples = [np.concatenate([g.reshape(-1) for g in part]) for part in zip(*grids)]
    basis = SparseMatrix(fld, ambient, len(inner) * m, triples)
    # F(1 tensor x), with 1 expanded in the basis of A (the column of eta)
    lead, _col, lc = h.maps.unit.triples()
    unit_rows = (np.tile(inner, len(lead)), (lead[:, None] * len(inner) + inner).reshape(-1),
                 np.repeat(lc, len(inner)))
    coords = SparseMatrix(fld, len(inner) * m, ambient,
                          kron_triples(fld, unit_rows, all_columns(m), (m, m)))
    return CochainSpace(ambient, basis, coords)


def _homogeneous_differential(h: HopfAlgebra, n: int, m: int) -> SparseMatrix:
    """Degree n's differential, precomposition with the counit-deletion
    chain map on n+2 slots: its transpose tensor id_M.  The transpose is
    read off `bar_chain_transpose_columns` and summed in batches of
    columns of at most DIFF_BATCH unsummed terms (or one column), so the
    chain map is never formed and no sort spans the whole transpose; the
    batches come out in canonical order."""
    d, fld = h.dim, h.field
    columns = bar_chain_transpose_columns(h, n + 1)
    shape = (d ** (n + 2), d ** (n + 1))
    step = max(DIFF_BATCH // ((n + 2) * d), 1)
    parts = ([], [], [])  # rows, cols and vals of each batch
    for lo in range(0, shape[1], step):
        idx = np.arange(lo, min(lo + step, shape[1]), dtype=np.int64)
        r, pos, v = columns(idx)
        for part, a in zip(parts, tensor_identity_triples(
                *canonical(fld, r, idx[pos], v, shape=shape), m)):
            part.append(a)
    triples = []
    for part in parts:  # joined one array at a time, each dropping its batches
        triples.append(np.concatenate(part))
        part.clear()
    return SparseMatrix(fld, shape[0] * m, shape[1] * m, triples)


def homogeneous_complex(h: HopfAlgebra, mod: LeftModule, top: int) -> CochainComplex:
    """Degrees 0..top of the equivariant realization, degree n on n+1
    slots; the differential is precomposition with the alternating
    counit-deletion chain map (`_homogeneous_differential`)."""
    validate_module(h, mod)
    m = mod.dim
    require_budget(m * h.dim ** (top + 1), "homogeneous complex")
    # highest degree first, so a degree over the entry limit fails before
    # the smaller ones are built; the levels of the tensor power formed for
    # it serve the smaller ones
    levels = []
    spaces = [equivariant_space(h, mod, n + 1, levels) for n in range(top, -1, -1)][::-1]
    diffs = [_homogeneous_differential(h, n, m) for n in range(top)]
    return CochainComplex(h.field, top, spaces, diffs)


def sigma_homogeneous(h: HopfAlgebra, mod: LeftModule, n: int) -> ActionOperator:
    """Signed swaps of slots i-1, i on degree n of the homogeneous
    realization."""
    require_cocommutative(h)
    return ActionOperator(n, cochain_swap_sigmas(h.field, h.dim, n + 1, mod.dim))


# -- the nonhomogeneous (reduced-coordinate) realization -------------------


def _evaluation(h: HopfAlgebra, mod: LeftModule):
    """evaluate(n, k, lo, width, composite, sign): the triples of the operator
    Hom_k(A^(tensor k), M) -> Hom_k(A^(tensor n), M),

        f -> (x -> sign F(c(1 tensor x tensor 1))),  F(b tensor y tensor c) = b . f(y) . c,

    where the composite c (tuple layers, as in hopf._apply) reads the
    `width` padded slots from lo of 1 tensor x tensor 1 (slots 0..n+1).
    Only an outer slot that c reads is formed, from the coordinates of the
    unit; one it does not read stays 1, which acts as the identity.  A left
    module acts as M_eps.

    The join of c(1 tensor x tensor 1) to the value action takes two
    column-map lookups: each entry (b, y, c) at x meets every entry (k, j')
    of rho_right(c), and then column k of rho_left(b)."""
    d, m, fld, maps = h.dim, mod.dim, h.field, h.maps
    # the right action map, eps tensor 1 for M_eps, regrouped so that
    # column c holds the entry (k, j') of rho_right(c) at row k * m + j'
    rho = (_action_map(h, mod.right, m) if isinstance(mod, Bimodule)
           else kron(maps.counit, SparseMatrix.identity(fld, m)))
    c, jj = np.divmod(rho.col_idx, m)
    eye = np.arange(m, dtype=np.int64)
    # indexed by whether the outer slot is formed, the identity of M if not;
    # on the left, column b * m + k is column k of rho_left(b)
    rights = (SparseMatrix(fld, m * m, 1, (eye * (m + 1), 0 * eye, None)),
              SparseMatrix(fld, m * m, d, (rho.row_idx * m + jj, c, rho.vals)))
    lefts = (SparseMatrix.identity(fld, m), _action_map(h, mod.action, m))

    def evaluate(n, k, lo, width, composite, sign):
        left, right = lo == 0, lo + width == n + 2
        before, after = lo - 1 + left, n + 1 + right - lo - width  # formed slots around c
        padded = SparseMatrix.identity(fld, d ** n)
        if left:
            padded = kron(maps.unit, padded)
        if right:
            padded = kron(padded, maps.unit)
        r, x, v = _apply(h, [(1,) * before + layer + (1,) * after for layer in composite],
                         padded).triples()
        rest, c = np.divmod(r, d ** right)  # c = 0 without the right slot
        b, y = np.divmod(rest, d ** k)  # b = 0 without the left slot
        rows, at, w = rights[right].column_map()(c)
        kk, jj = np.divmod(rows, m)
        rows, at2, w2 = lefts[left].column_map()(b[at] * m + kk)
        at = at[at2]
        return (x[at] * m + rows, y[at] * m + jj[at2],
                fld.reduce(fld.reduce(fld.reduce(v * sign)[at] * w[at2]) * w2))

    return evaluate


def nonhomogeneous_complex(h: HopfAlgebra, mod: LeftModule, top: int) -> CochainComplex:
    """Degrees 0..top of the standard complex on Hom_k(A^(tensor n), M).
    The differential into degree n evaluates on the bar differential, the
    sum over i = 0..n of (-1)^i m in the padded slots i, i+1."""
    validate_module(h, mod)
    d, m, fld = h.dim, mod.dim, h.field
    require_budget(m * d ** (top + 1), "nonhomogeneous complex")
    evaluate = _evaluation(h, mod)
    mult, signs = h.maps.mult, (fld.one(), fld.neg(fld.one()))
    spaces = [CochainSpace.full(fld, m * d ** n) for n in range(top + 1)]
    diffs = []
    for n in range(1, top + 1):
        faces = [evaluate(n, n - 1, i, 2, [(mult,)], signs[i % 2]) for i in range(n + 1)]
        diffs.append(SparseMatrix(fld, m * d ** n, m * d ** (n - 1),
                                  [np.concatenate(part) for part in zip(*faces)]))
    return CochainComplex(fld, top, spaces, diffs)


def sigma_nonhomogeneous(h: HopfAlgebra, mod: LeftModule, n: int) -> ActionOperator:
    """The (i, i+1) generators on reduced degree-n cochains: sigma_i
    evaluates on -(m tensor 1 tensor m)(1 tensor 1 tensor S tensor 1 tensor 1)
    (1 tensor 1 tensor Delta tensor 1)(1 tensor Delta tensor 1) in the
    padded slots i-1, i, i+1."""
    require_cocommutative(h)
    mult, delta, _eta, _eps, s, _tau = h.maps
    # m tensor 1 tensor m as two layers, one map each
    sigma = [(mult, 1, 1), (1, 1, 1, mult), (1, 1, s, 1, 1), (1, 1, delta, 1), (1, delta, 1)]
    evaluate = _evaluation(h, mod)
    size, minus = mod.dim * h.dim ** n, h.field.neg(h.field.one())
    return ActionOperator(n, [SparseMatrix(h.field, size, size, evaluate(n, n, i - 1, 3, sigma, minus))
                              for i in range(1, n + 1)])


# -- cohomology drivers ----------------------------------------------------


def classical_cohomology(h: HopfAlgebra, mod: LeftModule, top: int) -> list:
    """H^0..H^{top-1} (HH for a bimodule) from the nonhomogeneous realization."""
    return cohomology_dims(nonhomogeneous_complex(h, mod, top))


def nonhomogeneous_symmetric_dims(h: HopfAlgebra, mod: LeftModule, top: int) -> list:
    """SH^0..SH^{top-1} (SHH for a bimodule) from the fixed subcomplex of
    the nonhomogeneous realization, which takes a bimodule as it is: for
    SHH this side never builds ad M."""
    require_cocommutative(h)
    cpx = nonhomogeneous_complex(h, mod, top)
    return cohomology_dims(fixed_subcomplex(
        cpx, [sigma_nonhomogeneous(h, mod, n) for n in range(top + 1)]))


def symmetric_cohomology(h: HopfAlgebra, mod: LeftModule, top: int) -> list:
    """SH^0..SH^{top-1}: cohomology of the fixed subcomplex of the
    homogeneous realization (its action is a signed permutation).

    For a bimodule M it is SHH(A, M), computed as SH(A, ad M) by the
    paper's theorem.
    """
    require_cocommutative(h)
    coeffs = adjoint_module(h, mod) if isinstance(mod, Bimodule) else mod
    cpx = homogeneous_complex(h, coeffs, top)
    return cohomology_dims(fixed_subcomplex(
        cpx, [sigma_homogeneous(h, coeffs, n) for n in range(top + 1)]))
