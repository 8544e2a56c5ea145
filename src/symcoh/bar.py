"""Standard and homogeneous cochain complexes of a cocommutative Hopf
algebra, the signed symmetric-group actions on them, and symmetric
cohomology, with coefficients in a left module (H, SH) or a bimodule
(HH, SHH).

The homogeneous complex is the subspace of Hom_k(A^(tensor n+1), M)
equivariant for the diagonal left action, with the action by signed
swaps of the n+1 slots.  For every algebra its basis is the image of the
tensor identity psi from Hom_k(A^(tensor n), M), and its coordinates are
the inverse F -> F(1 tensor -) (see equivariant_space).  Its differential
is precomposition with the counit-deletion chain map, the transposed
chain map tensor id_M, which is only ever applied to a fixed basis (see
_homogeneous_image).  For a group algebra with a permutation module the
restricted swaps are signed permutations, so its fixed points are orbits
(complexes.fixed_degrees).
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
degrees 0..top-1, one degree at a time (`homogeneous_degrees`,
`nonhomogeneous_degrees`, through `complexes.fixed_degrees`): the swaps
of each degree, the top one included, are certified and dropped, and
the top space, only the target of the last differential, is kept.
"""

from __future__ import annotations

import numpy as np

from .complexes import CochainSpace, fixed_cohomology, fixed_degrees, require_cocommutative
from .errors import BudgetExceeded
from .hopf import HopfAlgebra, _apply
from .modules import Bimodule, LeftModule, _action_map, adjoint_module, validate_module
from .sparse import (SparseMatrix, _column_batches, canonical, combination, kron, kron_triples,
                     require_terms)
from .tensors import bar_chain_transpose_columns, cochain_swap_sigmas, diagonal_columns

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
    cocommutative.  As matrices, with D_u the diagonal action of b_u on the
    n inner slots and V_(u,a) the value blocks (`_psi_blocks`),

        basis = sum over (u, a) of e_a tensor D_u^T tensor V_(u,a),
        coords = eta^T tensor id,

    summed once.  D_u^T is read off its column map (`diagonal_columns`: a
    permutation for a group algebra, the sparse action of the tensor power
    of the regular module otherwise, whose levels `levels` keeps across
    calls), one u at a time, and u's terms are charged before they are
    formed.
    """
    d, m, fld, n = h.dim, mod.dim, h.field, slots - 1
    inner = np.arange(d ** n, dtype=np.int64)
    blocks = _psi_blocks(h, mod)
    acting = sorted({u for u, _a in blocks})
    parts, entries = [], 0
    for u, transposed in zip(acting, diagonal_columns(h, acting, n, levels)):
        x, y, dv = transposed(inner)  # D_u^T, sorted by column
        mine = [(a, value.triples()) for (v, a), value in blocks.items() if v == u]
        entries += len(y) * sum(len(t[0]) for _a, t in mine)
        require_terms(entries, f"the equivariant basis on {slots} slots")
        for a, value in mine:  # e_a tensor D_u^T: the rows of D_u^T moved to block a
            parts.append(kron_triples(fld, (x + a * d ** n, y, dv), value, (m, m)))
    basis = SparseMatrix(fld, d ** slots * m, d ** n * m, [np.concatenate(p) for p in zip(*parts)])
    coords = kron(h.maps.unit.transpose(), SparseMatrix.identity(fld, d ** n * m))
    return CochainSpace(d ** slots * m, basis, coords)


def _homogeneous_image(h: HopfAlgebra, n: int, m: int, basis: SparseMatrix) -> SparseMatrix:
    """Degree n's differential, precomposition with the counit-deletion
    chain map on n+2 slots (its transpose tensor id_M), applied to `basis`
    unformed: an entry at (x, j) meets column x of the transpose
    (`bar_chain_transpose_columns`) in value slot j.  Summed in batches of
    whole columns of at most DIFF_BATCH terms (or one column), which come
    out in canonical order."""
    fld = h.field
    columns = bar_chain_transpose_columns(h, n + 1)
    r, c, v = basis.triples()
    x, j = np.divmod(r, m)
    shape = (h.dim ** (n + 2) * m, basis.cols)
    ends = (n + 2) * h.maps.counit.nnz() * np.arange(1, len(c) + 1)  # terms of entries 0..i
    parts = []
    for lo, hi in _column_batches(c, ends, DIFF_BATCH):
        rows, pos, vals = columns(x[lo:hi])
        pos += lo
        parts.append(canonical(fld, rows * m + j[pos], c[pos], fld.reduce(v[pos] * vals),
                               shape=shape))
    return SparseMatrix(fld, *shape, [np.concatenate(p) for p in zip(*parts)] or None)


def homogeneous_degrees(h: HopfAlgebra, mod: LeftModule, top: int):
    """`fixed_degrees` of the equivariant realization through degree top,
    degree n on n+1 slots.  The spaces are built highest degree first, so
    one over the entry limit fails first and its tensor-power levels serve
    the smaller ones; no differential is formed (`_homogeneous_image`)."""
    validate_module(h, mod)
    m = mod.dim
    require_budget(m * h.dim ** (top + 1), "homogeneous complex")
    levels = []
    spaces = [equivariant_space(h, mod, n + 1, levels) for n in range(top, -1, -1)]
    return fixed_degrees(h.field, spaces, lambda n: sigma_homogeneous(h, mod, n),
                         lambda n, fixed: _homogeneous_image(h, n, m, fixed.basis))


def sigma_homogeneous(h: HopfAlgebra, mod: LeftModule, n: int) -> list:
    """Signed swaps of slots i-1, i on degree n of the homogeneous
    realization."""
    require_cocommutative(h)
    return cochain_swap_sigmas(h.field, h.dim, n + 1, mod.dim)


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


def nonhomogeneous_degrees(h: HopfAlgebra, mod: LeftModule, top: int, sigmas=lambda n: []):
    """`fixed_degrees` of the standard complex on Hom_k(A^(tensor n), M)
    through degree top, on full spaces, with the generators sigmas(n) (none
    for H and HH).  The differential into degree n evaluates on the bar
    differential, the sum over i = 0..n of (-1)^i m in the padded slots i,
    i+1; it is formed when degree n is reached and dropped after
    restriction."""
    validate_module(h, mod)
    d, m, fld = h.dim, mod.dim, h.field
    require_budget(m * d ** (top + 1), "nonhomogeneous complex")
    evaluate = _evaluation(h, mod)
    mult, signs = h.maps.mult, (fld.one(), fld.neg(fld.one()))

    def image(n, fixed):
        faces = [evaluate(n + 1, n, i, 2, [(mult,)], signs[i % 2]) for i in range(n + 2)]
        diff = SparseMatrix(fld, m * d ** (n + 1), m * d ** n,
                            [np.concatenate(part) for part in zip(*faces)])
        return diff if fixed.is_full else diff @ fixed.basis

    return fixed_degrees(fld, [CochainSpace.full(fld, m * d ** n) for n in range(top, -1, -1)],
                         sigmas, image)


def sigma_nonhomogeneous(h: HopfAlgebra, mod: LeftModule, n: int) -> list:
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
    return [SparseMatrix(h.field, size, size, evaluate(n, n, i - 1, 3, sigma, minus))
            for i in range(1, n + 1)]


# -- cohomology drivers ----------------------------------------------------


def classical_cohomology(h: HopfAlgebra, mod: LeftModule, top: int) -> list:
    """H^0..H^{top-1} (HH for a bimodule) from the nonhomogeneous realization."""
    return fixed_cohomology(h.field, nonhomogeneous_degrees(h, mod, top))


def nonhomogeneous_symmetric_dims(h: HopfAlgebra, mod: LeftModule, top: int) -> list:
    """SH^0..SH^{top-1} (SHH for a bimodule) from the fixed subcomplex of
    the nonhomogeneous realization, which takes a bimodule as it is: for
    SHH this side never builds ad M."""
    require_cocommutative(h)
    return fixed_cohomology(h.field, nonhomogeneous_degrees(
        h, mod, top, lambda n: sigma_nonhomogeneous(h, mod, n)))


def symmetric_cohomology(h: HopfAlgebra, mod: LeftModule, top: int) -> list:
    """SH^0..SH^{top-1}: cohomology of the fixed subcomplex of the
    homogeneous realization (its action is a signed permutation).

    For a bimodule M it is SHH(A, M), computed as SH(A, ad M) by the
    paper's theorem.
    """
    require_cocommutative(h)
    coeffs = adjoint_module(h, mod) if isinstance(mod, Bimodule) else mod
    return fixed_cohomology(h.field, homogeneous_degrees(h, coeffs, top))
