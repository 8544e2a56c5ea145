"""Standard and homogeneous cochain complexes of a cocommutative Hopf
algebra, the signed symmetric-group actions on them, and symmetric
cohomology, with coefficients in a left module (H, SH) or a bimodule
(HH, SHH).

The homogeneous complex is the subspace of Hom_k(A^(tensor n+1), M)
equivariant for the diagonal left action, with the action by signed
swaps of the n+1 slots.  Its basis is the image of the tensor identity
psi from Hom_k(A^(tensor n), M), its coordinates the inverse
F -> F(1 tensor -) (see equivariant_space), and its differential is
precomposition with the transposed counit-deletion chain map tensor
id_M, only ever applied to a fixed basis (see _homogeneous_image).  For
a group algebra with a permutation module the restricted swaps are
signed permutations, so its fixed points are orbits.  It takes a left
module only: SHH(A, M) of a bimodule M is SH(A, ad M), the paper's
theorem, so `symmetric_cohomology` computes it on the adjoint module.

The standard ("nonhomogeneous") complex lives on reduced coordinates
Hom_k(A^(tensor n), M) and takes a bimodule natively.  It is
Hom_(A-A)(A tensor A^(tensor n) tensor A, M) over the bar resolution,
by f -> F, F(b tensor y tensor c) = b . f(y) . c, so each of its
operators is one evaluation: f -> (x -> F(c(1 tensor x tensor 1))) for a
composite c of the sparse structure maps (see _evaluation).  A left
module M enters as the bimodule M_eps, whose right action is the counit.
H and HH are ranked on its normalized subcomplex Hom_k(Abar^(tensor n),
M), Abar = A / k1, of m (d-1)^n coordinates in a basis that holds 1
(`nonhomogeneous_degrees`); every SHH check that never builds ad M
(`nonhomogeneous_symmetric_dims`) keeps the whole complex, since
normalization is not sigma-stable.

Each realization gives the cohomology of degrees 0..top-1 one degree at
a time (`homogeneous_degrees`, `nonhomogeneous_degrees`, through
`complexes.fixed_degrees`): the swaps of each degree, the top one
included, are certified and dropped, and the top space is kept.
"""

from __future__ import annotations

import numpy as np

from .complexes import CochainSpace, fixed_cohomology, fixed_degrees, require_cocommutative
from .errors import BudgetExceeded
from .hopf import HopfAlgebra, StructureMaps, _apply
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
    return CochainSpace(basis, coords)


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


def _unit_basis(h: HopfAlgebra, mod: LeftModule):
    """(maps, mod, k): h and mod in the basis b'_k = 1, k the first nonzero
    coordinate of the unit u, b'_i = b_i otherwise: with P the identity
    with column k the unit and Q = P^-1 = 1 - (P - 1) / u_k, m' = Q m (P
    tensor P), Delta' = (Q tensor Q) Delta P, eps' = eps P, S' = Q S P and
    eta' = Q eta = e_k; the action of b'_k is the identity (`validate_module`)."""
    fld, d = h.field, h.dim
    rows, _cols, u = h.maps.unit.triples()
    k, inv, eye = int(rows[0]), fld.inv(u.tolist()[0]), SparseMatrix.identity(fld, d)
    ek = SparseMatrix(fld, 1, d, ([0], [k], None))  # e_k^T
    jump = (h.maps.unit - ek.transpose()) @ ek  # P - 1
    p, q = eye + jump, combination(fld, d, d, [(fld.one(), eye), (fld.neg(inv), jump)])
    mult, delta, eta, eps, s, swap = h.maps
    maps = StructureMaps(q @ mult @ kron(p, p), kron(q, q) @ delta @ p, q @ eta, eps @ p,
                         q @ s @ p, swap)
    one = [SparseMatrix.identity(fld, mod.dim)]
    sides = [mod.action, mod.right] if isinstance(mod, Bimodule) else [mod.action]
    return maps, type(mod)(mod.dim, *[mats[:k] + one + mats[k + 1:] for mats in sides]), k


def _evaluation(h: HopfAlgebra, maps, mod: LeftModule):
    """evaluate(n, k, lo, width, composite, sign, xs): the triples of the
    operator Hom_k(A^(tensor k), M) -> Hom_k(A^(tensor n), M) at the tuples
    xs of A^(tensor n), with the structure maps `maps` of h in some basis,

        f -> (x -> sign F(c(1 tensor x tensor 1))),  F(b tensor y tensor c) = b . f(y) . c,

    where the composite c (tuple layers, as in hopf._apply) reads the
    `width` padded slots from lo of 1 tensor x tensor 1 (slots 0..n+1), x
    = xs[i] at row i * m + j.  Only an outer slot that c reads is formed,
    from the coordinates of the unit; one it does not read stays 1, which
    acts as the identity.  A left module acts as M_eps.

    The join of c(1 tensor x tensor 1) to the value action takes two
    column-map lookups: each entry (b, y, c) at x meets every entry (k, j')
    of rho_right(c), and then column k of rho_left(b)."""
    d, m, fld = h.dim, mod.dim, h.field
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

    def evaluate(n, k, lo, width, composite, sign, xs):
        left, right = lo == 0, lo + width == n + 2
        before, after = lo - 1 + left, n + 1 + right - lo - width  # formed slots around c
        padded = SparseMatrix(fld, d ** n, len(xs), (xs, np.arange(len(xs), dtype=np.int64), None))
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


def nonhomogeneous_degrees(h: HopfAlgebra, mod: LeftModule, top: int, sigmas=None):
    """`fixed_degrees` of the standard complex on Hom_k(A^(tensor n), M)
    through degree top: with generators sigmas(n), all of it (normalization
    is not sigma-stable); without (H, HH), the quasi-isomorphic normalized
    Hom_k(Abar^(tensor n), M), Abar = A / k1 (Mac Lane, Homology, X.2), in
    a basis holding 1 (`_unit_basis`) the tuples with no unit slot.  The
    differential into degree n+1, the sum over i = 0..n+1 of (-1)^i m in
    the padded slots i, i+1, is evaluated at every tuple, in batches of
    about DIFF_BATCH terms for a group algebra; the rows at a tuple with a
    unit slot must vanish on the space (else AssertionError)."""
    validate_module(h, mod)
    normal = sigmas is None
    maps, mod, k = _unit_basis(h, mod) if normal else (h.maps, mod, h.dim)
    d, m, fld, kept = h.dim, mod.dim, h.field, h.dim - normal  # kept: the values of a slot
    require_budget(m * kept ** (top + 1), "nonhomogeneous complex")
    require_budget(m * d ** top, "the evaluation of the nonhomogeneous complex")
    evaluate, signs = _evaluation(h, maps, mod), (fld.one(), fld.neg(fld.one()))

    def position(x, slots):  # of each tuple x in the space, -1 at one with a unit slot
        digit = x[:, None] // d ** np.arange(slots, dtype=np.int64) % d
        pos = (digit - (digit > k)) @ kept ** np.arange(slots, dtype=np.int64)
        return np.where((digit == k).any(axis=1), -1, pos)

    def image(n, fixed):
        size, step, parts = d ** (n + 1), max(DIFF_BATCH // ((n + 2) * m), 1), []
        for lo in range(0, size, step):
            xs = np.arange(lo, min(lo + step, size), dtype=np.int64)
            r, c, v = (np.concatenate(part) for part in zip(*(
                evaluate(n + 1, n, i, 2, [(maps.mult,)], signs[i % 2], xs) for i in range(n + 2))))
            y = position(c // m, n)
            batch = SparseMatrix(fld, m * len(xs), m * kept ** n,
                                 (r[y >= 0], y[y >= 0] * m + c[y >= 0] % m, v[y >= 0]))
            x = position(xs, n + 1)[batch.row_idx // m]
            if (x < 0).any():
                raise AssertionError(f"normalized cochains are no subcomplex: the degree-{n} "
                                     "differential is nonzero at a tuple with a unit slot")
            parts.append((x * m + batch.row_idx % m, batch.col_idx, batch.vals))
        diff = SparseMatrix(fld, m * kept ** (n + 1), m * kept ** n,
                            [np.concatenate(p) for p in zip(*parts)])
        return diff if fixed.is_full else diff @ fixed.basis

    return fixed_degrees(fld, [CochainSpace.full(fld, m * kept ** n) for n in range(top, -1, -1)],
                         sigmas or (lambda n: []), image)


def sigma_nonhomogeneous(h: HopfAlgebra, mod: LeftModule, n: int) -> list:
    """The (i, i+1) generators on reduced degree-n cochains: sigma_i
    evaluates on -(m tensor 1 tensor m)(1 tensor 1 tensor S tensor 1 tensor 1)
    (1 tensor 1 tensor Delta tensor 1)(1 tensor Delta tensor 1) in the
    padded slots i-1, i, i+1."""
    require_cocommutative(h)
    mult, delta, _eta, _eps, s, _tau = h.maps
    # m tensor 1 tensor m as two layers, one map each
    sigma = [(mult, 1, 1), (1, 1, 1, mult), (1, 1, s, 1, 1), (1, 1, delta, 1), (1, delta, 1)]
    evaluate = _evaluation(h, h.maps, mod)
    size, minus, xs = mod.dim * h.dim ** n, h.field.neg(h.field.one()), np.arange(h.dim ** n)
    return [SparseMatrix(h.field, size, size, evaluate(n, n, i - 1, 3, sigma, minus, xs))
            for i in range(1, n + 1)]


# -- cohomology drivers ----------------------------------------------------


def classical_cohomology(h: HopfAlgebra, mod: LeftModule, top: int) -> list:
    """H^0..H^{top-1} (HH for a bimodule) from the normalized standard complex."""
    return fixed_cohomology(nonhomogeneous_degrees(h, mod, top))


def nonhomogeneous_symmetric_dims(h: HopfAlgebra, mod: LeftModule, top: int) -> list:
    """SH^0..SH^{top-1} (SHH for a bimodule) from the fixed subcomplex of
    the nonhomogeneous realization, which takes a bimodule as it is: for
    SHH this side never builds ad M."""
    require_cocommutative(h)
    return fixed_cohomology(nonhomogeneous_degrees(
        h, mod, top, lambda n: sigma_nonhomogeneous(h, mod, n)))


def symmetric_cohomology(h: HopfAlgebra, mod: LeftModule, top: int) -> list:
    """SH^0..SH^{top-1}: cohomology of the fixed subcomplex of the
    homogeneous realization (its action is a signed permutation).

    For a bimodule M it is SHH(A, M), computed as SH(A, ad M) by the
    paper's theorem.
    """
    require_cocommutative(h)
    coeffs = adjoint_module(h, mod) if isinstance(mod, Bimodule) else mod
    return fixed_cohomology(homogeneous_degrees(h, coeffs, top))
