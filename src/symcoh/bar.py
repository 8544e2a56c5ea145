"""Standard and homogeneous cochain complexes of a cocommutative Hopf
algebra, the signed symmetric-group actions on them, and symmetric
cohomology, with coefficients in a left module (H, SH) or a bimodule
(HH, SHH).

Both coefficient kinds share one construction.  A bimodule adds one
trailing tensor slot, acted on from the right, to the homogeneous
realization; `mod.tail` (0 or 1) is that number of slots.  The standard
("nonhomogeneous") complex lives on reduced coordinates Hom_k(A^(tensor n), M)
for both: the equivariant evaluation
f(a_0 tensor x tensor a_last) = a_0 . f(1 tensor x tensor 1) . a_last
translates operators on the free resolution into boundary formulas with
the left action on the first term and the right action on the last.  A
left module M enters those formulas as the bimodule M_eps, whose right
action is the counit.  The homogeneous complex is the subspace of
Hom_k(A^(tensor n+1+tail), M) equivariant for the diagonal left action
(and right multiplication in the trailing slot), with the action by
signed swaps of the first n+1 slots.  For every algebra its basis is the
image of the tensor identity psi from Hom_k(A^(tensor n), M), and its
coordinates are the inverse F -> F(1 tensor - tensor 1) (see
equivariant_space).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .complexes import (DENSE_RANK_CELLS, ActionOperator, CochainComplex,
                        CochainSpace, cohomology_dims, fixed_subcomplex,
                        restrict_operator)
from .errors import BudgetExceeded, NotCocommutative
from .hopf import HopfAlgebra, iterated_comult
from .linalg import Matrix
from .modules import LeftModule, validate_module
from .sparse import SparseMatrix, field_array, kron_triples
from .tensors import (all_columns, all_tuples, bar_chain_diff, cochain_precompose,
                      cochain_swap_sigma, diagonal_columns, flat)

BUDGET = 200_000  # coordinates of the largest ambient cochain space a complex may have


@dataclass
class CohomologyReport:
    dims: list
    realization: str
    kind: str = "H"
    checks: list = dc_field(default_factory=list)
    routes: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(ok for _name, ok in self.checks)


def require_budget(coords: int, what: str):
    if coords > BUDGET:
        raise BudgetExceeded(
            f"{what} needs {coords} coordinates, budget is {BUDGET}")


def require_cocommutative(h: HopfAlgebra):
    if not h.is_cocommutative:
        raise NotCocommutative("the symmetric-group action needs tw . comult = comult")


def _blocks(mats) -> list:
    """Per matrix: its nonzero entries as (row, col, value)."""
    out = []
    for a in mats:
        r, c, v = SparseMatrix.from_dense(a).triples()
        out.append(list(zip(r.tolist(), c.tolist(), v.tolist())))
    return out


def _right_matrices(h: HopfAlgebra, mod: LeftModule) -> list:
    """Matrices of the right action; a left module acts as M_eps."""
    if mod.tail:
        return mod.right
    eye = Matrix.identity(h.field, mod.dim)
    return [eye.scale(e) for e in h.counit]


def _add_value_block(entries, row_base: int, col_base: int, coeff, block: list, fld):
    """Append coeff times the value action with entries `block` to the
    (rows, cols, vals) lists `entries`, at one block of tuples."""
    rows, cols, vals = entries
    for j2, j, v in block:
        rows.append(row_base + j2)
        cols.append(col_base + j)
        vals.append(fld.mul(coeff, v))


def _prefixed(mod: LeftModule, what: str) -> str:
    return "Hochschild " + what if mod.tail else what


# -- the homogeneous (equivariant-subspace) realization -------------------


def _psi_blocks(h: HopfAlgebra, mod: LeftModule) -> dict:
    """The value blocks of psi, keyed by (u, a, c): the matrix of the value
    map that psi(f) applies at b_a tensor x tensor b_c where f meets the
    diagonal action of b_u on x.

    A Sweedler term s_1 tensor ... tensor s_last of b_a gives b_u the
    coefficient of S(b_(s_last)) and the value map v -> s_1 . v, followed
    with a tail by . S(b_(s_2)) b_c.
    """
    fld = h.field
    tail = mod.tail
    blocks = {}
    for a in range(h.dim):
        for legs, coef in iterated_comult(h, a, 1 + tail).coeffs.items():
            for c in range(h.dim ** tail):
                value = mod.action[legs[0]]
                if tail:
                    closing = h.product(h.antipode_column(legs[1]), {c: fld.one()})
                    value = mod.right_act_element(h, closing) @ value
                for u, su in h.antipode_column(legs[-1]).items():
                    term = value.scale(fld.mul(coef, su))
                    key = (u, a, c)
                    blocks[key] = blocks[key] + term if key in blocks else term
    return blocks


def equivariant_space(h: HopfAlgebra, mod: LeftModule, slots: int) -> CochainSpace:
    """Maps A^(tensor slots) -> M equivariant for the diagonal left action
    and, for a bimodule, right multiplication in the last slot.

    The basis is the image of the tensor identity
    psi: Hom(A^(tensor n), M) -> Hom_A(A^(tensor slots), M), n = slots-1-tail,

        psi(f)(a tensor x tensor c) = a_(1) . f(S(a_(3)) . x) . S(a_(2)) c

    (a_(1) . f(S(a_(2)) . x) without a tail), and the coords are its
    inverse F -> F(1 tensor - tensor 1).  This holds for any Hopf algebra;
    the order of the legs matters only when A is not cocommutative.  The
    action of S(a_(3)) on the n inner slots is `diagonal_columns`: a
    permutation for a group algebra, a dense contraction otherwise.
    """
    d = h.dim
    m = mod.dim
    tail = mod.tail
    fld = h.field
    n = slots - 1 - tail
    inner = np.arange(d ** n, dtype=np.int64)
    ambient = (d ** slots) * m
    # ordered by (a, c): for a group algebra each a has one u
    blocks = sorted(((key, SparseMatrix.from_dense(value).triples())
                     for key, value in _psi_blocks(h, mod).items()), key=lambda b: b[0][1:])
    # D_u[y, x] for every x, sorted by y: the inner argument x of psi(f) meets f at y
    actions = {}
    acting = sorted({u for (u, _a, _c), _t in blocks})
    for u, columns in zip(acting, diagonal_columns(h, acting, n)):
        y, x, dv = columns(inner)
        order = np.argsort(y)
        actions[u] = (y[order], x[order], None if dv is None else dv[order])
    entries = sum(len(t[0]) * len(actions[u][0]) for (u, _a, _c), t in blocks)
    if entries > DENSE_RANK_CELLS:
        raise BudgetExceeded(
            f"equivariant basis on {slots} slots needs {entries} entries, "
            f"over the limit of {DENSE_RANK_CELLS}")
    # one grid per block: an action entry per row, a block entry per column
    grids = []
    for (u, a, c), (r, j, v) in blocks:
        y, x, dv = actions[u]
        head = (a * d ** (n + tail) + c) * m + r
        prod = np.broadcast_to(v, (len(y), len(v))) if dv is None else np.multiply.outer(dv, v)
        grids.append((head[None, :] + x[:, None] * (d ** tail * m), y[:, None] * m + j[None, :],
                      fld.reduce(prod)))
    if h.group_like:
        # every action is a permutation, so grid row y holds column y of psi
        # in every block; side by side with the block entries ordered by
        # (j, a, c, r), the grids are in canonical order
        order = np.argsort(np.concatenate([t[1] for _key, t in blocks]), kind="stable")
        triples = [np.concatenate(part, axis=1)[:, order].reshape(-1) for part in zip(*grids)]
    else:
        triples = [np.concatenate([g.reshape(-1) for g in part]) for part in zip(*grids)]
    basis = SparseMatrix(fld, ambient, len(inner) * m, triples)
    # F(1 tensor x tensor 1), with 1 expanded in the basis of A
    unit = list(h.unit_dict().items())
    rows, cols, vals = [], [], []
    for lead, lc in unit:
        for last, tc in unit if tail else [(0, fld.one())]:
            rows.append(inner)
            cols.append((lead * len(inner) + inner) * d ** tail + last)
            vals.append(field_array(fld, [fld.mul(lc, tc)] * len(inner)))
    coords = SparseMatrix(fld, len(inner) * m, ambient,
                          kron_triples(fld, [np.concatenate(part) for part in (rows, cols, vals)],
                                       all_columns(m), (m, m)))
    return CochainSpace(ambient, basis, coords, check=False)


def homogeneous_complex(h: HopfAlgebra, mod: LeftModule, top: int) -> CochainComplex:
    """Degrees 0..top of the equivariant realization, degree n on n+1+tail
    slots; the differential is precomposition with the alternating
    counit-deletion chain map."""
    validate_module(h, mod)
    m = mod.dim
    tail = mod.tail
    require_budget(m * h.dim ** (top + 1 + tail), _prefixed(mod, "homogeneous complex"))
    # highest degree first, so a degree over the entry limit fails before
    # the smaller ones are built
    spaces = [equivariant_space(h, mod, n + 1 + tail) for n in range(top, -1, -1)][::-1]
    diffs = [cochain_precompose(bar_chain_diff(h, n + 1, tail), m)
             for n in range(top)]
    return CochainComplex(h.field, top, spaces, diffs, label="K_e" if tail else "K")


def sigma_homogeneous(h: HopfAlgebra, mod: LeftModule, n: int,
                      space: CochainSpace | None = None) -> ActionOperator:
    """Signed swaps of slots i-1, i on degree n of the homogeneous
    realization; a trailing bimodule slot never moves.

    If `space` is given, each generator is checked to preserve it
    (raising ActionLeavesSubspace otherwise).
    """
    require_cocommutative(h)
    sigmas = [cochain_swap_sigma(h.field, h.dim, n + 1 + mod.tail, i, mod.dim)
              for i in range(1, n + 1)]
    if space is not None:
        for s in sigmas:
            restrict_operator(space, s)
    return ActionOperator(n, sigmas)


# -- the nonhomogeneous (reduced-coordinate) realization -------------------


def nonhomogeneous_complex(h: HopfAlgebra, mod: LeftModule, top: int) -> CochainComplex:
    """Degrees 0..top of the standard complex on Hom_k(A^(tensor n), M)."""
    validate_module(h, mod)
    d = h.dim
    m = mod.dim
    fld = h.field
    require_budget(m * d ** (top + 1 + mod.tail), _prefixed(mod, "nonhomogeneous complex"))
    left = _blocks(mod.action)
    right = _blocks(_right_matrices(h, mod))
    one = fld.one()
    eye = [(j, j, one) for j in range(m)]
    spaces = [CochainSpace.full(fld, m * d ** n) for n in range(top + 1)]
    diffs = []
    for n in range(top):
        entries = ([], [], [])
        for tup in all_tuples(d, n + 1):
            row_base = flat(tup, d) * m
            # first face: the leading argument acts on the value from the left
            _add_value_block(entries, row_base, flat(tup[1:], d) * m, one, left[tup[0]], fld)
            # inner faces: multiply adjacent arguments
            sign = fld.neg(one)
            for i in range(n):
                for k, c in h.mult[tup[i]][tup[i + 1]].items():
                    col_base = flat(tup[:i] + (k,) + tup[i + 2:], d) * m
                    _add_value_block(entries, row_base, col_base, fld.mul(sign, c), eye, fld)
                sign = fld.neg(sign)
            # last face: the trailing argument acts on the value from the right
            _add_value_block(entries, row_base, flat(tup[:n], d) * m, sign, right[tup[n]], fld)
        diffs.append(SparseMatrix(fld, m * d ** (n + 1), m * d ** n, entries))
    return CochainComplex(fld, top, spaces, diffs, label="C_e" if mod.tail else "C")


def _sweedler_triples(h: HopfAlgebra, i: int) -> dict:
    return iterated_comult(h, i, 2).coeffs


def sigma_nonhomogeneous(h: HopfAlgebra, mod: LeftModule, n: int) -> ActionOperator:
    """The (i, i+1) generators on reduced degree-n cochains.

    The interior formula substitutes the Sweedler triple of the i-th
    argument; at i = 1 the leading leg acts on the value from the left,
    at i = n the trailing leg from the right.
    """
    require_cocommutative(h)
    if n < 1:
        return ActionOperator(n, [])
    d = h.dim
    m = mod.dim
    fld = h.field
    left = _blocks(mod.action)
    right_mats = _right_matrices(h, mod)
    right = _blocks(right_mats)
    eye = [(j, j, fld.one()) for j in range(m)]
    size = m * d ** n
    minus = fld.neg(fld.one())
    sigmas = []
    for i in range(1, n + 1):
        entries = ([], [], [])
        for tup in all_tuples(d, n):
            row_base = flat(tup, d) * m
            if i == 1 and n == 1:
                for (s1, s2, s3), c in _sweedler_triples(h, tup[0]).items():
                    # both boundary actions: left by s1, right by s3
                    block = _blocks([right_mats[s3] @ mod.action[s1]])[0]
                    for u, su in h.antipode_column(s2).items():
                        _add_value_block(entries, row_base, flat((u,), d) * m,
                                         fld.mul(minus, fld.mul(c, su)), block, fld)
            elif i == 1:
                for (s1, s2, s3), c in _sweedler_triples(h, tup[0]).items():
                    for u, su in h.antipode_column(s2).items():
                        for v2, mv in h.mult[s3][tup[1]].items():
                            coeff = fld.mul(minus, fld.mul(c, fld.mul(su, mv)))
                            _add_value_block(entries, row_base,
                                             flat((u, v2) + tup[2:], d) * m,
                                             coeff, left[s1], fld)
            elif i == n:
                for (s1, s2, s3), c in _sweedler_triples(h, tup[n - 1]).items():
                    for a, ma in h.mult[tup[n - 2]][s1].items():
                        for u, su in h.antipode_column(s2).items():
                            coeff = fld.mul(minus, fld.mul(c, fld.mul(ma, su)))
                            _add_value_block(entries, row_base,
                                             flat(tup[:n - 2] + (a, u), d) * m,
                                             coeff, right[s3], fld)
            else:
                for (s1, s2, s3), c in _sweedler_triples(h, tup[i - 1]).items():
                    for a, ma in h.mult[tup[i - 2]][s1].items():
                        for u, su in h.antipode_column(s2).items():
                            for v2, mv in h.mult[s3][tup[i]].items():
                                coeff = fld.mul(minus,
                                                fld.mul(fld.mul(c, ma), fld.mul(su, mv)))
                                col_base = flat(tup[:i - 2] + (a, u, v2) + tup[i + 1:], d) * m
                                _add_value_block(entries, row_base, col_base, coeff, eye, fld)
        sigmas.append(SparseMatrix(fld, size, size, entries))
    return ActionOperator(n, sigmas)


# -- cohomology drivers ----------------------------------------------------


def _fixed_dims(cpx: CochainComplex, ops: list, top: int) -> list:
    """Dims of degrees 0..top-1 of the fixed subcomplex of cpx under ops."""
    return cohomology_dims(fixed_subcomplex(cpx, ops, through_degree=top - 1), top - 1)


def classical_cohomology(h: HopfAlgebra, mod: LeftModule, top: int) -> CohomologyReport:
    """H^0..H^{top-1} (HH for a bimodule) from the nonhomogeneous realization."""
    cpx = nonhomogeneous_complex(h, mod, top)
    return CohomologyReport(cohomology_dims(cpx, top - 1), "nonhomogeneous",
                            kind="HH" if mod.tail else "H")


def symmetric_cohomology(h: HopfAlgebra, mod: LeftModule, top: int,
                         cross_check: bool = False) -> CohomologyReport:
    """SH^0..SH^{top-1} (SHH for a bimodule): cohomology of the fixed subcomplex.

    The homogeneous realization computes it (its action is a signed
    permutation); cross_check recomputes through the nonhomogeneous
    realization and records agreement.
    """
    require_cocommutative(h)
    validate_module(h, mod)
    cpx = homogeneous_complex(h, mod, top)
    ops = [sigma_homogeneous(h, mod, n, space=cpx.spaces[n]) for n in range(top + 1)]
    dims = _fixed_dims(cpx, ops, top)
    report = CohomologyReport(dims, "homogeneous", kind="SHH" if mod.tail else "SH")
    report.routes["homogeneous"] = dims
    if cross_check:
        cpx = nonhomogeneous_complex(h, mod, top)
        ops = [sigma_nonhomogeneous(h, mod, n) for n in range(top + 1)]
        other = _fixed_dims(cpx, ops, top)
        report.routes["nonhomogeneous"] = other
        report.checks.append(("realizations_agree", dims == other))
    return report
