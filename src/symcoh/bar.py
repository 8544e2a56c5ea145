"""Standard and homogeneous cochain complexes of a cocommutative Hopf
algebra, the signed symmetric-group actions on them, the chain
isomorphisms between the two realizations, and symmetric cohomology,
with coefficients in a left module (H, SH) or a bimodule (HH, SHH).

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
signed swaps of the first n+1 slots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .complexes import (ActionOperator, CochainComplex, CochainSpace,
                        _left_inverse_dense, cohomology_dims,
                        fixed_subcomplex, restrict_operator)
from .errors import BudgetExceeded, NotCocommutative
from .hopf import HopfAlgebra, iterated_comult
from .linalg import Matrix, intersect_kernels
from .modules import LeftModule, kron, regular_bimodule, validate_module
from .sparse import SparseMatrix
from .tensors import (all_tuples, bar_chain_diff, cochain_precompose,
                      cochain_swap_sigma, diagonal_action, flat, group_diagonal_perm,
                      kron_identity)

DEFAULT_BUDGET = 200_000
GENERIC_SOLVE_LIMIT = 4096  # ambient coordinates of a dense generic solve


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


def require_budget(coords: int, budget: int, what: str):
    if coords > budget:
        raise BudgetExceeded(
            f"{what} needs {coords} coordinates, budget is {budget}")


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


def equivariant_space(h: HopfAlgebra, mod: LeftModule, slots: int,
                      force_generic: bool = False) -> CochainSpace:
    """Maps A^(tensor slots) -> M equivariant for the diagonal left action
    and, for a bimodule, right multiplication in the last slot.

    Group algebras use the free-orbit basis (one functional per orbit
    representative and module basis vector); anything else solves the
    equivariance equations as one dense kernel.
    """
    d = h.dim
    m = mod.dim
    tail = mod.tail
    fld = h.field
    ambient = (d ** slots) * m
    if h.group_like and not force_generic:
        e = h.group_identity
        # representatives (e, rest, e^tail), one per rest; with a tail,
        # base has 0 in the trailing slot
        rest = np.arange(d ** (slots - tail - 1), dtype=np.int64)
        base = e * d ** (slots - 1) + rest * d ** tail
        reps = base + e * tail
        at = np.arange(len(reps), dtype=np.int64)
        # g moves (rep, c) to g.(rep, c), taking the value g . m_j . c; without
        # a tail, g moves rep to g.rep, taking the value g . m_j
        rows, cols, vals = [], [], []
        for g in range(d):
            perm = group_diagonal_perm(h, g, slots)
            for c in range(d) if tail else [0]:
                value = mod.left[g] @ mod.right[c] if tail else mod.action[g]
                vr, vc, vv = SparseMatrix.from_dense(value).triples()
                rows.append((perm[base + c][:, None] * m + vr).reshape(-1))
                cols.append((at[:, None] * m + vc).reshape(-1))
                vals.append(np.tile(vv, len(at)))
        basis = SparseMatrix(fld, ambient, len(reps) * m,
                             [np.concatenate(x) for x in (rows, cols, vals)])
        coords = SparseMatrix(fld, len(reps) * m, ambient, kron_identity(at, reps, None, m))
        return CochainSpace(ambient, basis, coords, check=False)

    if ambient > GENERIC_SOLVE_LIMIT:
        raise BudgetExceeded(
            f"generic equivariant solve on {ambient} coordinates is over the limit")
    # precomposition with an operator D on the tuples is kron(D^T, I_m); the
    # action on values is kron(I, act); right multiplication in the trailing
    # slot is I on the leading slots tensor the regular right action
    size = d ** slots
    eye_m = Matrix.identity(fld, m)
    eye = Matrix.identity(fld, size)
    if tail:
        lead = Matrix.identity(fld, d ** (slots - 1))
        eye_d = Matrix.identity(fld, d)
        right = regular_bimodule(h).right
    constraints = []
    for b in range(d):
        act = diagonal_action(h, b, slots).T
        act = Matrix(fld, size, size, act.tolist() if fld.is_rational else act)
        constraints.append(kron(act, eye_m) - kron(eye, mod.action[b]))
        if tail:
            constraints.append(kron(lead, kron(right[b].transpose(), eye_m)
                                    - kron(eye_d, mod.right[b])))
    sub = intersect_kernels(constraints)
    basis = SparseMatrix.from_dense(sub.basis)
    coords = SparseMatrix.from_dense(_left_inverse_dense(sub.basis))
    return CochainSpace(ambient, basis, coords, check=False)


def homogeneous_complex(h: HopfAlgebra, mod: LeftModule, top: int,
                        budget: int = DEFAULT_BUDGET,
                        force_generic: bool = False) -> CochainComplex:
    """Degrees 0..top of the equivariant realization, degree n on n+1+tail
    slots; the differential is precomposition with the alternating
    counit-deletion chain map."""
    validate_module(h, mod)
    m = mod.dim
    tail = mod.tail
    require_budget(m * h.dim ** (top + 1 + tail), budget,
                   _prefixed(mod, "homogeneous complex"))
    spaces = [equivariant_space(h, mod, n + 1 + tail, force_generic=force_generic)
              for n in range(top + 1)]
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


def nonhomogeneous_complex(h: HopfAlgebra, mod: LeftModule, top: int,
                           budget: int = DEFAULT_BUDGET) -> CochainComplex:
    """Degrees 0..top of the standard complex on Hom_k(A^(tensor n), M)."""
    validate_module(h, mod)
    d = h.dim
    m = mod.dim
    fld = h.field
    require_budget(m * d ** (top + 1 + mod.tail), budget,
                   _prefixed(mod, "nonhomogeneous complex"))
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


def sigma_nonhomogeneous_ambient(h: HopfAlgebra, mod: LeftModule, n: int) -> ActionOperator:
    """The same action written on all of Hom_k(A^(tensor n+1+tail), M),
    where the first (and for a bimodule the last) tensor slot is a free
    module coordinate.  Used to cross-check the reduced boundary formulas
    under f(a_0 tensor x tensor a_last) = a_0 . f(1 tensor x tensor 1) . a_last."""
    require_cocommutative(h)
    d = h.dim
    m = mod.dim
    fld = h.field
    slots = n + 1 + mod.tail
    size = m * d ** slots
    minus = fld.neg(fld.one())
    eye = [(j, j, fld.one()) for j in range(m)]
    sigmas = []
    for i in range(1, n + 1):
        entries = ([], [], [])
        for tup in all_tuples(d, slots):
            row_base = flat(tup, d) * m
            if i + 1 < slots:
                # interior: the slot after the moved one exists
                for (s1, s2, s3), c in _sweedler_triples(h, tup[i]).items():
                    for a, ma in h.mult[tup[i - 1]][s1].items():
                        for u, su in h.antipode_column(s2).items():
                            for v, mv in h.mult[s3][tup[i + 1]].items():
                                coeff = fld.mul(minus,
                                                fld.mul(fld.mul(c, ma), fld.mul(su, mv)))
                                col_base = flat(tup[:i - 1] + (a, u, v) + tup[i + 2:], d) * m
                                _add_value_block(entries, row_base, col_base, coeff, eye, fld)
            else:
                for (s1, s2), c in h.comult[tup[n]].items():
                    for a, ma in h.mult[tup[n - 1]][s1].items():
                        for u, su in h.antipode_column(s2).items():
                            coeff = fld.mul(minus, fld.mul(c, fld.mul(ma, su)))
                            col_base = flat(tup[:n - 1] + (a, u), d) * m
                            _add_value_block(entries, row_base, col_base, coeff, eye, fld)
        sigmas.append(SparseMatrix(fld, size, size, entries))
    return ActionOperator(n, sigmas)


# -- the chain isomorphisms between the realizations ----------------------


def _leg_product(h: HopfAlgebra, legs) -> dict | None:
    """The product of the basis elements `legs` in order (None if empty)."""
    one = h.field.one()
    vec = None
    for leg in legs:
        vec = {leg: one} if vec is None else h.product(vec, {leg: one})
    return vec


def _antipode_times(h: HopfAlgebra, s: int, b: int) -> dict:
    """S(b_s) * b_b with zero entries dropped."""
    fld = h.field
    vec: dict = {}
    for u, su in h.antipode_column(s).items():
        for w, mw in h.mult[u][b].items():
            vec[w] = fld.add(vec.get(w, fld.zero()), fld.mul(su, mw))
    return {k: v for k, v in vec.items() if v != 0}


def _two_sided_block(left: Matrix, right: list, elem: dict) -> list:
    """Entries of v -> a . v . elem, given the matrices of a and of the
    right action."""
    out = Matrix.zeros(left.field, left.rows, left.cols)
    for t, tc in elem.items():
        out = out + (right[t] @ left).scale(tc)
    return _blocks([out])[0]


def phi_psi(h: HopfAlgebra, mod: LeftModule, n: int):
    """Matrices of the mutually inverse chain maps between the realizations.

    phi: equivariant Hom(A^(n+1+tail), M) -> reduced Hom(A^n, M),
    evaluating at nested products of leading Sweedler legs (a trailing
    slot takes the product of the top legs); psi goes back using the
    antipode to difference consecutive arguments, moving the first slot
    into the left action and a trailing slot into the right action.
    """
    d = h.dim
    m = mod.dim
    tail = mod.tail
    fld = h.field
    left = _blocks(mod.action)
    eye = [(j, j, fld.one()) for j in range(m)]
    unit = h.unit_dict()

    entries = ([], [], [])
    for tup in all_tuples(d, n):
        row_base = flat(tup, d) * m
        legs = [iterated_comult(h, tup[r], n - 1 - r + tail).coeffs for r in range(n)]
        for combo in itertools.product(*(legs[r].items() for r in range(n))):
            base_coeff = fld.one()
            for _t, c in combo:
                base_coeff = fld.mul(base_coeff, c)
            # slot s (1-based) is the product of leg s+1-r of argument r
            slot_vecs = [_leg_product(h, (combo[r][0][s - 1 - r] for r in range(s)))
                         for s in range(1, n + 1)]
            if tail:
                # closing slot: the product of the top legs of every argument
                closing = _leg_product(h, (combo[r][0][n - r] for r in range(n)))
                slot_vecs.append(unit if closing is None else closing)
            for head, hc in unit.items():
                for choice in itertools.product(*(v.items() for v in slot_vecs)):
                    coeff = fld.mul(base_coeff, hc)
                    arg = (head,) + tuple(k for k, _v in choice)
                    for _k, v in choice:
                        coeff = fld.mul(coeff, v)
                    if coeff == 0:
                        continue
                    _add_value_block(entries, row_base, flat(arg, d) * m, coeff, eye, fld)
    phi = SparseMatrix(fld, m * d ** n, m * d ** (n + 1 + tail), entries)

    entries = ([], [], [])
    for tup in all_tuples(d, n + 1 + tail):
        row_base = flat(tup, d) * m
        pair_lists = [list(h.comult[tup[r]].items()) for r in range(n + tail)]
        for combo in itertools.product(*pair_lists):
            base_coeff = fld.one()
            for _p, c in combo:
                base_coeff = fld.mul(base_coeff, c)
            head = combo[0][0][0] if combo else tup[0]
            # slot k: S(second leg of a_{k-1}) * (first leg of a_k, or the last
            # argument bare); a trailing slot k = n+1 acts from the right
            slot_vecs = [_antipode_times(h, combo[k - 1][0][1],
                                         combo[k][0][0] if k < len(combo) else tup[k])
                         for k in range(1, n + 1 + tail)]
            if not all(slot_vecs):
                continue
            block = (_two_sided_block(mod.action[head], mod.right, slot_vecs.pop())
                     if tail else left[head])
            for choice in itertools.product(*(v.items() for v in slot_vecs)):
                coeff = base_coeff
                arg = tuple(k2 for k2, _v in choice)
                for _k2, v in choice:
                    coeff = fld.mul(coeff, v)
                if coeff == 0:
                    continue
                _add_value_block(entries, row_base, flat(arg, d) * m, coeff, block, fld)
    psi = SparseMatrix(fld, m * d ** (n + 1 + tail), m * d ** n, entries)
    return phi, psi


# -- cohomology drivers ----------------------------------------------------


def _complex_and_ops(h, mod, top, realization, budget, force_generic):
    if realization == "homogeneous":
        cpx = homogeneous_complex(h, mod, top, budget=budget,
                                  force_generic=force_generic)
        ops = [sigma_homogeneous(h, mod, n, space=cpx.spaces[n])
               for n in range(top + 1)]
    elif realization == "nonhomogeneous":
        cpx = nonhomogeneous_complex(h, mod, top, budget=budget)
        ops = [sigma_nonhomogeneous(h, mod, n) for n in range(top + 1)]
    else:
        raise ValueError(f"unknown realization {realization!r}")
    return cpx, ops


def classical_cohomology(h: HopfAlgebra, mod: LeftModule, top: int,
                         realization: str = "nonhomogeneous",
                         budget: int = DEFAULT_BUDGET,
                         force_generic: bool = False) -> CohomologyReport:
    """H^0..H^{top-1} (HH for a bimodule) from the chosen realization."""
    if realization == "homogeneous":
        cpx = homogeneous_complex(h, mod, top, budget=budget,
                                  force_generic=force_generic)
    else:
        cpx = nonhomogeneous_complex(h, mod, top, budget=budget)
    return CohomologyReport(cohomology_dims(cpx, top - 1), realization,
                            kind="HH" if mod.tail else "H")


def symmetric_cohomology(h: HopfAlgebra, mod: LeftModule, top: int,
                         realization: str = "homogeneous",
                         cross_check: bool = False,
                         budget: int = DEFAULT_BUDGET,
                         force_generic: bool = False) -> CohomologyReport:
    """SH^0..SH^{top-1} (SHH for a bimodule): cohomology of the fixed subcomplex.

    The homogeneous realization is the default (its action is a signed
    permutation); cross_check recomputes through the other realization
    and records agreement.
    """
    require_cocommutative(h)
    validate_module(h, mod)
    cpx, ops = _complex_and_ops(h, mod, top, realization, budget, force_generic)
    fixed = fixed_subcomplex(cpx, ops, through_degree=top - 1)
    dims = cohomology_dims(fixed, top - 1)
    report = CohomologyReport(dims, realization, kind="SHH" if mod.tail else "SH")
    report.routes[realization] = dims
    if cross_check:
        other = "nonhomogeneous" if realization == "homogeneous" else "homogeneous"
        cpx2, ops2 = _complex_and_ops(h, mod, top, other, budget, force_generic)
        fixed2 = fixed_subcomplex(cpx2, ops2, through_degree=top - 1)
        dims2 = cohomology_dims(fixed2, top - 1)
        report.routes[other] = dims2
        report.checks.append(("realizations_agree", dims == dims2))
    return report
