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

from .complexes import (ActionOperator, CochainComplex, CochainSpace,
                        _left_inverse_dense, cohomology_dims,
                        fixed_subcomplex, restrict_operator)
from .errors import BudgetExceeded, NotCocommutative
from .hopf import HopfAlgebra, iterated_comult
from .linalg import Matrix, intersect_kernels
from .modules import LeftModule, kron, regular_bimodule, validate_module
from .sparse import SparseMatrix
from .tensors import (all_tuples, bar_chain_diff, cochain_precompose,
                      cochain_swap_sigma, diagonal_action, flat)

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


def _action_columns(mats) -> list:
    """Per matrix: {column j -> {row i -> entry}}."""
    cols = []
    for a in mats:
        col = [dict() for _ in range(a.cols)]
        for j in range(a.cols):
            for i in range(a.rows):
                v = a[i, j]
                if v != 0:
                    col[j][i] = v
        cols.append(col)
    return cols


def _right_columns(h: HopfAlgebra, mod: LeftModule) -> list:
    """Value columns of the right action; a left module acts as M_eps."""
    if mod.tail:
        return _action_columns(mod.right)
    return [[{j: e} if e != 0 else {} for j in range(mod.dim)] for e in h.counit]


def _add_value_block(out: SparseMatrix, row_base: int, col_base: int, coeff,
                     cols: list, fld):
    """Add coeff times the value action with columns `cols` to one block."""
    for j, col in enumerate(cols):
        for j2, v in col.items():
            out.add_entry(row_base + j2, col_base + j, fld.mul(coeff, v))


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
        table = h.group_table
        # per g: (trailing slot of a translate, value columns there); the
        # g-translate takes the value g . m_j, the (g, c)-translate g . m_j . c
        if tail:
            translates = [[((table[g][c],), cols) for c, cols in enumerate(
                _action_columns([mod.left[g] @ mod.right[c] for c in range(d)]))]
                for g in range(d)]
        else:
            translates = [[((), cols)] for cols in _action_columns(mod.action)]
        head_slots = slots - tail
        reps = [(e,) + rest + (e,) * tail for rest in all_tuples(d, head_slots - 1)]
        basis = SparseMatrix(fld, ambient, len(reps) * m)
        coords = SparseMatrix(fld, len(reps) * m, ambient)
        one = fld.one()
        for r_idx, rep in enumerate(reps):
            rep_flat = flat(rep, d)
            moves = [(flat(tuple(table[g][t] for t in rep[:head_slots]) + last, d), cols)
                     for g in range(d) for last, cols in translates[g]]
            for j in range(m):
                col = r_idx * m + j
                coords.cols_data[rep_flat * m + j][col] = one
                for moved, cols in moves:
                    for j2, v in cols[j].items():
                        basis.add_entry(moved * m + j2, col, v)
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
    diffs = [cochain_precompose(bar_chain_diff(h, n + 1, tail), m, h.field)
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
    left_cols = _action_columns(mod.action)
    right_cols = _right_columns(h, mod)
    one = fld.one()
    spaces = [CochainSpace.full(fld, m * d ** n) for n in range(top + 1)]
    diffs = []
    for n in range(top):
        diff = SparseMatrix(fld, m * d ** (n + 1), m * d ** n)
        for tup in all_tuples(d, n + 1):
            row_base = flat(tup, d) * m
            # first face: the leading argument acts on the value from the left
            _add_value_block(diff, row_base, flat(tup[1:], d) * m, one,
                             left_cols[tup[0]], fld)
            # inner faces: multiply adjacent arguments
            sign = fld.neg(one)
            for i in range(n):
                for k, c in h.mult[tup[i]][tup[i + 1]].items():
                    col_base = flat(tup[:i] + (k,) + tup[i + 2:], d) * m
                    sc = fld.mul(sign, c)
                    for j in range(m):
                        diff.add_entry(row_base + j, col_base + j, sc)
                sign = fld.neg(sign)
            # last face: the trailing argument acts on the value from the right
            _add_value_block(diff, row_base, flat(tup[:n], d) * m, sign,
                             right_cols[tup[n]], fld)
        diffs.append(diff)
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
    left_cols = _action_columns(mod.action)
    right_cols = _right_columns(h, mod)
    size = m * d ** n
    one = fld.one()
    minus = fld.neg(one)
    sigmas = []
    for i in range(1, n + 1):
        sig = SparseMatrix(fld, size, size)
        for tup in all_tuples(d, n):
            row_base = flat(tup, d) * m
            if i == 1 and n == 1:
                for (s1, s2, s3), c in _sweedler_triples(h, tup[0]).items():
                    # both boundary actions: left by s1, right by s3
                    cols = _two_sided_columns(left_cols[s1], right_cols, {s3: one}, fld)
                    for u, su in h.antipode_column(s2).items():
                        _add_value_block(sig, row_base, flat((u,), d) * m,
                                         fld.mul(minus, fld.mul(c, su)), cols, fld)
            elif i == 1:
                for (s1, s2, s3), c in _sweedler_triples(h, tup[0]).items():
                    for u, su in h.antipode_column(s2).items():
                        for v2, mv in h.mult[s3][tup[1]].items():
                            coeff = fld.mul(minus, fld.mul(c, fld.mul(su, mv)))
                            _add_value_block(sig, row_base, flat((u, v2) + tup[2:], d) * m,
                                             coeff, left_cols[s1], fld)
            elif i == n:
                for (s1, s2, s3), c in _sweedler_triples(h, tup[n - 1]).items():
                    for a, ma in h.mult[tup[n - 2]][s1].items():
                        for u, su in h.antipode_column(s2).items():
                            coeff = fld.mul(minus, fld.mul(c, fld.mul(ma, su)))
                            _add_value_block(sig, row_base, flat(tup[:n - 2] + (a, u), d) * m,
                                             coeff, right_cols[s3], fld)
            else:
                for (s1, s2, s3), c in _sweedler_triples(h, tup[i - 1]).items():
                    for a, ma in h.mult[tup[i - 2]][s1].items():
                        for u, su in h.antipode_column(s2).items():
                            for v2, mv in h.mult[s3][tup[i]].items():
                                coeff = fld.mul(minus,
                                                fld.mul(fld.mul(c, ma), fld.mul(su, mv)))
                                col_base = flat(tup[:i - 2] + (a, u, v2) + tup[i + 1:], d) * m
                                for j in range(m):
                                    sig.add_entry(row_base + j, col_base + j, coeff)
        sigmas.append(sig)
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
    sigmas = []
    for i in range(1, n + 1):
        sig = SparseMatrix(fld, size, size)
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
                                for j in range(m):
                                    sig.add_entry(row_base + j, col_base + j, coeff)
            else:
                for (s1, s2), c in h.comult[tup[n]].items():
                    for a, ma in h.mult[tup[n - 1]][s1].items():
                        for u, su in h.antipode_column(s2).items():
                            coeff = fld.mul(minus, fld.mul(c, fld.mul(ma, su)))
                            col_base = flat(tup[:n - 1] + (a, u), d) * m
                            for j in range(m):
                                sig.add_entry(row_base + j, col_base + j, coeff)
        sigmas.append(sig)
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


def _two_sided_columns(left: list, right_cols: list, elem: dict, fld) -> list:
    """Value columns of v -> a . v . elem, given the value columns of a."""
    cols = []
    for col in left:
        acc: dict = {}
        for j2, lv in col.items():
            for t, tc in elem.items():
                for j3, rv in right_cols[t][j2].items():
                    acc[j3] = fld.add(acc.get(j3, fld.zero()), fld.mul(lv, fld.mul(tc, rv)))
        cols.append({k: v for k, v in acc.items() if v != 0})
    return cols


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
    left_cols = _action_columns(mod.action)
    right_cols = _right_columns(h, mod) if tail else None
    unit = h.unit_dict()

    phi = SparseMatrix(fld, m * d ** n, m * d ** (n + 1 + tail))
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
                    col_base = flat(arg, d) * m
                    for j in range(m):
                        phi.add_entry(row_base + j, col_base + j, coeff)

    psi = SparseMatrix(fld, m * d ** (n + 1 + tail), m * d ** n)
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
            cols = (_two_sided_columns(left_cols[head], right_cols, slot_vecs.pop(), fld)
                    if tail else left_cols[head])
            for choice in itertools.product(*(v.items() for v in slot_vecs)):
                coeff = base_coeff
                arg = tuple(k2 for k2, _v in choice)
                for _k2, v in choice:
                    coeff = fld.mul(coeff, v)
                if coeff == 0:
                    continue
                _add_value_block(psi, row_base, flat(arg, d) * m, coeff, cols, fld)
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
