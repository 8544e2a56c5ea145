"""Independent oracles the test suite checks the engine against.

These never touch the bar machinery: the cyclic-group oracle uses the
two-periodic free resolution of the trivial module, and the
semisimple-case oracle uses averaging (invariants in degree zero,
nothing above).  The descent oracle is the tuple-by-tuple form of the
coinvariant self-check that `symcoh.resolution` runs on index arrays, and
the diagonal-action oracle is the tuple-by-tuple Sweedler expansion that
`symcoh.tensors` computes as one tensor contraction per slot.  The
stacked kernel is the one-elimination common kernel that
`symcoh.linalg.intersect_kernels` computes one constraint at a time.
The scalar Gauss-Jordan elimination and the triple-loop product work on
lists of rows, one field operation at a time, against the array kernels
of `symcoh.linalg` (one echelon routine, the float64 product over GF(p)
and the integer-numerator product over Q).  The
two dense solves are the reference for the closed-form bases: the
equivariant cochains as the stacked kernel of the equivariance equations
(against the tensor-identity basis of `symcoh.bar.equivariant_space`),
and the coinvariants as the quotient by the swap relations, by
elimination (against the sorted-tuple basis of
`symcoh.resolution.coinvariant_space`, and on one more slot against the
bimodule spaces S_n tensor A of `symcoh.resolution.hochschild_resolution`,
with right multiplication in the last slot written tuple by tuple).  The
orbit walk certifies the cyclic rank table by generators, against the
rank of the norm element that `symcoh.resolution.cp_rank_table` takes.

The last part holds checks that only the tests run: the mutually inverse
chain maps phi and psi between the two realizations of `symcoh.bar`, the
symmetric-group action written on the whole ambient space of the
standard complex (against its reduced boundary formulas), the complex
property, the Coxeter relations and the Euler characteristic of a
cochain complex, and Hom_k(X, M) as a module.
"""

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from symcoh.bar import _add_value_block, _blocks, require_cocommutative
from symcoh.complexes import (ActionOperator, CochainComplex, CochainSpace,
                              _left_inverse_dense, cohomology_dims, restrict_operator)
from symcoh.fields import Field
from symcoh.hopf import HopfAlgebra, iterated_comult
from symcoh.linalg import Matrix, Subspace, kernel_basis, quotient, rank
from symcoh.modules import LeftModule, invariants, kron, regular_bimodule
from symcoh.sparse import SparseMatrix
from symcoh.tensors import all_tuples, flat, swap_slots


def periodic_cyclic_cohomology_dims(h: HopfAlgebra, mod: LeftModule, top: int):
    """H^0..H^top of a cyclic group algebra from the resolution
    ... -> A -(norm)-> A -(g-1)-> A -> k: cochain maps alternate
    (g-1) and the norm acting on M."""
    assert h.group_like
    n = h.dim
    g = 1 if n > 1 else 0  # cyclic tables put the generator at index 1
    rho = mod.action[g]
    eye = Matrix.identity(h.field, mod.dim)
    t = rho - eye
    norm = Matrix.zeros(h.field, mod.dim, mod.dim)
    power = eye
    for _ in range(n):
        norm = norm + power
        power = power @ rho
    maps = [t if i % 2 == 0 else norm for i in range(top + 1)]
    dims = []
    prev_rank = 0
    for i in range(top + 1):
        k = kernel_basis(maps[i]).dim
        dims.append(k - prev_rank)
        prev_rank = rank(maps[i])
    return dims


def maschke_cohomology_dims(h: HopfAlgebra, mod: LeftModule, top: int):
    """Over a splitting characteristic the higher cohomology vanishes and
    degree zero is the invariants."""
    return [invariants(h, mod).dim] + [0] * top


def descends_to_quotient(field, d, slots, sym_slots, projected) -> bool:
    """True when the sparse operator `projected` on A^(tensor slots) kills
    every relation swap_i(v) + v, i < sym_slots, walking every tuple."""
    def flat(tup):
        idx = 0
        for t in tup:
            idx = idx * d + t
        return idx

    cols = [dict() for _ in range(projected.cols)]
    for i, j, v in zip(*(a.tolist() for a in projected.triples())):
        cols[j][i] = v
    for tup in itertools.product(range(d), repeat=slots):
        base = cols[flat(tup)]
        for i in range(1, sym_slots):
            if tup[i - 1] <= tup[i]:
                continue  # each unordered pair once; i-1 == i gives 2v = 0 too
            swapped = list(tup)
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            other = cols[flat(swapped)]
            if len(base) != len(other):
                return False
            for k, v in base.items():
                if field.add(v, other.get(k, field.zero())) != 0:
                    return False
        # repeated adjacent entries force 2v = 0 on the image column
        if base and any(tup[i - 1] == tup[i] for i in range(1, sym_slots)):
            if any(field.add(v, v) != 0 for v in base.values()):
                return False
    return True


def diagonal_action(h: HopfAlgebra, b: int, slots: int) -> SparseMatrix:
    """Left multiplication of b_b on A^(tensor slots) through the iterated
    comultiplication, expanding the Sweedler legs tuple by tuple."""
    d = h.dim
    fld = h.field

    def flat(tup):
        idx = 0
        for t in tup:
            idx = idx * d + t
        return idx

    rows, cols, vals = [], [], []
    legs = iterated_comult(h, b, slots - 1).coeffs
    for tup in itertools.product(range(d), repeat=slots):
        col = flat(tup)
        for leg_tuple, c in legs.items():
            # multiply slotwise: expand the product of b_leg and b_slot
            partial = [((), c)]
            for r in range(slots):
                cell = h.mult[leg_tuple[r]][tup[r]]
                partial = [(pt + (k,), fld.mul(pc, ck))
                           for pt, pc in partial for k, ck in cell.items()]
            for pt, pc in partial:
                rows.append(flat(pt))
                cols.append(col)
                vals.append(pc)
    return SparseMatrix(fld, d ** slots, d ** slots, (rows, cols, vals))


def right_multiplication(h: HopfAlgebra, c: int, slots: int) -> SparseMatrix:
    """Right multiplication by b_c in the last of `slots` tensor slots,
    tuple by tuple."""
    d = h.dim
    rows, cols, vals = [], [], []
    for col in range(d ** slots):
        head, last = divmod(col, d)
        for k, v in h.mult[last][c].items():
            rows.append(head * d + k)
            cols.append(col)
            vals.append(v)
    return SparseMatrix(h.field, d ** slots, d ** slots, (rows, cols, vals))


def vstack(field, mats) -> Matrix:
    """Matrices with equal column counts, stacked top to bottom."""
    mats = list(mats)
    if not mats:
        return Matrix.zeros(field, 0, 0)
    if any(m.cols != mats[0].cols for m in mats):
        raise ValueError("column count mismatch")
    return Matrix(field, np.vstack([m.data for m in mats]))


def stacked_kernel(field, mats) -> Subspace:
    """Common kernel of matrices with equal column counts, by one
    elimination of their vertical stack."""
    return kernel_basis(vstack(field, mats))


def equivariant_solve(h: HopfAlgebra, mod: LeftModule, slots: int) -> CochainSpace:
    """Hom_A(A^(tensor slots), M) (with right multiplication in the last
    slot for a bimodule) as the kernel of the stacked equivariance
    equations, one dense kron constraint per basis element and side."""
    d = h.dim
    m = mod.dim
    fld = h.field
    size = d ** slots
    eye_m = Matrix.identity(fld, m)
    eye = Matrix.identity(fld, size)
    # precomposition with an operator D on the tuples is kron(D^T, I_m); the
    # action on values is kron(I, act); right multiplication in the trailing
    # slot is I on the leading slots tensor the regular right action
    if mod.tail:
        lead = Matrix.identity(fld, d ** (slots - 1))
        eye_d = Matrix.identity(fld, d)
        right = regular_bimodule(h).right
    constraints = []
    for b in range(d):
        act = diagonal_action(h, b, slots).to_dense().transpose()
        constraints.append(kron(act, eye_m) - kron(eye, mod.action[b]))
        if mod.tail:
            constraints.append(kron(lead, kron(right[b].transpose(), eye_m)
                                    - kron(eye_d, mod.right[b])))
    sub = stacked_kernel(fld, constraints)
    return CochainSpace(size * m, SparseMatrix.from_dense(sub.basis),
                        SparseMatrix.from_dense(_left_inverse_dense(sub.basis)))


def coinvariant_quotient(h: HopfAlgebra, n: int, tail: int = 0):
    """Dense (projection, section) of A^(tensor n+1+tail) modulo the
    relations swap_i(v) + v, i <= n, by elimination."""
    d = h.dim
    slots = n + 1 + tail
    size = d ** slots
    idx = np.arange(size, dtype=np.int64)
    relations = Matrix.zeros(h.field, size, n * size)
    one = h.field.one()
    for i in range(1, n + 1):
        for v, w in zip(idx.tolist(), swap_slots(idx, d, slots, i).tolist()):
            col = (i - 1) * size + v
            relations._set(v, col, h.field.add(relations[v, col], one))
            relations._set(w, col, h.field.add(relations[w, col], one))
    return quotient(size, relations)


def gauss_jordan(field, rows, cols: int):
    """Reduced row echelon form of a list of rows (each of length cols) and
    its pivot columns, by scalar Gauss-Jordan elimination: the pivot of
    each column is its first nonzero entry at or below the current row, and
    every other row is cleared at once."""
    data = [list(row) for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(data)) if data[i][c] != 0), None)
        if pivot_row is None:
            continue
        data[r], data[pivot_row] = data[pivot_row], data[r]
        inv = field.inv(data[r][c])
        data[r] = [field.mul(x, inv) for x in data[r]]
        for i in range(len(data)):
            f = data[i][c]
            if i != r and f != 0:
                data[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(data[i], data[r])]
        pivots.append(c)
    return data, pivots


def list_product(field, a, b, cols: int):
    """a @ b for lists of rows, b with cols columns, by the triple loop that
    skips zero entries of both factors."""
    out = [[field.zero()] * cols for _ in a]
    for orow, arow in zip(out, a):
        for x, brow in zip(arow, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        orow[j] = field.add(orow[j], field.mul(x, y))
    return out


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


def cp_orbit_walk(p: int, n: int):
    """(generators, is_free) for the degree-n coinvariants of kC_p over
    GF(p), by generators: keep one sorted tuple per orbit of the generator
    (sign disregarded, as the orbits of b and -b coincide as lines), then
    check that the p translates of the kept tuples form a basis."""
    field = Field.prime(p)
    labels = list(itertools.combinations(range(p), n + 1))
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
            current = tuple(sorted((t + 1) % p for t in current))
    mat = Matrix.zeros(field, len(labels), len(selected) * p)
    j = 0
    for lab in selected:
        coeff = field.one()
        for _ in range(p):
            mat._set(label_rank[lab], j, coeff)
            j += 1
            lab, sign = _sorted_with_sign(tuple((t + 1) % p for t in lab))
            if sign < 0:
                coeff = field.neg(coeff)
    free = len(selected) * p == len(labels) and rank(mat) == len(labels)
    return len(selected), free


# -- the chain isomorphisms and checks on complexes -------------------------


def space_dims(c: CochainComplex) -> list:
    """The dimension of the space of c at each degree."""
    return [s.dim for s in c.spaces]


def check_independent(s: Subspace) -> bool:
    """Whether the basis columns of s are linearly independent."""
    return rank(s.basis) == s.basis.cols


@dataclass
class ComplexReport:
    degrees_checked: list = dc_field(default_factory=list)
    first_failure: int | None = None
    reason: str | None = None

    @property
    def passed(self) -> bool:
        return self.first_failure is None


def check_complex(c: CochainComplex) -> ComplexReport:
    """Verify image containment and d.d = 0 exactly, degree by degree."""
    report = ComplexReport()
    for n in range(c.top_degree):
        image = c.diffs[n] @ c.spaces[n].basis
        if not c.spaces[n + 1].contains(image):
            report.first_failure = n
            report.reason = "differential image leaves the next space"
            return report
        if n + 1 < c.top_degree and not (c.diffs[n + 1] @ image).is_zero():
            report.first_failure = n
            report.reason = "d.d is nonzero"
            return report
        report.degrees_checked.append(n)
    return report



def coxeter_relations_hold(op: ActionOperator, space: CochainSpace):
    """Check the three Coxeter relation families on the given subspace.

    Returns (ok, name_of_first_failure).
    """
    sigmas = [restrict_operator(space, s) for s in op.sigmas]
    n = len(sigmas)
    field = space.basis.field
    eye = SparseMatrix.identity(field, space.dim)
    for i in range(n):
        if not (sigmas[i] @ sigmas[i] == eye):
            return False, f"sigma_{i + 1}^2 != id"
    for i in range(n - 1):
        lhs = sigmas[i] @ (sigmas[i + 1] @ sigmas[i])
        rhs = sigmas[i + 1] @ (sigmas[i] @ sigmas[i + 1])
        if not (lhs == rhs):
            return False, f"braid relation fails at {i + 1}"
    for i in range(n):
        for j in range(i + 2, n):
            if not (sigmas[i] @ sigmas[j] == sigmas[j] @ sigmas[i]):
                return False, f"commuting relation fails at ({i + 1},{j + 1})"
    return True, None



def euler_characteristic_consistent(c: CochainComplex) -> bool:
    """Alternating sums of space dims and cohomology dims agree on a
    complex whose differentials vanish at both ends of the degree range."""
    dims = cohomology_dims(c, c.top_degree - 1)
    top = c.spaces[c.top_degree].dim
    top_h = top - rank(c.restricted_diff(c.top_degree - 1).to_dense()) if top else 0
    chi_spaces = sum((-1) ** n * c.spaces[n].dim for n in range(c.top_degree + 1))
    chi_h = sum((-1) ** n * h for n, h in enumerate(dims)) \
        + (-1) ** c.top_degree * top_h
    return chi_spaces == chi_h


def hom_module(h: HopfAlgebra, x: LeftModule, m: LeftModule) -> LeftModule:
    """Hom_k(X, M) with the action (a . F)(v) = a1 F(S(a2) v), flattened."""
    fld = h.field
    mats = []
    for i in range(h.dim):
        acc = Matrix.zeros(fld, m.dim * x.dim, m.dim * x.dim)
        for (j, k), c in h.comult[i].items():
            x_of_sk = x.act_element(h, h.antipode_column(k))
            acc = acc + kron(x_of_sk.transpose(), m.action[j]).scale(c)
        mats.append(acc)
    return LeftModule(m.dim * x.dim, mats)


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
                for (s1, s2, s3), c in iterated_comult(h, tup[i], 2).coeffs.items():
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
