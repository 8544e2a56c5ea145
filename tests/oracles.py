"""Independent oracles the test suite checks the engine against.

These never touch the bar machinery: the cyclic-group oracle uses the
two-periodic free resolution of the trivial module, and the
semisimple-case oracle uses averaging (invariants in degree zero,
nothing above).  The descent oracle is the tuple-by-tuple form of the
coinvariant self-check that `symcoh.resolution` runs on index arrays, the
sorted-tuple projection sorts every ambient tuple where
`symcoh.resolution` gathers the signed permutations of each label, and
the diagonal-action oracle is the tuple-by-tuple Sweedler expansion that
`symcoh.tensors` computes as one tensor contraction per slot.  The
stacked kernel is the one-elimination common kernel that
`symcoh.linalg.intersect_kernels` computes one constraint at a time, and
that `symcoh.complexes` reads off orbits for monomial generators.  The
chain map, built tuple by tuple, is the reference for the transposed
column map of `symcoh.tensors` and for the homogeneous differential that
`symcoh.bar` builds from it.  The splitting maps, formed on the whole
ambient (the face map over every tuple, and the projection of the lift),
are the reference for those that `symcoh.resolution.splitting_maps`
reads off the descent check on the support of the projection.
The scalar Gauss-Jordan elimination and the triple-loop product work on
lists of rows, one field operation at a time, against the array kernels
of `symcoh.linalg` (one echelon routine, the float64 product over GF(p)
and the integer-numerator product over Q).  The
two dense solves are the reference for the closed-form bases: the
equivariant cochains as the stacked kernel of the equivariance equations
(against the tensor-identity basis of `symcoh.bar.equivariant_space`),
and the coinvariants as the quotient by the swap relations, by
elimination (against the sorted-tuple basis of
`symcoh.resolution.coinvariant_space`).  The tensor identity psi, built
tuple by tuple from the input form, is the reference for that basis and
its coordinates entry for entry, where the solve fixes only their span.
The orbit walk certifies the cyclic rank table by generators, against the
rank of the norm element that `symcoh.resolution.cp_rank_table` takes.
The whole-complex forms hold every degree at once, in a container of
their own (`CochainComplex`: the spaces and the ambient differentials,
where `symcoh.complexes` ranks only the restricted ones): the
homogeneous complex with each differential formed whole, the standard
complex, and their fixed subcomplex taken after both are built.  They
are the reference, matrix for matrix, for the fixed subcomplex that
`symcoh.complexes.fixed_degrees` builds one degree at a time, and the
whole standard complex is the reference for H and HH, which
`symcoh.bar` ranks on its normalized subcomplex.

The input form of an algebra (dict-of-dict mult and comult, unit and
counit lists, the dense antipode) is read here entry by entry: the group
basis and the JSON schema written from it are the references for what
`symcoh.hopf` and `symcoh.cli` read off the sparse structure maps, and
the Sweedler oracles read S(b_i) from the dense antipode.

The last part holds checks that only the tests run: the mutually inverse
chain maps phi and psi between the two realizations of `symcoh.bar`, the
symmetric-group action written on the whole ambient space of the
standard complex (against its reduced boundary formulas), the complex
property, the Coxeter relations and the Euler characteristic of a
cochain complex, and Hom_k(X, M) as a module.  The tuple-by-tuple
oracles share the helpers at the top: the basis tuples of a tensor power
and the value blocks of a module action.
"""

import itertools
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from symcoh.bar import DIFF_BATCH, equivariant_space, nonhomogeneous_degrees, require_budget
from symcoh.complexes import (CochainSpace, _fixed_space, cohomology_dims, read_in,
                              require_cocommutative, restrict_operator)
from symcoh.errors import ActionNotCompatible
from symcoh.fields import Field
from symcoh.hopf import HopfAlgebra, iterated_comult
from symcoh.linalg import Matrix, kernel_basis, quotient, rank
from symcoh.modules import Bimodule, LeftModule, hom_equivariant, trivial_module, validate_module
from symcoh.sparse import SparseMatrix, canonical, combination, kron
from symcoh.tensors import bar_chain_transpose_columns, flat, swap_slots, tensor_identity_triples


def field_id(field: Field) -> str:
    """The test id of a field: Q or GF(p)."""
    return "Q" if field.is_rational else f"GF({field.p})"


def all_tuples(d: int, length: int):
    """The basis tuples of A^(tensor length), in flat-index order."""
    return itertools.product(range(d), repeat=length)


def all_columns(size: int):
    """Triples of the identity on `size` coordinates, every value one."""
    idx = np.arange(size, dtype=np.int64)
    return idx, idx, None


def antipode_column(h: HopfAlgebra, i: int) -> dict:
    """Coordinates of S(b_i), read off the dense antipode."""
    return {l: h.antipode[l, i] for l in range(h.dim) if h.antipode[l, i] != 0}


def dict_group_basis(h: HopfAlgebra):
    """(group_table, group_identity, group_inverse) read off the input form
    of h entry by entry, or None when its basis is not a group: the
    detection that `HopfAlgebra` reads off its sparse structure maps."""
    one, d = h.field.one(), h.dim
    if not (all(h.comult[i] == {(i, i): one} for i in range(d))
            and all(h.counit[i] == one for i in range(d))
            and all(len(h.mult[i][j]) == 1 and next(iter(h.mult[i][j].values())) == one
                    for i in range(d) for j in range(d))
            and sum(1 for x in h.unit if x != 0) == 1):
        return None
    table = [[next(iter(h.mult[i][j])) for j in range(d)] for i in range(d)]
    identity = next(i for i, x in enumerate(h.unit) if x != 0)
    inv = [None] * d
    for i in range(d):
        for j in range(d):
            if table[i][j] == identity:
                inv[i] = j
    if h.unit[identity] != one or any(v is None for v in inv):
        return None
    return table, identity, inv


def dict_to_json(h: HopfAlgebra) -> dict:
    """The input schema of h written from its input form, constant by
    constant: what `symcoh.cli.hopf_to_json` writes from the sparse maps."""
    fld, d = h.field, h.dim
    return {
        "field": {"kind": "rational"} if fld.is_rational else {"kind": "prime", "p": fld.p},
        "dim": d,
        "basis_labels": list(h.basis_labels),
        "mult": [[i, j, k, fld.to_str(c)] for i in range(d) for j in range(d)
                 for k, c in sorted(h.mult[i][j].items())],
        "unit": [fld.to_str(x) for x in h.unit],
        "comult": [[i, j, k, fld.to_str(c)] for i in range(d)
                   for (j, k), c in sorted(h.comult[i].items())],
        "counit": [fld.to_str(x) for x in h.counit],
        "antipode": [[fld.to_str(h.antipode[i, j]) for j in range(d)] for i in range(d)],
    }


def _blocks(mats) -> list:
    """Per sparse matrix: its nonzero entries as (row, col, value)."""
    return [list(zip(*(part.tolist() for part in a.triples()))) for a in mats]


def _add_value_block(entries, row_base: int, col_base: int, coeff, block: list, fld):
    """Append coeff times the value action with entries `block` to the
    (rows, cols, vals) lists `entries`, at one block of tuples."""
    rows, cols, vals = entries
    for j2, j, v in block:
        rows.append(row_base + j2)
        cols.append(col_base + j)
        vals.append(fld.mul(coeff, v))


def periodic_cyclic_cohomology_dims(h: HopfAlgebra, mod: LeftModule, top: int):
    """H^0..H^top of a cyclic group algebra from the resolution
    ... -> A -(norm)-> A -(g-1)-> A -> k: cochain maps alternate
    (g-1) and the norm acting on M."""
    assert h.group_like
    n = h.dim
    g = 1 if n > 1 else 0  # cyclic tables put the generator at index 1
    rho = mod.action[g]
    eye = SparseMatrix.identity(h.field, mod.dim)
    t = rho - eye
    norm = SparseMatrix(h.field, mod.dim, mod.dim)
    power = eye
    for _ in range(n):
        norm = norm + power
        power = power @ rho
    maps = [(t if i % 2 == 0 else norm).to_dense() for i in range(top + 1)]
    dims = []
    prev_rank = 0
    for i in range(top + 1):
        k = kernel_basis(maps[i]).cols
        dims.append(k - prev_rank)
        prev_rank = rank(maps[i])
    return dims


def maschke_cohomology_dims(h: HopfAlgebra, mod: LeftModule, top: int):
    """Over a splitting characteristic the higher cohomology vanishes and
    degree zero is the invariants."""
    return [hom_equivariant(h, trivial_module(h), mod).cols] + [0] * top


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


def sorted_tuple_projection(field, d: int, slots: int) -> SparseMatrix:
    """The projection of A^(tensor slots) onto its signed coinvariants,
    found by sorting the digits of every ambient tuple: a tuple with
    distinct entries goes to its sorted label with the sign of the sorting
    permutation, any other tuple to zero; in characteristic 2 every tuple
    goes to its sorted label."""
    char2 = field.characteristic == 2
    labels = list((itertools.combinations_with_replacement if char2
                   else itertools.combinations)(range(d), slots))
    size = d ** slots
    label_idx = np.array([flat(lab, d) for lab in labels], dtype=np.int64)
    idx = np.arange(size, dtype=np.int64)
    digs = idx[None, :] // d ** np.arange(slots - 1, -1, -1, dtype=np.int64)[:, None] % d
    head = np.sort(digs, axis=0)
    if not char2:
        distinct = np.all(head[1:] != head[:-1], axis=0)
        idx, digs, head = idx[distinct], digs[:, distinct], head[:, distinct]
    inversions = np.zeros(len(idx), dtype=np.int64)
    for i in range(slots):
        for j in range(i + 1, slots):
            inversions += digs[i] > digs[j]
    sorted_idx = np.zeros(len(idx), dtype=np.int64)
    for row in head:
        sorted_idx = sorted_idx * d + row
    one = field.one()
    signs = field.array([one, field.neg(one)]).reshape(-1)[inversions % 2]
    return SparseMatrix(field, len(labels), size,
                        (np.searchsorted(label_idx, sorted_idx), idx, signs))


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


def vstack(field, mats) -> Matrix:
    """Matrices with equal column counts, stacked top to bottom."""
    mats = list(mats)
    if not mats:
        return Matrix.zeros(field, 0, 0)
    if any(m.cols != mats[0].cols for m in mats):
        raise ValueError("column count mismatch")
    return Matrix(field, np.vstack([m.data for m in mats]))


def stacked_kernel(field, mats) -> Matrix:
    """Common kernel of matrices with equal column counts, by one
    elimination of their vertical stack."""
    return kernel_basis(vstack(field, mats))


def bar_chain_diff(h: HopfAlgebra, n: int) -> SparseMatrix:
    """The homogeneous chain map A^(n+1) -> A^n, the alternating counit
    deletions of slots 0..n, built tuple by tuple from the input counit.
    Its transpose is `symcoh.tensors.bar_chain_transpose_columns`, and
    precomposed with it (`cochain_precompose`) it is the homogeneous
    differential that `symcoh.bar` reads off that column map in batches."""
    fld, d = h.field, h.dim
    index = {tup: i for i, tup in enumerate(all_tuples(d, n))}
    rows, cols, vals = [], [], []
    for col, tup in enumerate(all_tuples(d, n + 1)):
        for i in range(n + 1):
            eps = h.counit[tup[i]]
            if eps != 0:
                rows.append(index[tup[:i] + tup[i + 1:]])
                cols.append(col)
                vals.append(eps if i % 2 == 0 else fld.neg(eps))
    return SparseMatrix(fld, d ** n, d ** (n + 1), (rows, cols, vals) if rows else None)


def equivariant_solve(h: HopfAlgebra, mod: LeftModule, slots: int) -> CochainSpace:
    """Hom_A(A^(tensor slots), M) as the kernel of the stacked equivariance
    equations, one dense kron constraint per basis element."""
    d = h.dim
    m = mod.dim
    fld = h.field
    size = d ** slots
    eye_m = SparseMatrix.identity(fld, m)
    eye = SparseMatrix.identity(fld, size)
    # precomposition with an operator D on the tuples is kron(D^T, I_m); the
    # action on values is kron(I, act)
    constraints = []
    for b in range(d):
        act = diagonal_action(h, b, slots).transpose()
        constraints.append(kron(act, eye_m) - kron(eye, mod.action[b]))
    space = CochainSpace.of(stacked_kernel(fld, [c.to_dense() for c in constraints]))
    assert (space.coords @ space.basis).equals_identity(), "coords is not a left inverse"
    return space


def _act_on_tuple(h: HopfAlgebra, b: int, tup: tuple) -> dict:
    """b_b . (b_tup[0] tensor b_tup[1] tensor ...) through the comult dicts,
    first leg on the first slot, as {tuple: coefficient}; on the empty
    tuple, the counit."""
    fld = h.field
    if not tup:
        return {(): h.counit[b]} if h.counit[b] != 0 else {}
    out: dict = {}
    for (first, rest), c in h.comult[b].items():
        for k, ck in h.mult[first][tup[0]].items():
            for tail, ct in _act_on_tuple(h, rest, tup[1:]).items():
                key = (k,) + tail
                out[key] = fld.add(out.get(key, fld.zero()), fld.mul(c, fld.mul(ck, ct)))
    return out


def psi_space(h: HopfAlgebra, mod: LeftModule, slots: int) -> CochainSpace:
    """Hom_A(A^(tensor slots), M) as the image of the tensor identity
    psi(f)(a tensor x) = a_(1) . f(S(a_(2)) . x) on Hom(A^(tensor n), M),
    n = slots-1, with coords F -> F(1 tensor -), built tuple by tuple from
    the input form."""
    d, m, fld = h.dim, mod.dim, h.field
    n = slots - 1
    values = _blocks(mod.action)
    entries = ([], [], [])
    for a in range(d):
        for (s1, s2), c in h.comult[a].items():
            for u, su in antipode_column(h, s2).items():
                for x in all_tuples(d, n):
                    row_base = (a * d ** n + flat(x, d)) * m
                    for y, dy in _act_on_tuple(h, u, x).items():
                        _add_value_block(entries, row_base, flat(y, d) * m,
                                         fld.mul(fld.mul(c, su), dy), values[s1], fld)
    size = d ** n * m
    basis = SparseMatrix(fld, d * size, size, entries if entries[0] else None)
    coords = [(k, a * size + k, ua) for a, ua in enumerate(h.unit) if ua != 0 for k in range(size)]
    return CochainSpace(basis, SparseMatrix(fld, size, d * size, list(zip(*coords))))


def coinvariant_quotient(h: HopfAlgebra, n: int):
    """Dense (projection, section) of A^(tensor n+1) modulo the relations
    swap_i(v) + v, i <= n, by elimination."""
    d = h.dim
    slots = n + 1
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


def splitting_oracle(h: HopfAlgebra, n: int):
    """(phi, psi) of `symcoh.resolution.splitting_maps` formed on the whole
    ambient: phi from the face map tau -> sum_i (-1)^i/(n+1) tau_i tensor
    P(tau without slot i) over all d^(n+1) tuples, on the section, with
    face = phi . P asserted; psi as the projection of the lift
    a tensor (section column j) -> (a, section column j)."""
    from symcoh.resolution import coinvariant_space
    d, fld = h.dim, h.field
    levels = []
    sn, sm = coinvariant_space(h, n, levels), coinvariant_space(h, n - 1, levels)
    if not sn.dim:  # a vanishing degree: the empty maps
        return SparseMatrix(fld, d * sm.dim, 0), SparseMatrix(fld, 0, d * sm.dim)
    inv = fld.inv(fld.from_int(n + 1))
    project = sm.projection.column_map()
    idx = np.arange(d ** (n + 1), dtype=np.int64)
    rows, cols, vals = [], [], []
    for i in range(n + 1):
        low = d ** (n - i)
        r, pos, v = project(idx // (low * d) * low + idx % low)  # slot i deleted
        rows.append(idx[pos] // low % d * sm.dim + r)
        cols.append(idx[pos])
        vals.append(fld.reduce(v * (inv if i % 2 == 0 else fld.neg(inv))))
    face = SparseMatrix(fld, d * sm.dim, d ** (n + 1),
                        [np.concatenate(part) for part in (rows, cols, vals)])
    phi = face @ sn.section
    assert face == phi @ sn.projection, "phi is not well-defined on the coinvariants"
    r, c, v = sm.section.triples()
    a = np.repeat(np.arange(d, dtype=np.int64), len(r))
    lift = SparseMatrix(fld, d ** (n + 1), d * sm.dim,
                        (a * d ** n + np.tile(r, d), a * sm.dim + np.tile(c, d), np.tile(v, d)))
    return phi, sn.projection @ lift


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
                data[i] = [field.add(x, field.neg(field.mul(f, y))) for x, y in zip(data[i], data[r])]
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


# -- the whole-complex fixed subcomplex --------------------------------------


class CochainComplex(NamedTuple):
    """A whole cochain complex: the spaces of degrees 0..top_degree and the
    ambient differentials diffs[n]: ambient(n) -> ambient(n+1), all held at
    once, where `symcoh.complexes` holds only the restricted differentials."""

    field: Field
    top_degree: int
    spaces: list
    diffs: list

    def restricted_diff(self, n: int) -> SparseMatrix:
        """The differential space(n) -> space(n+1) in subspace coordinates,
        read in by `read_in`."""
        out = self.diffs[n]
        return read_in(self.spaces[n + 1], out if self.spaces[n].is_full
                       else out @ self.spaces[n].basis)

    def restricted_diffs(self) -> list:
        """The list that `cohomology_dims` ranks."""
        return [self.restricted_diff(n) for n in range(self.top_degree)]


def homogeneous_differential(h: HopfAlgebra, n: int, m: int) -> SparseMatrix:
    """Degree n's differential of the homogeneous realization, formed whole:
    precomposition with the counit-deletion chain map on n+2 slots, its
    transpose tensor id_M, read off `bar_chain_transpose_columns` and
    summed in batches of columns of at most DIFF_BATCH unsummed terms."""
    d, fld = h.dim, h.field
    columns = bar_chain_transpose_columns(h, n + 1)
    shape = (d ** (n + 2), d ** (n + 1))
    step = max(DIFF_BATCH // ((n + 2) * d), 1)
    parts = ([], [], [])
    for lo in range(0, shape[1], step):
        idx = np.arange(lo, min(lo + step, shape[1]), dtype=np.int64)
        r, pos, v = columns(idx)
        for part, a in zip(parts, tensor_identity_triples(
                *canonical(fld, r, idx[pos], v, shape=shape), m)):
            part.append(a)
    return SparseMatrix(fld, shape[0] * m, shape[1] * m, [np.concatenate(p) for p in parts])


def homogeneous_complex(h: HopfAlgebra, mod: LeftModule, top: int) -> CochainComplex:
    """Degrees 0..top of the equivariant realization with every space and
    differential held at once, degree n on n+1 slots: the whole complex
    whose fixed subcomplex `symcoh.bar.fixed_homogeneous` yields one degree
    at a time."""
    validate_module(h, mod)
    require_budget(mod.dim * h.dim ** (top + 1), "homogeneous complex")
    levels = []
    spaces = [equivariant_space(h, mod, n + 1, levels) for n in range(top, -1, -1)][::-1]
    diffs = [homogeneous_differential(h, n, mod.dim) for n in range(top)]
    return CochainComplex(h.field, top, spaces, diffs)


def nonhomogeneous_complex(h: HopfAlgebra, mod: LeftModule, top: int) -> CochainComplex:
    """Degrees 0..top of the standard complex with every differential held
    at once: the degrees that `symcoh.bar.nonhomogeneous_degrees` yields
    with an empty list of generators, the full spaces (not the normalized
    ones of H and HH) and the whole differentials."""
    degrees = list(nonhomogeneous_degrees(h, mod, top, lambda n: []))
    return CochainComplex(h.field, top, [space for space, _diff in degrees],
                          [diff for _space, diff in degrees[1:]])


def full_classical_cohomology(h: HopfAlgebra, mod: LeftModule, top: int) -> list:
    """H^0..H^(top-1) (HH for a bimodule) on the whole standard complex
    Hom_k(A^(tensor n), M), the reference for the normalized complex that
    `symcoh.bar.classical_cohomology` ranks."""
    return cohomology_dims(nonhomogeneous_complex(h, mod, top).restricted_diffs())


def fixed_subcomplex(c: CochainComplex, ops: list) -> CochainComplex:
    """The fixed subcomplex of a whole complex: space(n), n < top, replaced
    by its intersection with the fixed points of ops[n] (a list of
    generators per degree 0..top), the top space kept and its
    generators certified, and every differential's image on the fixed
    space checked to be fixed.  The reference for `symcoh.complexes.
    fixed_degrees`, which holds one degree at a time."""
    top = c.top_degree
    for sigma in ops[top]:
        restrict_operator(c.spaces[top], sigma)
    spaces = []
    for space, op in zip(c.spaces[:top], ops):
        spaces.append(_fixed_space(c.field, space, op) if op else space)
    spaces.append(c.spaces[top])
    for n in range(top):
        image = c.diffs[n] if spaces[n].is_full else c.diffs[n] @ spaces[n].basis
        for sigma in ops[n + 1]:
            if not (sigma @ image == image):
                raise ActionNotCompatible(f"differential image at degree {n} is not fixed")
    return CochainComplex(c.field, top, spaces, c.diffs)


# -- the chain isomorphisms and checks on complexes -------------------------


def space_dims(c: CochainComplex) -> list:
    """The dimension of the space of c at each degree."""
    return [s.dim for s in c.spaces]


def contains(space: CochainSpace, vecs: SparseMatrix) -> bool:
    """Whether every column of vecs lies in space, by the coords round trip
    (valid since coords @ basis = 1): the test of `symcoh.complexes.read_in`
    as a truth value."""
    return space.basis @ (space.coords @ vecs) == vecs


def check_independent(basis: Matrix) -> bool:
    """Whether the columns of basis are linearly independent."""
    return rank(basis) == basis.cols


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
        if not contains(c.spaces[n + 1], image):
            report.first_failure = n
            report.reason = "differential image leaves the next space"
            return report
        if n + 1 < c.top_degree and not (c.diffs[n + 1] @ image).is_zero():
            report.first_failure = n
            report.reason = "d.d is nonzero"
            return report
        report.degrees_checked.append(n)
    return report



def coxeter_relations_hold(op: list, space: CochainSpace):
    """Check the three Coxeter relation families on the given subspace.

    Returns (ok, name_of_first_failure).
    """
    sigmas = [restrict_operator(space, s) for s in op]
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
    dims = cohomology_dims(c.restricted_diffs())
    top = c.spaces[c.top_degree].dim
    top_h = top - rank(c.restricted_diff(c.top_degree - 1).to_dense()) if top else 0
    chi_spaces = sum((-1) ** n * c.spaces[n].dim for n in range(c.top_degree + 1))
    chi_h = sum((-1) ** n * h for n, h in enumerate(dims)) \
        + (-1) ** c.top_degree * top_h
    return chi_spaces == chi_h


def hom_module(h: HopfAlgebra, x: LeftModule, m: LeftModule) -> LeftModule:
    """Hom_k(X, M) with the action (a . F)(v) = a1 F(S(a2) v), flattened."""
    dim = m.dim * x.dim
    mats = []
    for i in range(h.dim):
        mats.append(combination(h.field, dim, dim, [
            (c, kron(x.act_element(h, antipode_column(h, k)).transpose(), m.action[j]))
            for (j, k), c in h.comult[i].items()]))
    return LeftModule(dim, mats)


def sigma_nonhomogeneous_ambient(h: HopfAlgebra, mod: LeftModule, n: int) -> list:
    """The same action written on all of Hom_k(A^(tensor slots), M), where
    the first (and for a bimodule the last) tensor slot is a free module
    coordinate: slots = n+1, or n+2 for a bimodule.  Used to cross-check the
    reduced boundary formulas under
    f(a_0 tensor x tensor a_last) = a_0 . f(1 tensor x tensor 1) . a_last."""
    require_cocommutative(h)
    d = h.dim
    m = mod.dim
    fld = h.field
    slots = n + 1 + isinstance(mod, Bimodule)
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
                        for u, su in antipode_column(h, s2).items():
                            for v, mv in h.mult[s3][tup[i + 1]].items():
                                coeff = fld.mul(minus,
                                                fld.mul(fld.mul(c, ma), fld.mul(su, mv)))
                                col_base = flat(tup[:i - 1] + (a, u, v) + tup[i + 2:], d) * m
                                _add_value_block(entries, row_base, col_base, coeff, eye, fld)
            else:
                for (s1, s2), c in h.comult[tup[n]].items():
                    for a, ma in h.mult[tup[n - 1]][s1].items():
                        for u, su in antipode_column(h, s2).items():
                            coeff = fld.mul(minus, fld.mul(c, fld.mul(ma, su)))
                            col_base = flat(tup[:n - 1] + (a, u), d) * m
                            _add_value_block(entries, row_base, col_base, coeff, eye, fld)
        sigmas.append(SparseMatrix(fld, size, size, entries))
    return sigmas


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
    for u, su in antipode_column(h, s).items():
        for w, mw in h.mult[u][b].items():
            vec[w] = fld.add(vec.get(w, fld.zero()), fld.mul(su, mw))
    return {k: v for k, v in vec.items() if v != 0}


def phi_psi(h: HopfAlgebra, mod: LeftModule, n: int):
    """Matrices of the mutually inverse chain maps between the realizations.

    phi: equivariant Hom(A^(n+1), M) -> reduced Hom(A^n, M), evaluating
    at nested products of leading Sweedler legs; psi goes back using the
    antipode to difference consecutive arguments, moving the first slot
    into the left action.
    """
    d = h.dim
    m = mod.dim
    fld = h.field
    left = _blocks(mod.action)
    eye = [(j, j, fld.one()) for j in range(m)]
    unit = h.unit_dict()

    entries = ([], [], [])
    for tup in all_tuples(d, n):
        row_base = flat(tup, d) * m
        legs = [iterated_comult(h, tup[r], n - 1 - r).coeffs for r in range(n)]
        for combo in itertools.product(*(legs[r].items() for r in range(n))):
            base_coeff = fld.one()
            for _t, c in combo:
                base_coeff = fld.mul(base_coeff, c)
            # slot s (1-based) is the product of leg s+1-r of argument r
            slot_vecs = [_leg_product(h, (combo[r][0][s - 1 - r] for r in range(s)))
                         for s in range(1, n + 1)]
            for head, hc in unit.items():
                for choice in itertools.product(*(v.items() for v in slot_vecs)):
                    coeff = fld.mul(base_coeff, hc)
                    arg = (head,) + tuple(k for k, _v in choice)
                    for _k, v in choice:
                        coeff = fld.mul(coeff, v)
                    if coeff == 0:
                        continue
                    _add_value_block(entries, row_base, flat(arg, d) * m, coeff, eye, fld)
    phi = SparseMatrix(fld, m * d ** n, m * d ** (n + 1), entries)

    entries = ([], [], [])
    for tup in all_tuples(d, n + 1):
        row_base = flat(tup, d) * m
        pair_lists = [list(h.comult[tup[r]].items()) for r in range(n)]
        for combo in itertools.product(*pair_lists):
            base_coeff = fld.one()
            for _p, c in combo:
                base_coeff = fld.mul(base_coeff, c)
            head = combo[0][0][0] if combo else tup[0]
            # slot k: S(second leg of a_{k-1}) * (first leg of a_k, or the last
            # argument bare)
            slot_vecs = [_antipode_times(h, combo[k - 1][0][1],
                                         combo[k][0][0] if k < len(combo) else tup[k])
                         for k in range(1, n + 1)]
            if not all(slot_vecs):
                continue
            block = left[head]
            for choice in itertools.product(*(v.items() for v in slot_vecs)):
                coeff = base_coeff
                arg = tuple(k2 for k2, _v in choice)
                for _k2, v in choice:
                    coeff = fld.mul(coeff, v)
                if coeff == 0:
                    continue
                _add_value_block(entries, row_base, flat(arg, d) * m, coeff, block, fld)
    psi = SparseMatrix(fld, m * d ** (n + 1), m * d ** n, entries)
    return phi, psi
