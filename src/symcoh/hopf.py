"""Finite-dimensional Hopf algebras given by structure constants.

The constructor takes the constants in their input form (dict-of-dict
mult and comult, unit and counit lists, a dense antipode) and builds from
them, once, the sparse structure maps `maps` (see StructureMaps).  Every
other module reads the algebra only through the maps; the input form
stays for the element arithmetic and `iterated_comult` here, which serve
the benchmark's input generator (perfbench/inputs.py) and the test
oracles.  A group basis is read off the maps and flagged `group_like`,
which lets the cochain builders replace Sweedler sums by permutations.
`validate_hopf` checks each axiom as one equality of composites of the
maps, applied slot by slot to batches of input basis tuples.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotAGroup
from .fields import Field
from .linalg import Matrix
from .sparse import SparseMatrix, apply_in_slot

CHECK_COLUMNS = 1 << 16  # input columns per batch of a Hopf axiom check


class HopfAlgebra:
    """Structure constants for (mult, unit, comult, counit, antipode), in
    their input form and as the sparse structure maps `maps`."""

    def __init__(self, field: Field, dim: int, basis_labels, mult, unit,
                 comult, counit, antipode: Matrix):
        if len(basis_labels) != dim or len(unit) != dim or len(counit) != dim:
            raise DimensionMismatch("unit/counit/labels must have length dim")
        if len(mult) != dim or any(len(row) != dim for row in mult):
            raise DimensionMismatch("mult must be dim x dim")
        if len(comult) != dim:
            raise DimensionMismatch("comult must have length dim")
        if antipode.rows != dim or antipode.cols != dim:
            raise DimensionMismatch("antipode must be dim x dim")
        self.field = field
        self.dim = dim
        self.basis_labels = list(basis_labels)
        self.mult = [[{k: v for k, v in cell.items() if v != 0} for cell in row]
                     for row in mult]
        self.unit = list(unit)
        self.comult = [{jk: v for jk, v in cell.items() if v != 0} for cell in comult]
        self.counit = list(counit)
        self.antipode = antipode
        self.maps = _structure_maps(self)
        self._detect_group_like()
        self._cocommutative = None
        self._commutative = None

    # -- group-like fast path ------------------------------------------

    def _detect_group_like(self):
        """A group basis, read off the maps: Delta(b_i) = b_i tensor b_i and
        eps(b_i) = 1 for every i, each product b_i b_j and the unit a basis
        element, and some b_j with b_i b_j = 1 for every i (group_inverse[i]
        is the last such j)."""
        m, delta, eta, eps = self.maps[:4]
        d = self.dim
        at = np.arange(d, dtype=np.int64)
        self.group_like = False
        self.group_table = self.group_identity = self.group_inverse = None
        if not (np.array_equal(delta.col_idx, at) and np.array_equal(delta.row_idx, at * (d + 1))
                and eps.nnz() == d and np.array_equal(m.col_idx, np.arange(d * d))
                and eta.nnz() == 1
                and all((x.vals == 1).all() for x in (m, delta, eta, eps))):
            return
        table = m.row_idx.reshape(d, d)
        identity = int(eta.row_idx[0])
        hit = table == identity
        if hit.any(axis=1).all():
            self.group_like = True
            self.group_table = table.tolist()
            self.group_identity = identity
            self.group_inverse = (d - 1 - np.argmax(hit[:, ::-1], axis=1)).tolist()

    # -- element arithmetic ----------------------------------------------

    def product(self, v: dict, w: dict) -> dict:
        """Product of two elements given as sparse coordinate dicts."""
        fld = self.field
        out: dict = {}
        for i, a in v.items():
            row = self.mult[i]
            for j, b in w.items():
                ab = fld.mul(a, b)
                for k, c in row[j].items():
                    out[k] = fld.add(out.get(k, fld.zero()), fld.mul(ab, c))
        return {k: v2 for k, v2 in out.items() if v2 != 0}

    def unit_dict(self) -> dict:
        return {i: x for i, x in enumerate(self.unit) if x != 0}

    def counit_of(self, v: dict):
        fld = self.field
        out = fld.zero()
        for i, a in v.items():
            out = fld.add(out, fld.mul(a, self.counit[i]))
        return out

    # -- cached global properties -----------------------------------------

    @property
    def is_cocommutative(self) -> bool:
        if self._cocommutative is None:
            self._cocommutative = self.maps.swap @ self.maps.comult == self.maps.comult
        return self._cocommutative

    @property
    def is_commutative(self) -> bool:
        if self._commutative is None:
            self._commutative = self.maps.mult @ self.maps.swap == self.maps.mult
        return self._commutative


class StructureMaps(NamedTuple):
    """The structure maps of a Hopf algebra A on its basis, tensor powers
    flattened with the left factor most significant (b_i tensor b_j at
    i * dim + j)."""

    mult: SparseMatrix      # dim x dim^2: column i * dim + j holds b_i b_j
    comult: SparseMatrix    # dim^2 x dim
    unit: SparseMatrix      # dim x 1
    counit: SparseMatrix    # 1 x dim
    antipode: SparseMatrix  # dim x dim
    swap: SparseMatrix      # dim^2 x dim^2: b_i tensor b_j -> b_j tensor b_i


class SweedlerTensor(NamedTuple):
    """Coefficients of the iterated comultiplication of one basis element.

    coeffs maps (t+1)-tuples of basis indices to scalars, in the
    convention that the leftmost tensor factor is the first tuple entry.
    """

    source: int
    arity: int
    coeffs: dict


def iterated_comult(h: HopfAlgebra, i: int, t: int) -> SweedlerTensor:
    """Coefficient tensor of the t-fold comultiplication of b_i (t=0: identity)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if h.group_like:
        return SweedlerTensor(i, t + 1, {(i,) * (t + 1): h.field.one()})
    fld = h.field
    coeffs = {(i,): fld.one()}
    for _ in range(t):
        new: dict = {}
        for key, c in coeffs.items():
            head, rest = key[0], key[1:]
            for (a, b), e in h.comult[head].items():
                nk = (a, b) + rest
                prev = new.get(nk)
                v = fld.mul(c, e) if prev is None else fld.add(prev, fld.mul(c, e))
                new[nk] = v
        coeffs = {k: v for k, v in new.items() if v != 0}
    return SweedlerTensor(i, t + 1, coeffs)


class AxiomCheck(NamedTuple):
    name: str
    passed: bool
    witness: str | None


class ValidationReport(NamedTuple):
    checks: list
    cocommutative: bool
    commutative: bool

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _structure_maps(h: HopfAlgebra) -> StructureMaps:
    """The structure maps of h as sparse matrices, from its input form."""
    d = h.dim
    ij = np.arange(d * d, dtype=np.int64)  # b_i tensor b_j

    def from_entries(rows, cols, entries):
        return SparseMatrix(h.field, rows, cols, [list(x) for x in zip(*entries)] or None)

    return StructureMaps(
        mult=from_entries(d, d * d, [(k, i * d + j, c) for i in range(d)
                                     for j in range(d) for k, c in h.mult[i][j].items()]),
        comult=from_entries(d * d, d, [(j * d + k, i, c) for i in range(d)
                                       for (j, k), c in h.comult[i].items()]),
        unit=from_entries(d, 1, [(i, 0, x) for i, x in enumerate(h.unit)]),
        counit=from_entries(1, d, [(0, i, x) for i, x in enumerate(h.counit)]),
        antipode=SparseMatrix.from_dense(h.antipode),
        swap=SparseMatrix(h.field, d * d, d * d, (ij % d * d + ij // d, ij, None)))


def _apply(h: HopfAlgebra, composite, x: SparseMatrix) -> SparseMatrix:
    """The composite applied to x, last layer first.  A layer is a map, or a
    tuple of tensor factors: one map and the identity of A (1) in every
    other slot, applied by `apply_in_slot` without forming the product."""
    for layer in reversed(composite):
        factors = layer if isinstance(layer, tuple) else (layer,)
        at = next(i for i, f in enumerate(factors) if isinstance(f, SparseMatrix))
        x = apply_in_slot(factors[at], x, h.dim ** at, h.dim ** (len(factors) - 1 - at))
    return x


def _first_difference(h: HopfAlgebra, stages):
    """The witness of a check, or None when it holds.  A stage is (inputs,
    pairs): pairs of composites (lhs, rhs, see _apply) on the tensor power
    of A with `inputs` factors (0: the field).  Both sides are applied to
    batches of CHECK_COLUMNS basis tuples in column order, so what is held
    is bounded by the batch, not by the tensor power.  The witness is the
    first tuple where a pair of the first failing stage differs, as labels,
    or "1" for the unit."""
    labels, d = h.basis_labels, h.dim
    for inputs, pairs in stages:
        size = d ** inputs
        for lo in range(0, size, CHECK_COLUMNS):
            idx = np.arange(lo, min(lo + CHECK_COLUMNS, size), dtype=np.int64)
            x = SparseMatrix(h.field, size, len(idx), (idx, idx - lo, None))
            sides = ((_apply(h, lhs, x), _apply(h, rhs, x)) for lhs, rhs in pairs)
            cols = [int((a - b).col_idx[0]) for a, b in sides if a != b]
            if cols:
                if not inputs:
                    return "1"
                at = lo + min(cols)
                tup = [labels[at // d ** (inputs - 1 - t) % d] for t in range(inputs)]
                return tup[0] if inputs == 1 else f"({', '.join(map(str, tup))})"
    return None


def validate_hopf(h: HopfAlgebra, require_cocommutative: bool = False) -> ValidationReport:
    """Verify every Hopf axiom as an equality of two composites of the
    structure maps m, Delta, eta, eps, S and the swap tau of A tensor A.

    A composite lists its layers outermost first: (m, (m, 1)) is
    m(m tensor 1), and () is the identity.  Each failed check carries a
    witness naming the basis elements where the two sides first disagree
    (see _first_difference).
    """
    m, delta, eta, eps, s, tau = h.maps
    report = ValidationReport([], h.is_cocommutative, h.is_commutative)
    # (M tensor M)(1 tensor tau tensor 1)(Delta tensor Delta) is (1 tensor M)(L tensor 1)
    # (1 tensor Delta), L = (M tensor 1)(1 tensor tau)(Delta tensor 1): x tensor y ->
    # x_(1) y tensor x_(2), summed on A tensor A, so no layer reaches A^(tensor 4)
    twist = _apply(h, ((m, 1), (1, tau), (delta, 1)), SparseMatrix.identity(h.field, h.dim ** 2))
    checks = [
        ("associativity", [(3, [((m, (m, 1)), (m, (1, m)))])]),
        ("unit", [(1, [((m, (eta, 1)), ()), ((m, (1, eta)), ())])]),
        ("coassociativity", [(1, [(((delta, 1), delta), ((1, delta), delta))])]),
        ("counit", [(1, [(((eps, 1), delta), ()), (((1, eps), delta), ())])]),
        ("comult_algebra_map", [(2, [((delta, m), ((1, m), (twist, 1), (1, delta)))]),
                                (0, [((delta, eta), ((1, eta), eta))])]),
        ("counit_algebra_map", [(2, [((eps, m), (eps, (eps, 1)))]), (0, [((eps, eta), ())])]),
        ("antipode", [(1, [((m, (s, 1), delta), (eta, eps)), ((m, (1, s), delta), (eta, eps))])]),
        ("antipode_antihomomorphism", [(2, [((s, m), (m, (s, 1), (1, s), tau))])]),
        ("antipode_unit", [(0, [((s, eta), (eta,))])]),
        ("counit_antipode", [(1, [((eps, s), (eps,))])]),
        ("antipode_comult", [(1, [(((s, 1), (1, s), tau, delta), (delta, s))])]),
    ]
    for name, stages in checks:
        witness = _first_difference(h, stages)
        report.checks.append(AxiomCheck(name, witness is None, witness))
    if report.cocommutative or report.commutative:
        ok = s @ s == SparseMatrix.identity(h.field, h.dim)
        report.checks.append(AxiomCheck("antipode_involutive", ok, None if ok else "S^2 != id"))
    if require_cocommutative:
        witness = _first_difference(h, [(1, [((tau, delta), (delta,))])])
        report.checks.append(AxiomCheck("cocommutativity", witness is None, witness))
    return report


# -- group algebras -----------------------------------------------------


def _check_group_table(table) -> int:
    """Validate a Cayley table (identity at index 0); return the order."""
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    for row in table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise NotAGroup("table is not n x n over 0..n-1")
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            raise NotAGroup("index 0 is not a two-sided identity")
    for i in range(n):
        if sorted(table[i]) != list(range(n)) or sorted(r[i] for r in table) != list(range(n)):
            raise NotAGroup("table is not a Latin square")
    for i in range(n):
        if 0 not in table[i]:
            raise NotAGroup(f"element {i} has no inverse")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise NotAGroup(f"associativity fails at ({i},{j},{k})")
    return n


def group_algebra(order: int, cayley, field: Field) -> HopfAlgebra:
    """The group algebra kG as a Hopf algebra: group-like comultiplication,
    counit 1, antipode g -> g^{-1}."""
    n = _check_group_table(cayley)
    if n != order:
        raise NotAGroup(f"table size {n} != declared order {order}")
    one = field.one()
    zero = field.zero()
    mult = [[{cayley[i][j]: one} for j in range(n)] for i in range(n)]
    unit = [one if i == 0 else zero for i in range(n)]
    comult = [{(i, i): one} for i in range(n)]
    counit = [one] * n
    inv = [cayley[i].index(0) for i in range(n)]
    antipode = Matrix.zeros(field, n, n)
    for i in range(n):
        antipode._set(inv[i], i, one)
    labels = [f"g{i}" for i in range(n)]
    labels[0] = "e"
    return HopfAlgebra(field, n, labels, mult, unit, comult, counit, antipode)


def cyclic_group_table(n: int):
    if n < 1:
        raise NotAGroup("order must be positive")
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_group_table(n: int):
    """Cayley table of S_n on permutations in lexicographic order (identity first)."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        # row p, column q: the composite applying q first, then p
        table.append([index[tuple(p[q[x]] for x in range(n))] for q in perms])
    return table


def named_group_table(name: str):
    """Resolve builtin algebra names: "Cp:<n>" (cyclic) or "S3"."""
    if name.startswith("Cp:"):
        return cyclic_group_table(int(name.split(":", 1)[1]))
    if name in ("S3", "s3"):
        return symmetric_group_table(3)
    raise NotAGroup(f"unknown builtin group {name!r}")
