"""Finite-dimensional Hopf algebras given by structure constants.

An algebra element is a sparse dict {basis index: scalar}.  The
comultiplication of a basis element is a dict {(j, k): scalar}, and
iterated comultiplication produces dicts keyed by index tuples.  Group
algebras are detected at construction and flagged `group_like`, which
lets the cochain builders replace Sweedler sums by single terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .errors import DimensionMismatch, NotAGroup
from .fields import Field
from .linalg import Matrix


class HopfAlgebra:
    """Structure constants for (mult, unit, comult, counit, antipode)."""

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
        self._detect_group_like()
        self._cocommutative = None
        self._commutative = None

    # -- group-like fast path ------------------------------------------

    def _detect_group_like(self):
        one = self.field.one()
        d = self.dim
        ok = all(self.comult[i] == {(i, i): one} for i in range(d)) \
            and all(self.counit[i] == one for i in range(d)) \
            and all(len(self.mult[i][j]) == 1 and next(iter(self.mult[i][j].values())) == one
                    for i in range(d) for j in range(d)) \
            and sum(1 for x in self.unit if x != 0) == 1
        if ok:
            table = [[next(iter(self.mult[i][j])) for j in range(d)] for i in range(d)]
            identity = next(i for i, x in enumerate(self.unit) if x != 0)
            inv = [None] * d
            for i in range(d):
                for j in range(d):
                    if table[i][j] == identity:
                        inv[i] = j
            ok = ok and self.unit[identity] == one and all(v is not None for v in inv)
            if ok:
                self.group_like = True
                self.group_table = table
                self.group_identity = identity
                self.group_inverse = inv
                return
        self.group_like = False
        self.group_table = None
        self.group_identity = None
        self.group_inverse = None

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

    def antipode_column(self, i: int) -> dict:
        """Coordinates of S(b_i)."""
        return {l: self.antipode[l, i] for l in range(self.dim)
                if self.antipode[l, i] != 0}

    def antipode_of(self, v: dict) -> dict:
        fld = self.field
        out: dict = {}
        for i, a in v.items():
            for l, s in self.antipode_column(i).items():
                out[l] = fld.add(out.get(l, fld.zero()), fld.mul(a, s))
        return {k: v2 for k, v2 in out.items() if v2 != 0}

    # -- cached global properties -----------------------------------------

    @property
    def is_cocommutative(self) -> bool:
        if self._cocommutative is None:
            self._cocommutative = all(
                self.comult[i] == {(k, j): v for (j, k), v in self.comult[i].items()}
                for i in range(self.dim))
        return self._cocommutative

    @property
    def is_commutative(self) -> bool:
        if self._commutative is None:
            self._commutative = all(self.mult[i][j] == self.mult[j][i]
                                    for i in range(self.dim) for j in range(self.dim))
        return self._commutative

    def __repr__(self):
        kind = "group algebra" if self.group_like else "Hopf algebra"
        return f"<{kind} dim {self.dim} over {self.field}>"


@dataclass
class SweedlerTensor:
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


@dataclass
class AxiomCheck:
    name: str
    passed: bool
    witness: str | None = None


@dataclass
class ValidationReport:
    checks: list = dc_field(default_factory=list)
    cocommutative: bool = False
    commutative: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def check(self, name: str) -> AxiomCheck:
        return next(c for c in self.checks if c.name == name)


def _basis_vec(h, i):
    return {i: h.field.one()}


def _dicts_equal(a: dict, b: dict) -> bool:
    return {k: v for k, v in a.items() if v != 0} == {k: v for k, v in b.items() if v != 0}


def validate_hopf(h: HopfAlgebra, require_cocommutative: bool = False) -> ValidationReport:
    """Exhaustively verify every Hopf axiom on basis elements.

    Each failed check carries a witness naming the basis elements where
    the two sides first disagree.
    """
    fld = h.field
    d = h.dim
    labels = h.basis_labels
    report = ValidationReport()
    report.cocommutative = h.is_cocommutative
    report.commutative = h.is_commutative

    def record(name, passed, witness=None):
        report.checks.append(AxiomCheck(name, passed, witness))

    # associativity and unit
    witness = None
    for i in range(d):
        for j in range(d):
            left = h.product(_basis_vec(h, i), _basis_vec(h, j))
            for k in range(d):
                lhs = h.product(left, _basis_vec(h, k))
                rhs = h.product(_basis_vec(h, i), h.product(_basis_vec(h, j), _basis_vec(h, k)))
                if not _dicts_equal(lhs, rhs):
                    witness = f"({labels[i]}, {labels[j]}, {labels[k]})"
                    break
            if witness:
                break
        if witness:
            break
    record("associativity", witness is None, witness)

    one = h.unit_dict()
    witness = None
    for i in range(d):
        if not _dicts_equal(h.product(one, _basis_vec(h, i)), _basis_vec(h, i)) or \
           not _dicts_equal(h.product(_basis_vec(h, i), one), _basis_vec(h, i)):
            witness = labels[i]
            break
    record("unit", witness is None, witness)

    # coassociativity: expand first leg vs last leg of the comultiplication
    witness = None
    for i in range(d):
        left: dict = {}
        right: dict = {}
        for (j, k), c in h.comult[i].items():
            for (a, b), e in h.comult[j].items():
                key = (a, b, k)
                left[key] = fld.add(left.get(key, fld.zero()), fld.mul(c, e))
            for (a, b), e in h.comult[k].items():
                key = (j, a, b)
                right[key] = fld.add(right.get(key, fld.zero()), fld.mul(c, e))
        if not _dicts_equal(left, right):
            witness = labels[i]
            break
    record("coassociativity", witness is None, witness)

    # counit axiom
    witness = None
    for i in range(d):
        left: dict = {}
        right: dict = {}
        for (j, k), c in h.comult[i].items():
            left[k] = fld.add(left.get(k, fld.zero()), fld.mul(c, h.counit[j]))
            right[j] = fld.add(right.get(j, fld.zero()), fld.mul(c, h.counit[k]))
        if not _dicts_equal(left, _basis_vec(h, i)) or not _dicts_equal(right, _basis_vec(h, i)):
            witness = labels[i]
            break
    record("counit", witness is None, witness)

    # comultiplication and counit are algebra maps
    witness = None
    for i in range(d):
        for j in range(d):
            lhs: dict = {}
            for k, c in h.mult[i][j].items():
                for (a, b), e in h.comult[k].items():
                    key = (a, b)
                    lhs[key] = fld.add(lhs.get(key, fld.zero()), fld.mul(c, e))
            rhs: dict = {}
            for (a, b), c1 in h.comult[i].items():
                for (x, y), c2 in h.comult[j].items():
                    c12 = fld.mul(c1, c2)
                    for p, cp in h.mult[a][x].items():
                        for q, cq in h.mult[b][y].items():
                            key = (p, q)
                            rhs[key] = fld.add(rhs.get(key, fld.zero()),
                                               fld.mul(c12, fld.mul(cp, cq)))
            if not _dicts_equal(lhs, rhs):
                witness = f"({labels[i]}, {labels[j]})"
                break
        if witness:
            break
    if witness is None:
        delta_one: dict = {}
        for i, u in h.unit_dict().items():
            for (a, b), e in h.comult[i].items():
                delta_one[(a, b)] = fld.add(delta_one.get((a, b), fld.zero()), fld.mul(u, e))
        expect = {(a, b): fld.mul(ua, ub)
                  for a, ua in h.unit_dict().items() for b, ub in h.unit_dict().items()}
        if not _dicts_equal(delta_one, expect):
            witness = "1"
    record("comult_algebra_map", witness is None, witness)

    witness = None
    for i in range(d):
        for j in range(d):
            lhs = h.counit_of(h.product(_basis_vec(h, i), _basis_vec(h, j)))
            if lhs != fld.mul(h.counit[i], h.counit[j]):
                witness = f"({labels[i]}, {labels[j]})"
                break
        if witness:
            break
    if witness is None and h.counit_of(h.unit_dict()) != fld.one():
        witness = "1"
    record("counit_algebra_map", witness is None, witness)

    # antipode axiom: mult (S x id) comult = unit counit = mult (id x S) comult
    witness = None
    for i in range(d):
        left: dict = {}
        right: dict = {}
        for (j, k), c in h.comult[i].items():
            term = h.product(h.antipode_column(j), _basis_vec(h, k))
            for x, v in term.items():
                left[x] = fld.add(left.get(x, fld.zero()), fld.mul(c, v))
            term = h.product(_basis_vec(h, j), h.antipode_column(k))
            for x, v in term.items():
                right[x] = fld.add(right.get(x, fld.zero()), fld.mul(c, v))
        expect = {x: fld.mul(h.counit[i], u) for x, u in h.unit_dict().items()}
        if not _dicts_equal(left, expect) or not _dicts_equal(right, expect):
            witness = labels[i]
            break
    record("antipode", witness is None, witness)

    # antipode consequences
    witness = None
    for i in range(d):
        for j in range(d):
            lhs = h.antipode_of(h.product(_basis_vec(h, i), _basis_vec(h, j)))
            rhs = h.product(h.antipode_column(j), h.antipode_column(i))
            if not _dicts_equal(lhs, rhs):
                witness = f"({labels[i]}, {labels[j]})"
                break
        if witness:
            break
    record("antipode_antihomomorphism", witness is None, witness)

    record("antipode_unit", _dicts_equal(h.antipode_of(h.unit_dict()), h.unit_dict()),
           None if _dicts_equal(h.antipode_of(h.unit_dict()), h.unit_dict()) else "1")

    witness = None
    for i in range(d):
        if h.counit_of(h.antipode_column(i)) != h.counit[i]:
            witness = labels[i]
            break
    record("counit_antipode", witness is None, witness)

    witness = None
    for i in range(d):
        lhs: dict = {}
        for (j, k), c in h.comult[i].items():
            for a, va in h.antipode_column(k).items():
                for b, vb in h.antipode_column(j).items():
                    key = (a, b)
                    lhs[key] = fld.add(lhs.get(key, fld.zero()),
                                       fld.mul(c, fld.mul(va, vb)))
        rhs: dict = {}
        for l, s in h.antipode_column(i).items():
            for (a, b), e in h.comult[l].items():
                rhs[(a, b)] = fld.add(rhs.get((a, b), fld.zero()), fld.mul(s, e))
        if not _dicts_equal(lhs, rhs):
            witness = labels[i]
            break
    record("antipode_comult", witness is None, witness)

    if h.is_cocommutative or h.is_commutative:
        ss = h.antipode @ h.antipode
        ok = ss == Matrix.identity(fld, d)
        record("antipode_involutive", ok, None if ok else "S^2 != id")

    if require_cocommutative:
        witness = None
        for i in range(d):
            tw = {(k, j): v for (j, k), v in h.comult[i].items()}
            if not _dicts_equal(tw, h.comult[i]):
                witness = labels[i]
                break
        record("cocommutativity", witness is None, witness)

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
