import tracemalloc

import pytest

from oracles import hom_module, stacked_kernel
from symcoh.errors import InvalidBimodule, InvalidModule
from symcoh.fields import Field
from symcoh.hopf import cyclic_group_table, group_algebra, symmetric_group_table
from symcoh.linalg import Matrix
from symcoh.modules import (Bimodule, LeftModule, adjoint_module, hom_equivariant,
                            regular_bimodule, regular_left_module, tensor_module,
                            trivial_bimodule, trivial_module,
                            validate_bimodule, validate_left_module)
from symcoh.resolution import sym_resolution_complex
from symcoh.sparse import SparseMatrix, combination, kron
from test_generic_hopf import scrambled_kc3

GF3 = Field.prime(3)
GF5 = Field.prime(5)
QQ = Field.rationals()


def kC(n, field):
    return group_algebra(n, cyclic_group_table(n), field)


def kS3(field):
    return group_algebra(6, symmetric_group_table(3), field)


@pytest.mark.parametrize("make,field", [
    (lambda f: kC(3, f), GF3),
    (lambda f: kC(3, f), QQ),
    (lambda f: kS3(f), GF5),
])
def test_trivial_module_is_all_ones(make, field):
    h = make(field)
    triv = trivial_module(h)
    assert triv.dim == 1
    assert all(triv.action[i].to_dense()[0, 0] == field.one() for i in range(h.dim))
    assert validate_left_module(h, triv)


def test_regular_bimodule_structure():
    h = kC(3, GF3)
    reg = regular_bimodule(h)
    assert validate_bimodule(h, reg)
    # left action of g1 on e is g1
    assert reg.left[1].to_dense().data[:, 0].tolist() == [0, 1, 0]


def test_regular_bimodule_s3_actions_commute():
    h = kS3(GF5)
    reg = regular_bimodule(h)
    assert validate_bimodule(h, reg)


def test_unit_acts_as_identity():
    h = kS3(QQ)
    reg = regular_left_module(h)
    acted = reg.act_element(h, h.unit_dict())
    assert acted == SparseMatrix.identity(QQ, 6)


def test_adjoint_of_abelian_regular_is_identity_action():
    h = kC(3, GF3)
    adj = adjoint_module(h, regular_bimodule(h))
    for i in range(h.dim):
        assert adj.action[i] == SparseMatrix.identity(GF3, 3)
    assert validate_left_module(h, adj)


def test_adjoint_of_s3_regular_is_conjugation():
    h = kS3(GF5)
    adj = adjoint_module(h, regular_bimodule(h))
    assert validate_left_module(h, adj)
    table = h.group_table
    inv = h.group_inverse
    for t in range(6):
        # conjugation permutation x -> t x t^{-1}
        for x in range(6):
            y = table[table[t][x]][inv[t]]
            col = adj.action[t].to_dense().data[:, x].tolist()
            assert col[y] == GF5.one()
            assert sum(1 for v in col if v != 0) == 1


def test_adjoint_of_trivial_is_trivial():
    h = kS3(GF5)
    adj = adjoint_module(h, trivial_bimodule(h))
    assert adj.dim == 1
    for i in range(h.dim):
        assert adj.action[i].to_dense()[0, 0] == h.counit[i]


def test_invalid_bimodule_rejected():
    h = kC(2, GF3)
    reg = regular_bimodule(h)
    # squares to a non-identity
    shear = SparseMatrix.from_dense(Matrix.from_rows(GF3, [[1, 1], [0, 1]]))
    broken = Bimodule(2, reg.left, [SparseMatrix.identity(GF3, 2), shear])
    with pytest.raises(InvalidBimodule):
        adjoint_module(h, broken)


def test_dense_action_matrices_are_refused():
    # the actions are sparse; a dense Matrix is not a second input form
    h = kC(3, GF3)
    with pytest.raises(InvalidModule):
        validate_left_module(h, LeftModule(1, [Matrix.identity(GF3, 1)] * 3))
    with pytest.raises(InvalidBimodule):
        validate_bimodule(h, Bimodule(1, trivial_module(h).action, [Matrix.identity(GF3, 1)] * 3))


def test_invariants_trivial_module_is_full():
    h = kS3(GF5)
    assert hom_equivariant(h, trivial_module(h), trivial_module(h)).dim == 1


@pytest.mark.parametrize("field", [GF3, QQ])
def test_invariants_regular_kc3_is_norm_line(field):
    h = kC(3, field)
    inv = hom_equivariant(h, trivial_module(h), regular_left_module(h))
    assert inv.dim == 1
    # oracle: the fixed line is spanned by the sum of all group elements
    vec = inv.basis.data[:, 0].tolist()
    assert vec[0] == vec[1] == vec[2] != 0


def test_hom_equivariant_from_regular_is_free():
    h = kC(3, GF3)
    m = regular_left_module(h)
    s = hom_equivariant(h, regular_left_module(h), m)
    assert s.dim == m.dim


def test_hom_equivariant_trivial_trivial():
    h = kS3(GF5)
    s = hom_equivariant(h, trivial_module(h), trivial_module(h))
    assert s.dim == 1


def test_hom_from_trivial_to_regular_kc3_gf3():
    h = kC(3, GF3)
    s = hom_equivariant(h, trivial_module(h), regular_left_module(h))
    assert s.dim == 1


def test_hom_vs_invariants_dimension():
    # Hom_A(X, M) and the invariants of Hom_k(X, M) have the same dimension
    cases = [
        (kC(3, GF3), "regular", "trivial"),
        (kC(3, QQ), "trivial", "regular"),
        (kS3(GF5), "regular", "regular"),
    ]
    for h, xs, ms in cases:
        x = regular_left_module(h) if xs == "regular" else trivial_module(h)
        m = regular_left_module(h) if ms == "regular" else trivial_module(h)
        hm = hom_module(h, x, m)
        assert validate_left_module(h, hm)
        assert hom_equivariant(h, x, m).dim == hom_equivariant(h, trivial_module(h), hm).dim


def test_tensor_hom_adjunction_dimensions():
    # dim Hom_A(L tensor M, N) = dim Hom_A(L, Hom_k(M, N))
    for h in (kC(3, GF3), kC(2, QQ), kS3(GF5)):
        l = regular_left_module(h)
        m = trivial_module(h)
        n = regular_left_module(h)
        lm = tensor_module(h, l, m)
        assert validate_left_module(h, lm)
        lhs = hom_equivariant(h, lm, n).dim
        rhs = hom_equivariant(h, l, hom_module(h, m, n)).dim
        assert lhs == rhs
    # a case with both factors of dimension > 1
    h = kC(3, GF3)
    l = regular_left_module(h)
    m = regular_left_module(h)
    n = trivial_module(h)
    lhs = hom_equivariant(h, tensor_module(h, l, m), n).dim
    rhs = hom_equivariant(h, l, hom_module(h, m, n)).dim
    assert lhs == rhs


def test_tensor_level_charges_its_kron_terms_before_forming_them(monkeypatch):
    # kS3 on A tensor A: each element has one Sweedler leg and the regular
    # actions have 6 entries each, so 6 * 6 * 6 = 216 kron terms, held as
    # 648 cells of (row, column, value) triples
    from symcoh import modules, sparse
    from symcoh.errors import BudgetExceeded
    h = kS3(GF5)
    reg = regular_left_module(h)
    monkeypatch.setattr(sparse, "DENSE_RANK_CELLS", 648)
    assert validate_left_module(h, tensor_module(h, reg, reg))

    def unreachable(*args):
        raise AssertionError("a kron term was formed before the level was charged")

    monkeypatch.setattr(sparse, "DENSE_RANK_CELLS", 647)
    monkeypatch.setattr(modules, "apply_in_slot", unreachable)
    with pytest.raises(BudgetExceeded, match="6 x 6 tensor product needs at least 216 terms"):
        tensor_module(h, reg, reg)


def _exact_kron(a, b):
    """Entry (i1*rb + i2, j1*cb + j2) is a[i1][j1] * b[i2][j2], in Python ints."""
    return [[x * y for x in arow for y in brow] for arow in a for brow in b]


@pytest.mark.parametrize("p", [5, 1000003, 3037000493, 3037000507, 4294967311],
                         ids=["p=5", "p=1000003", "p=3037000493", "p=3037000507",
                              "p=4294967311"])
def test_kron_is_exact_at_every_field_size(p):
    # the largest prime with (p-1)^2 < 2^63 is 3037000493; above it a product
    # of two entries overflows int64, so no field accepts it
    import random
    if (p - 1) ** 2 >= 2 ** 63:
        with pytest.raises(ValueError):
            Field.prime(p)
        return
    field = Field.prime(p)
    rng = random.Random(p)
    a = [[rng.choice([0, 1, p - 1, p - 2, rng.randrange(p)]) for _ in range(3)]
         for _ in range(2)]
    b = [[rng.choice([0, 1, p - 1, p - 2, rng.randrange(p)]) for _ in range(2)]
         for _ in range(4)]
    got = kron(SparseMatrix.from_dense(Matrix.from_rows(field, a)),
               SparseMatrix.from_dense(Matrix.from_rows(field, b))).to_dense()
    expect = [[v % p for v in row] for row in _exact_kron(a, b)]
    assert (got.rows, got.cols) == (8, 6)
    assert got.data.tolist() == expect


def test_kron_rational():
    from fractions import Fraction
    a = [[Fraction(1, 2), 0], [3, Fraction(-2, 3)]]
    b = [[2, Fraction(1, 5)]]
    got = kron(SparseMatrix.from_dense(Matrix.from_rows(QQ, a)),
               SparseMatrix.from_dense(Matrix.from_rows(QQ, b))).to_dense()
    assert got.data.tolist() == \
        [[Fraction(v) for v in row] for row in _exact_kron(a, b)]


def _stacked_hom(h, x, m):
    """The parent algebra's Hom solve: every equation as a dense kron
    constraint, all stacked into one elimination."""
    eye_m = SparseMatrix.identity(h.field, m.dim)
    eye_x = SparseMatrix.identity(h.field, x.dim)
    return stacked_kernel(h.field, [
        (kron(x.action[i].transpose(), eye_m) - kron(eye_x, m.action[i])).to_dense()
        for i in range(h.dim)])


# (algebra, top degree of the coinvariant sources); the targets are the
# trivial and regular modules (SH) and the adjoint modules of the trivial
# and regular bimodules (SHH)
HOM_CASES = {
    "kC3-GF3": (lambda: kC(3, GF3), 3),
    "kC3-Q": (lambda: kC(3, QQ), 2),
    "kS3-GF5": (lambda: kS3(GF5), 2),
    "kS3-Q": (lambda: kS3(QQ), 1),
    "scrambled-kC3-GF3": (scrambled_kc3, 2),
}


@pytest.mark.parametrize("name", HOM_CASES)
def test_hom_equivariant_equals_the_stacked_kron_kernel(name):
    make, top = HOM_CASES[name]
    h = make()
    targets = [trivial_module(h), regular_left_module(h)] + \
        [adjoint_module(h, b(h)) for b in (trivial_bimodule, regular_bimodule)]
    sources = [s.module for s in sym_resolution_complex(h, top, check=False).spaces]
    sources.append(regular_left_module(h))
    for m in targets:
        for x in sources:
            if x.dim:
                assert hom_equivariant(h, x, m).basis == _stacked_hom(h, x, m).basis
    for mod in (trivial_module(h), regular_left_module(h),
                hom_module(h, regular_left_module(h), regular_left_module(h))):
        eye = SparseMatrix.identity(h.field, mod.dim)
        want = stacked_kernel(h.field, [
            combination(h.field, mod.dim, mod.dim, [(1, mod.action[i]), (-h.counit[i], eye)])
            .to_dense() for i in range(h.dim)])
        assert hom_equivariant(h, trivial_module(h), mod).basis == want.basis


def test_bimodule_hom_solve_peak_memory():
    # the Hom solve of SHH with the regular bimodule of kS3 through degree 3,
    # Hom_A(S_n, ad A): as many maps as the bimodule maps out of S_n tensor
    # A, whose stacked kron constraints peaked at 143 MiB
    h = kS3(GF5)
    ad = adjoint_module(h, regular_bimodule(h))
    spaces = sym_resolution_complex(h, 3, check=False).spaces
    tracemalloc.start()
    try:
        dims = [hom_equivariant(h, s.module, ad).dim for s in spaces]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dims == [6, 12, 22, 18]
    assert peak < 4 << 20
