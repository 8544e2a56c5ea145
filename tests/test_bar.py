import pathlib
import tracemalloc

import pytest

from symcoh import bar
from symcoh.bar import (classical_cohomology, equivariant_space, homogeneous_degrees,
                        nonhomogeneous_degrees, nonhomogeneous_symmetric_dims,
                        sigma_homogeneous, sigma_nonhomogeneous, symmetric_cohomology)
from symcoh.cli import load_algebra
from symcoh.complexes import (CochainSpace, cohomology_dims, fixed_degrees,
                              induced_map_on_cohomology, restrict_operator)
from symcoh.errors import BudgetExceeded, NotCocommutative
from symcoh.fields import Field
from symcoh.hopf import cyclic_group_table, group_algebra, symmetric_group_table
from symcoh.linalg import Matrix
from symcoh.modules import (Bimodule, adjoint_module, regular_bimodule, regular_left_module,
                            trivial_module)
from symcoh.sparse import SparseMatrix
from symcoh.tensors import cochain_precompose, flat

from oracles import (all_tuples, bar_chain_diff, check_complex, coxeter_relations_hold,
                     equivariant_solve, fixed_subcomplex, homogeneous_complex,
                     maschke_cohomology_dims, nonhomogeneous_complex, periodic_cyclic_cohomology_dims, phi_psi, psi_space,
                     sigma_nonhomogeneous_ambient, space_dims, stacked_kernel, vstack)
from restricted import restricted_enveloping
from test_generic_hopf import change_basis, scrambled_kc2_rational, scrambled_kc3

GF3 = Field.prime(3)
GF5 = Field.prime(5)
QQ = Field.rationals()
U1_GF5 = pathlib.Path(__file__).with_name("golden") / "algebras" / "u1-gf5.json"


def kC(n, field):
    return group_algebra(n, cyclic_group_table(n), field)


def kS3(field):
    return group_algebra(6, symmetric_group_table(3), field)


# -- complexes -------------------------------------------------------------


def test_nonhomogeneous_degree_dims_kc3():
    h = kC(3, GF3)
    c = nonhomogeneous_complex(h, trivial_module(h), 3)
    assert space_dims(c) == [1, 3, 9, 27]


def test_nonhomogeneous_complex_property_ks3():
    h = kS3(GF5)
    c = nonhomogeneous_complex(h, trivial_module(h), 3)
    assert check_complex(c).passed


def test_homogeneous_space_dims_fast_path():
    for h, m in [(kC(3, GF3), None), (kS3(GF5), None), (kC(3, QQ), None)]:
        mod = regular_left_module(h)
        for n in range(3):
            s = equivariant_space(h, mod, n + 1, [])
            assert s.dim == mod.dim * h.dim ** n
            assert (s.coords @ s.basis).equals_identity()


# (algebra, module, largest number of slots) for the closed-form checks
EQUIVARIANT_CASES = [
    (lambda: kC(3, GF3), trivial_module, 3), (lambda: kC(3, GF3), regular_left_module, 3),
    (lambda: kS3(GF5), trivial_module, 3), (lambda: kS3(GF5), regular_left_module, 2),
    # the dense Fraction solve for kS3 over Q with regular coefficients on
    # 2 slots takes seconds
    (lambda: kS3(QQ), trivial_module, 2), (lambda: kS3(QQ), regular_left_module, 1),
    (scrambled_kc3, trivial_module, 3), (scrambled_kc3, regular_left_module, 3),
    (scrambled_kc2_rational, trivial_module, 3),
    (scrambled_kc2_rational, regular_left_module, 3),
    # not cocommutative: the order of the Sweedler legs in psi matters
    (lambda: sweedler_h4(GF5), trivial_module, 3),
    (lambda: sweedler_h4(GF5), regular_left_module, 3),
]


def test_homogeneous_space_generic_agrees_with_fast_path():
    # the tensor-identity basis against the dense solve of the equivariance
    # equations, on group algebras and on algebras without a group basis
    for make, module, top_slots in EQUIVARIANT_CASES:
        h = make()
        mod = module(h)
        for slots in range(1, top_slots + 1):
            fast = equivariant_space(h, mod, slots, [])
            generic = equivariant_solve(h, mod, slots)
            assert fast.dim == generic.dim
            # same subspace: every fast basis column must round-trip through generic
            assert generic.contains(fast.basis)
            assert (fast.coords @ fast.basis).equals_identity()


# (id, algebra, module) whose equivariant spaces on 1..3 slots are pinned to
# psi entry for entry: group algebras with permutation and conjugation
# values, a scrambled kC3, a scrambled kC2 whose unit 3 b_0 - b_1 has two
# coordinates, Sweedler's algebra (not cocommutative, so the order of the
# Sweedler legs matters) and u(k) over GF(5), whose antipode is no permutation
PSI_CASES = [
    ("kS3-GF5-regular", lambda: kS3(GF5), regular_left_module),
    ("kS3-GF5-ad-regular", lambda: kS3(GF5), lambda h: adjoint_module(h, regular_bimodule(h))),
    ("kC3-GF3-trivial", lambda: kC(3, GF3), trivial_module),
    ("kS3-Q-trivial", lambda: kS3(QQ), trivial_module),
    ("sC3-GF3-regular", scrambled_kc3, regular_left_module),
    ("sC2-Q-regular", scrambled_kc2_rational, regular_left_module),
    ("H4-GF5-regular", lambda: sweedler_h4(GF5), regular_left_module),
    ("u1-GF5-regular", lambda: load_algebra(str(U1_GF5), None), regular_left_module),
]


@pytest.mark.parametrize("make, module", [case[1:] for case in PSI_CASES],
                         ids=[case[0] for case in PSI_CASES])
def test_equivariant_space_is_psi_entry_for_entry(make, module):
    # the basis and coords as matrices, not only their span
    h = make()
    mod = module(h)
    for slots in (1, 2, 3):
        got, want = equivariant_space(h, mod, slots, []), psi_space(h, mod, slots)
        assert got.basis == want.basis
        assert got.coords == want.coords


def test_homogeneous_complex_property():
    for h in (kC(3, GF3), kS3(GF5)):
        c = homogeneous_complex(h, trivial_module(h), 3)
        assert check_complex(c).passed


def test_classical_cohomology_kc3_gf3_periodic_oracle():
    h = kC(3, GF3)
    mod = trivial_module(h)
    expected = periodic_cyclic_cohomology_dims(h, mod, 3)
    assert expected == [1, 1, 1, 1]
    assert classical_cohomology(h, mod, 4) == expected


def test_classical_cohomology_kc3_rational_maschke():
    h = kC(3, QQ)
    mod = trivial_module(h)
    expected = maschke_cohomology_dims(h, mod, 3)
    assert expected == [1, 0, 0, 0]
    assert classical_cohomology(h, mod, 4) == expected


def test_homogeneous_matches_nonhomogeneous_cohomology():
    for h, top in ((kC(3, GF3), 4), (kC(2, QQ), 3), (kS3(GF5), 3)):
        mod = trivial_module(h)
        a = classical_cohomology(h, mod, top)
        b = cohomology_dims(homogeneous_complex(h, mod, top))
        assert a == b
    # periodic oracle through the homogeneous route, degrees 0..3
    h = kC(3, GF3)
    assert cohomology_dims(homogeneous_complex(h, trivial_module(h), 4)) == [1, 1, 1, 1]


def test_budget_refusal():
    h = kC(5, GF5)
    with pytest.raises(BudgetExceeded):
        homogeneous_complex(h, trivial_module(h), 7)


# -- actions ----------------------------------------------------------------


def append_entry(entries, i, j, v):
    """Append the entry (i, j, v) to the (rows, cols, vals) lists `entries`."""
    for lst, x in zip(entries, (i, j, v)):
        lst.append(x)


def _group_formula_sigma(h, mod, n):
    """Direct matrices of the group-level action formulas, as an oracle."""
    d = h.dim
    m = mod.dim
    fld = h.field
    table = h.group_table
    inv = h.group_inverse
    minus = fld.neg(fld.one())
    sigmas = []
    for i in range(1, n + 1):
        sig = ([], [], [])
        for tup in all_tuples(d, n):
            row_base = flat(tup, d) * m
            if i == 1:
                g1 = tup[0]
                arg = (inv[g1],) + ((table[g1][tup[1]],) + tup[2:] if n > 1 else ())
                rho = mod.action[g1].to_dense()
                col_base = flat(arg, d) * m
                for j in range(m):
                    for j2 in range(m):
                        v = rho[j, j2]
                        if v != 0:
                            append_entry(sig, row_base + j, col_base + j2, fld.mul(minus, v))
            elif i < n:
                arg = tup[:i - 2] + (table[tup[i - 2]][tup[i - 1]], inv[tup[i - 1]],
                                     table[tup[i - 1]][tup[i]]) + tup[i + 1:]
                col_base = flat(arg, d) * m
                for j in range(m):
                    append_entry(sig, row_base + j, col_base + j, minus)
            else:
                arg = tup[:n - 2] + (table[tup[n - 2]][tup[n - 1]], inv[tup[n - 1]])
                col_base = flat(arg, d) * m
                for j in range(m):
                    append_entry(sig, row_base + j, col_base + j, minus)
        sigmas.append(SparseMatrix(fld, m * d ** n, m * d ** n, sig))
    return sigmas


@pytest.mark.parametrize("make,field,n_max", [
    (lambda f: kC(3, f), GF3, 3),
    (lambda f: kS3(f), GF5, 2),
])
def test_sigma_nonhomogeneous_reproduces_group_formulas(make, field, n_max):
    h = make(field)
    for mod in (trivial_module(h), regular_left_module(h)):
        for n in range(2, n_max + 1):
            ours = sigma_nonhomogeneous(h, mod, n)
            oracle = _group_formula_sigma(h, mod, n)
            assert all(a == b for a, b in zip(ours, oracle))


def test_sigma_nonhomogeneous_coxeter_kc3():
    h = kC(3, GF3)
    mod = trivial_module(h)
    c = nonhomogeneous_complex(h, mod, 4)
    for n in range(1, 5):
        op = sigma_nonhomogeneous(h, mod, n)
        ok, why = coxeter_relations_hold(op, c.spaces[n])
        assert ok, why


def test_sigma_nonhomogeneous_braid_ks3():
    h = kS3(GF5)
    mod = trivial_module(h)
    op = sigma_nonhomogeneous(h, mod, 2)
    s1, s2 = op
    assert s1 @ (s2 @ s1) == s2 @ (s1 @ s2)


def test_sigma_homogeneous_coxeter_and_group_like_swap():
    h = kC(3, GF3)
    mod = trivial_module(h)
    c = homogeneous_complex(h, mod, 4)
    for n in range(1, 5):
        op = sigma_homogeneous(h, mod, n)
        ok, why = coxeter_relations_hold(op, c.spaces[n])
        assert ok, why
    # signed slot swap on the dual basis
    op = sigma_homogeneous(h, mod, 2)
    rows, cols, vals = op[0].triples()
    src = flat((1, 2, 0), 3)
    dst = flat((2, 1, 0), 3)
    assert rows[cols == src].tolist() == [dst]
    assert vals[cols == src].tolist() == [GF3.neg(GF3.one())]


def test_sigma_rejects_noncocommutative():
    # a commutative, non-cocommutative Hopf algebra: the dual of kS3
    h = kS3(GF5)
    dual = _dual_hopf(h)
    mod = trivial_module(dual)
    with pytest.raises(NotCocommutative):
        sigma_nonhomogeneous(dual, mod, 2)
    with pytest.raises(NotCocommutative):
        symmetric_cohomology(dual, mod, 2)


def _dual_hopf(h):
    """Dual Hopf algebra on the dual basis (finite dimensional)."""
    from symcoh.hopf import HopfAlgebra
    from symcoh.linalg import Matrix
    fld = h.field
    d = h.dim
    mult = [[{} for _ in range(d)] for _ in range(d)]
    for k in range(d):
        for (i, j), c in h.comult[k].items():
            mult[i][j][k] = fld.add(mult[i][j].get(k, fld.zero()), c)
    comult = [dict() for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for k, c in h.mult[i][j].items():
                comult[k][(i, j)] = fld.add(comult[k].get((i, j), fld.zero()), c)
    unit = list(h.counit)
    counit = list(h.unit)
    return HopfAlgebra(fld, d, [f"f{i}" for i in range(d)], mult, unit,
                       comult, counit, h.antipode.transpose())


def sweedler_h4(field):
    """Sweedler's 4-dimensional Hopf algebra on 1, g, x, gx: g^2 = 1,
    x^2 = 0, xg = -gx, g group-like and x (g, 1)-primitive; neither
    commutative nor cocommutative."""
    from symcoh.hopf import HopfAlgebra
    from symcoh.linalg import Matrix
    one, minus = field.one(), field.neg(field.one())
    # products of basis elements as {index: coefficient}
    table = {(1, 1): {0: one}, (1, 2): {3: one}, (1, 3): {2: one},
             (2, 1): {3: minus}, (3, 1): {2: minus}}
    mult = [[{j: one} if i == 0 else {i: one} if j == 0 else table.get((i, j), {})
             for j in range(4)] for i in range(4)]
    comult = [{(0, 0): one}, {(1, 1): one}, {(2, 0): one, (1, 2): one},
              {(3, 1): one, (0, 3): one}]
    antipode = Matrix.from_rows(field, [[1, 0, 0, 0], [0, 1, 0, 0],
                                        [0, 0, 0, 1], [0, 0, -1, 0]])
    return HopfAlgebra(field, 4, ["1", "g", "x", "gx"], mult, [one, 0, 0, 0],
                       comult, [one, one, 0, 0], antipode)


def test_dual_hopf_is_valid_but_not_cocommutative():
    from symcoh.hopf import validate_hopf
    dual = _dual_hopf(kS3(GF5))
    assert validate_hopf(dual).passed
    assert not dual.is_cocommutative
    h4 = sweedler_h4(GF5)
    assert validate_hopf(h4).passed
    assert not h4.is_cocommutative and not h4.is_commutative
    assert dual.is_commutative


def _assert_ambient_matches_reduced(h, n_max):
    """The reduced generators equal the ambient ones conjugated through
    F(a_0 tensor x) = a_0 . f(x), on the trivial and regular modules."""
    for mod in (trivial_module(h), regular_left_module(h)):
        d, m, fld = h.dim, mod.dim, h.field
        for n in range(1, n_max + 1):
            # section: reduced cochain -> ambient functional on A^(n+1)
            sect, coords = ([], [], []), ([], [], [])
            for tup in all_tuples(d, n + 1):
                row_base = flat(tup, d) * m
                col_base = flat(tup[1:], d) * m
                rho = mod.action[tup[0]].to_dense()
                for j in range(m):
                    for j2 in range(m):
                        v = rho[j2, j]
                        if v != 0:
                            append_entry(sect, row_base + j2, col_base + j, v)
            unit = h.unit_dict()
            for tup in all_tuples(d, n):
                for u, uc in unit.items():
                    for j in range(m):
                        append_entry(coords, flat(tup, d) * m + j,
                                flat((u,) + tup, d) * m + j, uc)
            sect = SparseMatrix(fld, m * d ** (n + 1), m * d ** n, sect)
            coords = SparseMatrix(fld, m * d ** n, m * d ** (n + 1), coords)
            assert (coords @ sect).equals_identity()
            reduced = sigma_nonhomogeneous(h, mod, n)
            ambient = sigma_nonhomogeneous_ambient(h, mod, n)
            for red, amb in zip(reduced, ambient):
                assert coords @ (amb @ sect) == red


def test_sigma_ambient_matches_reduced_via_free_identification():
    # reduced boundary formulas == ambient operators
    # conjugated through F(a_0 tensor x) = a_0 . f(x)
    for h, n_max in [(kC(3, GF3), 3), (kS3(GF5), 2)]:
        _assert_ambient_matches_reduced(h, n_max)


@pytest.mark.parametrize("make", [scrambled_kc3, scrambled_kc2_rational,
                                  lambda: restricted_enveloping(3)],
                         ids=["scrambled-kc3", "scrambled-kc2-q", "u1-gf3"])
def test_sigma_ambient_matches_reduced_without_a_group_basis(make):
    # the same on bases with Sweedler sums; the unit of scrambled kC2 has
    # two coordinates, so the padded outer slots are sums
    _assert_ambient_matches_reduced(make(), 3)


# -- phi/psi -----------------------------------------------------------------


@pytest.mark.parametrize("make,field,n_max", [
    (lambda f: kC(3, f), GF3, 3),
    (lambda f: kC(3, f), QQ, 2),
    (lambda f: kS3(f), GF5, 2),
    (lambda f: scrambled_kc3(), GF3, 2),
    (lambda f: scrambled_kc2_rational(), QQ, 2),
])
def test_phi_psi_mutually_inverse(make, field, n_max):
    h = make(field)
    for mod in (trivial_module(h), regular_left_module(h)):
        for n in range(n_max + 1):
            space = equivariant_space(h, mod, n + 1, [])
            phi, psi = phi_psi(h, mod, n)
            assert (phi @ psi).equals_identity()  # on all of C^n
            assert psi @ (phi @ space.basis) == space.basis  # identity on K^n


def test_phi_intertwines_differentials():
    for h in (kC(3, GF3), kS3(GF5)):
        mod = trivial_module(h)
        ck = homogeneous_complex(h, mod, 3)
        cc = nonhomogeneous_complex(h, mod, 3)
        for n in range(3):
            phi_n, _ = phi_psi(h, mod, n)
            phi_n1, _ = phi_psi(h, mod, n + 1)
            basis = ck.spaces[n].basis
            assert phi_n1 @ (ck.diffs[n] @ basis) == cc.diffs[n] @ (phi_n @ basis)


def test_psi_intertwines_differentials():
    for h in (kC(3, GF3), kS3(GF5)):
        mod = trivial_module(h)
        ck = homogeneous_complex(h, mod, 3)
        cc = nonhomogeneous_complex(h, mod, 3)
        for n in range(3):
            _, psi_n = phi_psi(h, mod, n)
            _, psi_n1 = phi_psi(h, mod, n + 1)
            assert psi_n1 @ cc.diffs[n] == ck.diffs[n] @ psi_n


def test_phi_psi_restrict_to_fixed_subspaces():
    h = kC(3, GF3)
    mod = trivial_module(h)
    for n in range(1, 4):
        space = equivariant_space(h, mod, n + 1, [])
        phi, psi = phi_psi(h, mod, n)
        ops_k = sigma_homogeneous(h, mod, n)
        ops_c = sigma_nonhomogeneous(h, mod, n)
        # fixed vectors of the slot-swap action inside the equivariant space
        from symcoh.linalg import Matrix, kernel_basis
        eye = SparseMatrix.identity(h.field, space.dim)
        red = [(restrict_operator(space, s) - eye).to_dense() for s in ops_k]
        fixed = kernel_basis(vstack(h.field, red))
        img = phi @ (space.basis @ SparseMatrix.from_dense(fixed.basis))
        for s in ops_c:
            assert s @ img == img
        # CS vectors map into KS under psi
        full_dim = mod.dim * h.dim ** n
        stacked = vstack(h.field, [(s - SparseMatrix.identity(h.field, full_dim)).to_dense()
                                   for s in ops_c])
        cs = kernel_basis(stacked)
        img = psi @ SparseMatrix.from_dense(cs.basis)
        for s in ops_k:
            assert s @ img == img


# -- symmetric cohomology ----------------------------------------------------


def test_symmetric_cohomology_kc3_gf3_table():
    h = kC(3, GF3)
    assert symmetric_cohomology(h, trivial_module(h), 5) == [1, 1, 1, 0, 0]


def test_symmetric_cohomology_cross_check_realizations():
    h = kC(3, GF3)
    dims = symmetric_cohomology(h, trivial_module(h), 4)
    assert dims == [1, 1, 1, 0]
    assert nonhomogeneous_symmetric_dims(h, trivial_module(h), 4) == dims


def test_symmetric_cohomology_kc3_rational_collapse():
    h = kC(3, QQ)
    mod = trivial_module(h)
    assert symmetric_cohomology(h, mod, 3) == classical_cohomology(h, mod, 3) == [1, 0, 0]


def test_fixed_subcomplex_dims_shrink():
    h = kC(3, GF3)
    mod = trivial_module(h)
    cpx = homogeneous_complex(h, mod, 4)
    ops = [sigma_homogeneous(h, mod, n) for n in range(5)]
    fixed = fixed_subcomplex(cpx, ops)
    assert all(f <= a for f, a in zip(space_dims(fixed), space_dims(cpx)))
    assert cohomology_dims(fixed) == [1, 1, 1, 0]


def test_induced_map_h1_iso_h2_injective_kc3():
    h = kC(3, GF3)
    mod = trivial_module(h)
    cpx = homogeneous_complex(h, mod, 3)
    ops = [sigma_homogeneous(h, mod, n) for n in range(4)]
    fixed = fixed_subcomplex(cpx, ops)
    report = induced_map_on_cohomology(fixed, cpx)
    m1 = report.matrix(1)
    assert m1.rows == m1.cols and report.is_injective(1)  # iso in degree 1
    assert report.is_injective(2)


def test_sh_equals_h_in_degrees_0_and_1():
    for h in (kC(3, GF3), kC(5, GF5), kS3(GF5)):
        mod = trivial_module(h)
        sh = symmetric_cohomology(h, mod, 2)
        hh = classical_cohomology(h, mod, 2)
        assert sh[0] == hh[0]
        assert sh[1] == hh[1]


def ad_regular(h):
    return adjoint_module(h, regular_bimodule(h))


# the "bimodule" cases take the adjoint module, the coefficients of SHH
FIXED_CASES = {
    "kC3-GF3-trivial": (lambda: kC(3, GF3), trivial_module, 4),
    "kC3-GF3-regular": (lambda: kC(3, GF3), regular_left_module, 3),
    "kC3-GF3-regular-bimodule": (lambda: kC(3, GF3), ad_regular, 3),
    "kC3-Q-regular": (lambda: kC(3, QQ), regular_left_module, 3),
    "kS3-GF5-trivial": (lambda: kS3(GF5), trivial_module, 3),
    "kS3-GF5-regular-bimodule": (lambda: kS3(GF5), ad_regular, 3),
    "scrambled-kC3-trivial": (scrambled_kc3, trivial_module, 3),
}


@pytest.mark.parametrize("name", FIXED_CASES)
def test_fixed_subspaces_equal_the_stacked_kernel_oracle(name):
    make, module, top = FIXED_CASES[name]
    h = make()
    mod = module(h)
    # one degree more, since the top space is kept as it is
    cpx = homogeneous_complex(h, mod, top + 1)
    ops = [sigma_homogeneous(h, mod, n) for n in range(top + 2)]
    fixed = fixed_subcomplex(cpx, ops)
    for n, space in enumerate(cpx.spaces[:-1]):
        eye = SparseMatrix.identity(h.field, space.dim)
        stack = [(restrict_operator(space, s) - eye).to_dense() for s in ops[n]]
        if not stack:
            continue
        want = CochainSpace.of(stacked_kernel(h.field, stack))
        assert fixed.spaces[n].basis == space.basis @ want.basis, n
        assert fixed.spaces[n].coords == want.coords @ space.coords, n


# each realization, one degree at a time, against the whole complex; the
# bimodule case takes ad M on the homogeneous side and M itself on the other
DEGREE_CASES = {
    "kS3-GF5-regular": (lambda: kS3(GF5), regular_left_module, 3),
    "kS3-GF5-regular-bimodule": (lambda: kS3(GF5), regular_bimodule, 3),
    "kC3-GF3-trivial": (lambda: kC(3, GF3), trivial_module, 4),
    "kS3-Q-trivial": (lambda: kS3(QQ), trivial_module, 3),
    "scrambled-kC3-trivial": (scrambled_kc3, trivial_module, 4),
    "scrambled-kC2-Q-regular": (scrambled_kc2_rational, regular_left_module, 4),
    "u1-GF5-regular": (lambda: load_algebra(str(U1_GF5), None), regular_left_module, 3),
}
REALIZATIONS = {
    "homogeneous": (homogeneous_degrees, homogeneous_complex, sigma_homogeneous),
    "nonhomogeneous": (lambda h, mod, top: nonhomogeneous_degrees(
        h, mod, top, lambda n: sigma_nonhomogeneous(h, mod, n)),
        nonhomogeneous_complex, sigma_nonhomogeneous),
}


@pytest.mark.parametrize("realization", REALIZATIONS)
@pytest.mark.parametrize("name", DEGREE_CASES)
def test_fixed_degrees_equal_the_whole_complex_oracle(name, realization):
    make, module, top = DEGREE_CASES[name]
    by_degree, whole, sigma = REALIZATIONS[realization]
    h = make()
    mod = module(h)
    if realization == "homogeneous" and isinstance(mod, Bimodule):
        mod = adjoint_module(h, mod)
    want = fixed_subcomplex(whole(h, mod, top), [sigma(h, mod, n) for n in range(top + 1)])
    degrees = list(by_degree(h, mod, top))
    assert len(degrees) == top + 1
    for n, (space, diff) in enumerate(degrees):
        assert space.is_full == want.spaces[n].is_full, n
        assert space.basis == want.spaces[n].basis, n
        assert space.coords == want.spaces[n].coords, n
        assert diff == (None if n == 0 else want.restricted_diff(n - 1)), n


def test_fixed_degrees_without_generators_restrict_to_the_equivariant_spaces():
    # Sweedler's H4 is not cocommutative, so it has no slot-swap action;
    # driven with no generators, the homogeneous images restrict to the
    # whole complex's differentials on its equivariant spaces, and either
    # realization refuses H4, one degree at a time, once it forms a generator
    h = sweedler_h4(GF5)
    for mod in (trivial_module(h), regular_left_module(h)):
        want = homogeneous_complex(h, mod, 3)
        spaces = [equivariant_space(h, mod, n + 1, []) for n in range(3, -1, -1)]
        degrees = list(fixed_degrees(h.field, spaces, lambda n: [],
                                     lambda n, fixed: bar._homogeneous_image(h, n, mod.dim,
                                                                             fixed.basis)))
        for n, (space, diff) in enumerate(degrees):
            assert space.basis == want.spaces[n].basis
            assert diff == (None if n == 0 else want.restricted_diff(n - 1))
        for by_degree, _whole, _sigma in REALIZATIONS.values():
            with pytest.raises(NotCocommutative):
                list(by_degree(h, mod, 3))


def _kc5_symmetric_cohomology_peak(top):
    h = kC(5, GF5)
    tracemalloc.start()
    try:
        dims = symmetric_cohomology(h, trivial_module(h), top)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return dims, peak


def test_symmetric_cohomology_kc5_peak_memory():
    # every restricted generator is a signed permutation, so the fixed
    # points are orbits and no dense kernel step is formed; the dense steps
    # (625 x 625 at degree 4) peaked at 11.4 MiB here, and the stacked
    # (#sigma * s) x s kernel at 43 MiB
    dims, peak = _kc5_symmetric_cohomology_peak(5)
    assert dims == [1, 1, 1, 1, 1]
    assert peak < 8 << 20


def test_symmetric_cohomology_kc5_holds_one_degree_at_a_time():
    # each degree's generators and image are formed and dropped in turn, and
    # no differential is formed: the whole complex with its restrictions
    # peaked at 4.58 MiB here
    dims, peak = _kc5_symmetric_cohomology_peak(5)
    assert dims == [1, 1, 1, 1, 1]
    assert peak <= 3 << 20


def test_symmetric_cohomology_kc2_top_12_sums_the_image_in_batches():
    # the top image summed in one piece would peak above the whole complex,
    # which peaked at 7,195,717 bytes here
    h = kC(2, Field.prime(2))
    tracemalloc.start()
    try:
        dims = symmetric_cohomology(h, trivial_module(h), 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dims == [1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0]
    assert peak <= 7_195_717


def test_symmetric_cohomology_kc5_top_6_peak_memory():
    # degree 5 has 3125 x 3125 dense kernel steps, which peaked at 180.7 MiB
    dims, peak = _kc5_symmetric_cohomology_peak(6)
    assert dims == [1, 1, 1, 1, 1, 0]
    assert peak < 48 << 20


def test_symmetric_cohomology_scrambled_kc3_peak_memory():
    # the containment check of restrict_operator multiplies the psi basis by
    # each restricted generator; expanded in one go, its unsummed terms
    # peaked at 176 MiB here, and summed column batch by column batch they
    # stay within the size of the operands
    h = scrambled_kc3()
    mod = trivial_module(h)
    tracemalloc.start()
    try:
        dims = symmetric_cohomology(h, mod, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dims == [1, 1, 1, 0, 0]
    assert peak < 32 << 20


def test_nonhomogeneous_realization_dense_unit_peak_memory():
    # kS3 on a basis whose unit has 6 coordinates: the evaluation on
    # 1 tensor x tensor 1 forms only the outer slot a composite reads, so
    # no padding multiplies the terms by nnz(unit)^2; the tuple loops this
    # replaced peaked at 95 MiB and took 23 s here
    field = GF5
    p = Matrix.from_rows(field, [[1 if i == j else 0 if j > i else (i + 2 * j) % 4 + 1
                                  for j in range(6)] for i in range(6)])
    h = change_basis(kS3(field), p)
    assert len(h.unit_dict()) == 6
    mod = trivial_module(h)
    tracemalloc.start()
    try:
        nonhomogeneous_complex(h, mod, 5)
        for n in range(4):
            sigma_nonhomogeneous(h, mod, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def test_symmetric_cohomology_restricts_each_generator_once(monkeypatch):
    # fixed_subcomplex restricts each generator once, which checks that it
    # preserves its space: 0 + 1 + 2 + 3 + 4 generators below the top, and 5
    # at the top, whose space is kept
    from symcoh import complexes
    calls = []
    real = complexes.restrict_operator

    def counting(space, op):
        calls.append(op.rows)
        return real(space, op)

    monkeypatch.setattr(complexes, "restrict_operator", counting)
    h = kC(5, Field.prime(5))
    assert symmetric_cohomology(h, trivial_module(h), 5) == [1] * 5
    assert len(calls) == 15


@pytest.mark.parametrize("batch", [bar.DIFF_BATCH, 1], ids=["one-batch", "column-batches"])
def test_homogeneous_differential_is_the_precomposed_chain_map(batch, monkeypatch):
    # the transposed chain map tensor id_M applied to a basis, summed batch
    # by batch, against precomposition with the whole chain map: on the
    # identity (the whole differential), on the equivariant basis and on no
    # columns; the counit of k[x]/(x^3) vanishes on x and x^2, and scrambled
    # kC3 has no group basis
    monkeypatch.setattr(bar, "DIFF_BATCH", batch)
    for h in (kC(3, GF3), kS3(QQ), scrambled_kc3(), restricted_enveloping(3)):
        for mod in (trivial_module(h), regular_left_module(h)):
            for n in range(3):
                want = cochain_precompose(bar_chain_diff(h, n + 1), mod.dim)
                basis = equivariant_space(h, mod, n + 1, []).basis
                for cols in (SparseMatrix.identity(h.field, want.cols), basis,
                             SparseMatrix(h.field, want.cols, 0)):
                    got = bar._homogeneous_image(h, n, mod.dim, cols)
                    assert got == want @ cols, (h, mod, n)


def test_homogeneous_complex_forms_each_tensor_power_level_once(monkeypatch):
    # the top degree forms levels 1 .. top-1 whole and its own level one
    # element at a time; the smaller degrees read those levels
    from symcoh import tensors
    built, single = [], []
    real_module, real_actions = tensors.tensor_module, tensors.tensor_actions

    def module(h, l, m):
        built.append(l.dim * m.dim)
        return real_module(h, l, m)

    def actions(h, l, m, elements):
        single.append(l.dim * m.dim)
        return real_actions(h, l, m, elements)

    monkeypatch.setattr(tensors, "tensor_module", module)
    monkeypatch.setattr(tensors, "tensor_actions", actions)
    h = scrambled_kc3()
    dims = [space.dim for space, _diff in homogeneous_degrees(h, trivial_module(h), 4)]
    assert built == [3, 9, 27]
    assert set(single) == {81}
    assert dims == [1, 1, 1, 0, 81]
