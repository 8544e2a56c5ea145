"""HH and SHH: the nonhomogeneous realization with bimodule coefficients,
and SHH(A, M) = SH(A, ad M), the paper's theorem, through which the
homogeneous realization and the resolution route compute SHH.  Every
SHH value is asserted on both sides: the homogeneous realization of ad M
and the nonhomogeneous realization of M itself."""

import pytest

from symcoh.bar import (classical_cohomology, equivariant_space, homogeneous_complex,
                        nonhomogeneous_complex, nonhomogeneous_symmetric_dims,
                        sigma_homogeneous, sigma_nonhomogeneous, symmetric_cohomology)
from symcoh.complexes import cohomology_dims, fixed_subcomplex
from symcoh.errors import NotCommutative
from symcoh.fields import Field
from symcoh.hochschild import commutative_factorization_check, compare_adjoint
from symcoh.hopf import cyclic_group_table, group_algebra, symmetric_group_table
from symcoh.modules import adjoint_module, regular_bimodule, trivial_bimodule
from symcoh.sparse import SparseMatrix
from symcoh.tensors import flat

from oracles import (all_tuples, check_complex, coxeter_relations_hold, equivariant_solve,
                     periodic_cyclic_cohomology_dims, phi_psi, sigma_nonhomogeneous_ambient)
from restricted import restricted_enveloping
from test_bar import append_entry, sweedler_h4
from test_generic_hopf import scrambled_kc2_rational, scrambled_kc3

GF3 = Field.prime(3)
GF5 = Field.prime(5)
QQ = Field.rationals()
SIGMA = {"homogeneous": sigma_homogeneous, "nonhomogeneous": sigma_nonhomogeneous}
COMPLEX = {"homogeneous": homogeneous_complex, "nonhomogeneous": nonhomogeneous_complex}


def kC(n, field):
    return group_algebra(n, cyclic_group_table(n), field)


def kS3(field):
    return group_algebra(6, symmetric_group_table(3), field)


def ad_regular(h):
    return adjoint_module(h, regular_bimodule(h))


def test_reduced_complex_property():
    for h in (kC(3, GF3), kS3(GF5)):
        c = nonhomogeneous_complex(h, regular_bimodule(h), 3)
        assert check_complex(c).passed


def test_homogeneous_complex_property_and_dims():
    h = kC(3, GF3)
    c = homogeneous_complex(h, ad_regular(h), 3)
    assert check_complex(c).passed
    assert [s.dim for s in c.spaces] == [3 * 3 ** n for n in range(4)]


def test_equivariant_space_generic_agrees_with_fast_path():
    # the tensor-identity basis with the adjoint module of a bimodule as
    # coefficients against the dense solve
    cases = [(lambda: kC(3, GF3), 2), (lambda: kS3(GF5), 1), (lambda: kS3(QQ), 1),
             (scrambled_kc3, 2), (scrambled_kc2_rational, 2), (lambda: sweedler_h4(GF5), 2)]
    for make, top_slots in cases:
        h = make()
        for bim in (trivial_bimodule(h), regular_bimodule(h)):
            ad = adjoint_module(h, bim)
            for slots in range(1, top_slots + 1):
                fast = equivariant_space(h, ad, slots, [])
                generic = equivariant_solve(h, ad, slots)
                assert fast.dim == generic.dim
                assert generic.contains(fast.basis)
                assert (fast.coords @ fast.basis).equals_identity()


def test_hochschild_dims_kc3_gf3():
    h = kC(3, GF3)
    # oracle: HH^n(A, A) = dim A * H^n(A, k) for this commutative group algebra
    from symcoh.modules import trivial_module
    expected = [3 * v for v in periodic_cyclic_cohomology_dims(h, trivial_module(h), 3)]
    assert expected == [3, 3, 3, 3]
    assert classical_cohomology(h, regular_bimodule(h), 4) == expected


def test_hochschild_dims_kc3_rational():
    h = kC(3, QQ)
    assert classical_cohomology(h, regular_bimodule(h), 3) == [3, 0, 0]


def test_hochschild_routes_agree():
    # HH(A, M) = H(A, ad M): the nonhomogeneous bimodule complex against the
    # homogeneous complex of the adjoint module
    for h, top in ((kC(3, GF3), 4), (kC(2, QQ), 3), (kC(3, QQ), 3), (kS3(GF5), 3)):
        bim = regular_bimodule(h)
        a = classical_cohomology(h, bim, top)
        b = cohomology_dims(homogeneous_complex(h, adjoint_module(h, bim), top))
        assert a == b
    assert cohomology_dims(homogeneous_complex(kC(3, GF3), ad_regular(kC(3, GF3)), 4)) \
        == [3, 3, 3, 3]


def test_sigma_sa4_is_signed_swap_on_dual_basis():
    h = kC(3, GF3)
    op = sigma_homogeneous(h, ad_regular(h), 3)
    # swaps slots 0, 1 of four slots; the others stay
    rows, cols, vals = op.sigmas[0].triples()
    src = flat((1, 2, 0, 2), 3) * 3
    dst = flat((2, 1, 0, 2), 3) * 3
    assert rows[cols == src].tolist() == [dst]
    assert vals[cols == src].tolist() == [GF3.neg(GF3.one())]


@pytest.mark.parametrize("mode", ["homogeneous", "nonhomogeneous"])
def test_sigma_coxeter_kc3(mode):
    # the homogeneous realization takes ad M, the nonhomogeneous one M
    h = kC(3, GF3)
    coeffs = ad_regular(h) if mode == "homogeneous" else regular_bimodule(h)
    cpx = COMPLEX[mode](h, coeffs, 4)
    for n in range(1, 5):
        op = SIGMA[mode](h, coeffs, n)
        ok, why = coxeter_relations_hold(op, cpx.spaces[n])
        assert ok, why


def test_sigma_differential_compatibility_on_fixed_vectors():
    # d of an action-fixed cochain is again fixed (checked inside fixed_subcomplex)
    h = kC(3, GF3)
    for mode, coeffs in (("homogeneous", ad_regular(h)),
                         ("nonhomogeneous", regular_bimodule(h))):
        cpx = COMPLEX[mode](h, coeffs, 3)
        ops = [SIGMA[mode](h, coeffs, n) for n in range(4)]
        fixed = fixed_subcomplex(cpx, ops)
        assert check_complex(fixed).passed


def _assert_ambient_matches_reduced(h, n_max):
    """The reduced Hochschild generators equal the ambient ones conjugated
    through F(a_0 tensor x tensor a_last) = a_0 . f(x) . a_last, on the
    trivial and regular bimodules."""
    for bim in (trivial_bimodule(h), regular_bimodule(h)):
        d, m, fld = h.dim, bim.dim, h.field
        for n in range(1, n_max + 1):
            sect, coords = ([], [], []), ([], [], [])
            for tup in all_tuples(d, n + 2):
                row_base = flat(tup, d) * m
                col_base = flat(tup[1:-1], d) * m
                act = (bim.left[tup[0]] @ bim.right[tup[-1]]).to_dense()
                for j in range(m):
                    for j2 in range(m):
                        v = act[j2, j]
                        if v != 0:
                            append_entry(sect, row_base + j2, col_base + j, v)
            unit = h.unit_dict()
            for tup in all_tuples(d, n):
                for u, uc in unit.items():
                    for w, wc in unit.items():
                        for j in range(m):
                            append_entry(coords, flat(tup, d) * m + j,
                                    flat((u,) + tup + (w,), d) * m + j, fld.mul(uc, wc))
            sect = SparseMatrix(fld, m * d ** (n + 2), m * d ** n, sect)
            coords = SparseMatrix(fld, m * d ** n, m * d ** (n + 2), coords)
            assert (coords @ sect).equals_identity()
            reduced = sigma_nonhomogeneous(h, bim, n).sigmas
            ambient = sigma_nonhomogeneous_ambient(h, bim, n).sigmas
            for red, amb in zip(reduced, ambient):
                assert coords @ (amb @ sect) == red


def test_sigma_ambient_matches_reduced_via_free_identification():
    # reduced Hochschild boundary formulas == ambient interior operators conjugated
    # through F(a_0 tensor x tensor a_last) = a_0 . f(x) . a_last
    for h, n_max in [(kC(3, GF3), 3), (kS3(GF5), 2)]:
        _assert_ambient_matches_reduced(h, n_max)


@pytest.mark.parametrize("make", [scrambled_kc3, scrambled_kc2_rational,
                                  lambda: restricted_enveloping(3)],
                         ids=["scrambled-kc3", "scrambled-kc2-q", "u1-gf3"])
def test_sigma_ambient_matches_reduced_without_a_group_basis(make):
    # the same on bases with Sweedler sums; the unit of scrambled kC2 has
    # two coordinates, so the padded outer slots are sums
    _assert_ambient_matches_reduced(make(), 2)


def test_hochschild_phi_psi_inverse_and_intertwining():
    # phi/psi between the realizations of ad A, the coefficients of SHH(A, A);
    # the non-group-like bases stop one degree lower: their Sweedler sums
    # make phi/psi at degree 3 take tens of seconds
    for h, top in ((kC(3, GF3), 3), (kC(2, QQ), 3), (kS3(GF5), 2), (scrambled_kc3(), 2),
                   (scrambled_kc2_rational(), 2)):
        ad = ad_regular(h)
        ck = homogeneous_complex(h, ad, top)
        cc = nonhomogeneous_complex(h, ad, top)
        for n in range(top):
            phi, psi = phi_psi(h, ad, n)
            assert (phi @ psi).equals_identity()
            basis = ck.spaces[n].basis
            assert psi @ (phi @ basis) == basis
            phi1, _ = phi_psi(h, ad, n + 1)
            assert phi1 @ (ck.diffs[n] @ basis) == cc.diffs[n] @ (phi @ basis)
            _, psi1 = phi_psi(h, ad, n + 1)
            assert psi1 @ cc.diffs[n] == ck.diffs[n] @ psi


def test_hochschild_phi_psi_restrict_to_fixed_subspaces():
    h = kC(3, GF3)
    ad = ad_regular(h)
    # built through degree 4, since the top space is kept as it is
    ck = homogeneous_complex(h, ad, 4)
    cc = nonhomogeneous_complex(h, ad, 4)
    ops_k = [sigma_homogeneous(h, ad, n) for n in range(5)]
    ops_c = [sigma_nonhomogeneous(h, ad, n) for n in range(5)]
    fk = fixed_subcomplex(ck, ops_k)
    fc = fixed_subcomplex(cc, ops_c)
    for n in range(1, 4):
        phi, psi = phi_psi(h, ad, n)
        img = phi @ fk.spaces[n].basis
        for s in ops_c[n].sigmas:
            assert s @ img == img
        img = psi @ fc.spaces[n].basis
        for s in ops_k[n].sigmas:
            assert s @ img == img


def test_symmetric_hochschild_kc3_gf3():
    h = kC(3, GF3)
    bim = regular_bimodule(h)
    assert symmetric_cohomology(h, bim, 4) == [3, 3, 3, 0]
    assert nonhomogeneous_symmetric_dims(h, bim, 4) == [3, 3, 3, 0]


def test_symmetric_hochschild_kc3_rational():
    h = kC(3, QQ)
    bim = regular_bimodule(h)
    assert symmetric_cohomology(h, bim, 3) == [3, 0, 0]
    assert nonhomogeneous_symmetric_dims(h, bim, 3) == [3, 0, 0]


def test_shh0_equals_hh0():
    for h in (kC(3, GF3), kS3(GF5)):
        bim = regular_bimodule(h)
        shh = symmetric_cohomology(h, bim, 2)
        hh = classical_cohomology(h, bim, 2)
        assert shh[0] == hh[0] == nonhomogeneous_symmetric_dims(h, bim, 2)[0]


def test_shh_cross_check_realizations():
    h = kC(3, GF3)
    bim = regular_bimodule(h)
    assert symmetric_cohomology(h, bim, 3) == nonhomogeneous_symmetric_dims(h, bim, 3)


def test_compare_adjoint_kc3():
    h = kC(3, GF3)
    shh, sh = compare_adjoint(h, regular_bimodule(h), 3)
    assert shh == sh
    assert shh == [3, 3, 3]
    assert sh == [3, 3, 3]


def test_compare_adjoint_trivial_bimodule():
    h = kC(3, GF3)
    shh, sh = compare_adjoint(h, trivial_bimodule(h), 3)
    assert shh == sh
    assert shh == [1, 1, 1]


def test_commutative_factorization_kc3():
    h = kC(3, GF3)
    shh, sh_scaled = commutative_factorization_check(h, 3)
    assert shh == sh_scaled
    assert shh == [3, 3, 3]
    assert sh_scaled == [3, 3, 3]


def test_commutative_factorization_rational_c2():
    h = kC(2, QQ)
    shh, sh_scaled = commutative_factorization_check(h, 2)
    assert shh == sh_scaled
    assert shh == [2, 0]


def test_commutative_factorization_rejects_s3():
    with pytest.raises(NotCommutative):
        commutative_factorization_check(kS3(GF5), 2)
