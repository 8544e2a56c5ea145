"""The acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All arithmetic is exact, so every comparison is equality; the
stated runtime ceilings are asserted where given.
"""

import time
from math import comb

import pytest

from symcoh.bar import (classical_cohomology, nonhomogeneous_symmetric_dims, sigma_homogeneous, sigma_nonhomogeneous,
                        symmetric_cohomology)
from symcoh.complexes import induced_map_on_cohomology
from symcoh.errors import CharacteristicDivides, NotCommutative
from symcoh.fields import Field
from symcoh.hochschild import commutative_factorization_check, compare_adjoint
from symcoh.hopf import (HopfAlgebra, cyclic_group_table, group_algebra,
                         symmetric_group_table, validate_hopf)
from symcoh.linalg import Matrix
from symcoh.modules import adjoint_module, regular_bimodule, trivial_module
from symcoh.resolution import (contracting_homotopy_check, cp_rank_table,
                               sh_via_resolution, splitting_maps,
                               sym_resolution_complex)

from oracles import (check_complex, coxeter_relations_hold, fixed_subcomplex, homogeneous_complex,
                     maschke_cohomology_dims, nonhomogeneous_complex, periodic_cyclic_cohomology_dims, phi_psi)

GF3 = Field.prime(3)
GF5 = Field.prime(5)
GF7 = Field.prime(7)
QQ = Field.rationals()


def kC(n, field):
    return group_algebra(n, cyclic_group_table(n), field)


def kS3(field):
    return group_algebra(6, symmetric_group_table(3), field)


def report(number, text):
    print(f"[acceptance] criterion {number:>2}: PASS  {text}")


def test_criterion_01_hopf_validation():
    start = time.monotonic()
    tables = [cyclic_group_table(3), cyclic_group_table(5), cyclic_group_table(7),
              symmetric_group_table(3)]
    for table in tables:
        for field in (GF3, GF5, GF7, QQ):
            h = group_algebra(len(table), table, field)
            rep = validate_hopf(h, require_cocommutative=True)
            assert rep.passed, rep.failures()
            assert (h.antipode @ h.antipode) == Matrix.identity(field, h.dim)
    # five single-entry mutations of the C_3 antipode, each caught with a witness
    h = kC(3, GF3)
    mutations = [(0, 1), (1, 1), (2, 0), (1, 2), (2, 2)]
    for (i, j) in mutations:
        bad = Matrix(GF3, h.antipode.data.copy())
        bad._set(i, j, GF3.add(bad[i, j], GF3.one()))
        broken = HopfAlgebra(GF3, 3, h.basis_labels, h.mult, h.unit, h.comult,
                             h.counit, bad)
        rep = validate_hopf(broken, require_cocommutative=True)
        assert not rep.passed
        assert any(c.witness is not None for c in rep.failures())
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"16 group-algebra validations + 5 antipode mutations ({elapsed:.2f}s)")


def test_criterion_02_complex_property():
    start = time.monotonic()
    cases = []
    for h, top in [(kC(3, GF3), 5), (kS3(GF5), 3)]:
        triv = trivial_module(h)
        reg = regular_bimodule(h)
        cases.append(("C", nonhomogeneous_complex(h, triv, top)))
        cases.append(("K", homogeneous_complex(h, triv, top)))
        cases.append(("C(A)", nonhomogeneous_complex(h, reg, top)))
        cases.append(("K(ad A)", homogeneous_complex(h, adjoint_module(h, reg), top)))
    for name, cpx in cases:
        rep = check_complex(cpx)
        assert rep.passed, (name, rep.first_failure, rep.reason)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report(2, f"d.d = 0 for all four families, kC3 deg<=5 and kS3 deg<=3 ({elapsed:.2f}s)")


def test_criterion_03_coxeter_suite():
    start = time.monotonic()
    for h, top in [(kC(3, GF3), 4), (kS3(GF5), 3)]:
        triv = trivial_module(h)
        reg = regular_bimodule(h)
        ad = adjoint_module(h, reg)
        bar_c = nonhomogeneous_complex(h, triv, top)
        bar_k = homogeneous_complex(h, triv, top)
        hoch_c = nonhomogeneous_complex(h, reg, top)
        hoch_k = homogeneous_complex(h, ad, top)
        families = [
            ("bar-standard", bar_c,
             [sigma_nonhomogeneous(h, triv, n) for n in range(top + 1)]),
            ("bar-homogeneous", bar_k,
             [sigma_homogeneous(h, triv, n) for n in range(top + 1)]),
            ("hochschild-standard", hoch_c,
             [sigma_nonhomogeneous(h, reg, n) for n in range(top + 1)]),
            ("adjoint-homogeneous", hoch_k,
             [sigma_homogeneous(h, ad, n) for n in range(top + 1)]),
        ]
        for name, cpx, ops in families:
            for n in range(1, top + 1):
                ok, why = coxeter_relations_hold(ops[n], cpx.spaces[n])
                assert ok, (name, n, why)
            # differentials preserve the fixed subspaces (checked inside)
            fixed = fixed_subcomplex(cpx, ops)
            assert check_complex(fixed).passed, name
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report(3, f"Coxeter relations + differential compatibility, all four actions ({elapsed:.2f}s)")


def test_criterion_04_realization_isomorphisms():
    h = kC(3, GF3)
    triv = trivial_module(h)
    bar_k = homogeneous_complex(h, triv, 5)
    bar_c = nonhomogeneous_complex(h, triv, 5)
    for n in range(5):
        phi, psi = phi_psi(h, triv, n)
        assert (phi @ psi).equals_identity()
        basis = bar_k.spaces[n].basis
        assert psi @ (phi @ basis) == basis
        if n < 4:
            phi1, _ = phi_psi(h, triv, n + 1)
            assert phi1 @ (bar_k.diffs[n] @ basis) == bar_c.diffs[n] @ (phi @ basis)
            _, psi1 = phi_psi(h, triv, n + 1)
            assert psi1 @ bar_c.diffs[n] == bar_k.diffs[n] @ psi
    # CS <-> KS restriction through degree 4
    ops_k = [sigma_homogeneous(h, triv, n) for n in range(6)]
    ops_c = [sigma_nonhomogeneous(h, triv, n) for n in range(6)]
    fixed_k = fixed_subcomplex(bar_k, ops_k)
    fixed_c = fixed_subcomplex(bar_c, ops_c)
    for n in range(1, 5):
        phi, psi = phi_psi(h, triv, n)
        assert fixed_k.spaces[n].dim == fixed_c.spaces[n].dim
        img = phi @ fixed_k.spaces[n].basis
        for s in ops_c[n]:
            assert s @ img == img
        img = psi @ fixed_c.spaces[n].basis
        for s in ops_k[n]:
            assert s @ img == img
    # the coefficients ad A of SHH(A, A) through degree 3, built through
    # degree 4, since the top space is kept as it is
    reg = regular_bimodule(h)
    ad = adjoint_module(h, reg)
    hk = homogeneous_complex(h, ad, 4)
    hc = nonhomogeneous_complex(h, ad, 4)
    for n in range(3):
        phi, psi = phi_psi(h, ad, n)
        assert (phi @ psi).equals_identity()
        basis = hk.spaces[n].basis
        assert psi @ (phi @ basis) == basis
        phi1, _ = phi_psi(h, ad, n + 1)
        assert phi1 @ (hk.diffs[n] @ basis) == hc.diffs[n] @ (phi @ basis)
        _, psi1 = phi_psi(h, ad, n + 1)
        assert psi1 @ hc.diffs[n] == hk.diffs[n] @ psi
    ops_hk = [sigma_homogeneous(h, ad, n) for n in range(5)]
    ops_hc = [sigma_nonhomogeneous(h, ad, n) for n in range(5)]
    fixed_hk = fixed_subcomplex(hk, ops_hk)
    fixed_hc = fixed_subcomplex(hc, ops_hc)
    # the fixed Hochschild cochains of A itself, of the same dimensions
    fixed_a = fixed_subcomplex(nonhomogeneous_complex(h, reg, 4),
                               [sigma_nonhomogeneous(h, reg, n) for n in range(5)])
    for n in range(1, 4):
        phi, psi = phi_psi(h, ad, n)
        assert fixed_hk.spaces[n].dim == fixed_hc.spaces[n].dim == fixed_a.spaces[n].dim
        img = phi @ fixed_hk.spaces[n].basis
        for s in ops_hc[n]:
            assert s @ img == img
        img = psi @ fixed_hc.spaces[n].basis
        for s in ops_hk[n]:
            assert s @ img == img
    report(4, "phi/psi inverse pairs, intertwining, CS<->KS restriction (+ad A)")


def test_criterion_05_kcp_tables():
    start = time.monotonic()
    h3 = kC(3, GF3)
    assert symmetric_cohomology(h3, trivial_module(h3), 5) == [1, 1, 1, 0, 0]
    h5 = kC(5, GF5)
    assert sh_via_resolution(h5, trivial_module(h5), 7) == [1, 1, 1, 1, 1, 0, 0]
    # classical H: the periodic-resolution oracle gives 1 in every degree,
    # and the bar route reproduces it where it fits the budget
    for h, deep in ((h3, 6), (h5, 6)):
        oracle = periodic_cyclic_cohomology_dims(h, trivial_module(h), deep)
        assert oracle == [1] * (deep + 1)
    assert classical_cohomology(h3, trivial_module(h3), 5) == [1] * 5
    assert classical_cohomology(h5, trivial_module(h5), 4) == [1] * 4
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report(5, f"SH(kC3)=[1,1,1,0,0], SH(kC5)=[1,1,1,1,1,0,0], H=1 everywhere ({elapsed:.2f}s)")


def test_criterion_06_cp_rank_table():
    start = time.monotonic()
    expected = {3: [1], 5: [2, 2, 1], 7: [3, 5, 5, 3, 1]}
    for p, ranks in expected.items():
        rows = cp_rank_table(kC(p, Field.prime(p)), p)
        assert [r.rank for r in rows] == ranks
        assert all(r.rank == comb(p, r.n + 1) // p for r in rows)
        assert all(r.is_free for r in rows)
        assert all(r.dim == comb(p, r.n + 1) for r in rows)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report(6, f"free-rank certificates for p=3,5,7 ({elapsed:.2f}s)")


def test_criterion_07_splitting_maps():
    for n in (1, 2, 3):
        rep = splitting_maps(kC(5, GF5), n)
        assert rep.retract_ok and rep.equivariant_ok
    rep = splitting_maps(kC(3, GF3), 1)
    assert rep.retract_ok and rep.equivariant_ok
    for n in (1, 2, 3):
        rep = splitting_maps(kS3(QQ), n)
        assert rep.retract_ok and rep.equivariant_ok
    with pytest.raises(CharacteristicDivides):
        splitting_maps(kC(5, GF5), 4)
    with pytest.raises(CharacteristicDivides):
        splitting_maps(kC(3, GF3), 2)
    report(7, "retract + equivariance certificates; characteristic guard")


def test_criterion_08_adjoint_comparison():
    shh, sh = compare_adjoint(kC(3, GF3), regular_bimodule(kC(3, GF3)), 3)
    assert shh == sh
    assert shh == [3, 3, 3]
    assert sh == [3, 3, 3]
    h = kS3(GF5)
    shh, sh = compare_adjoint(h, regular_bimodule(h), 3)
    assert shh == sh, (shh, sh)
    report(8, f"SHH = SH(adjoint) for kC3 ([3,3,3]) and kS3 ({shh})")


def test_criterion_09_commutative_factorization():
    shh, sh_scaled = commutative_factorization_check(kC(3, GF3), 3)
    assert shh == sh_scaled
    assert shh == [3, 3, 3] and sh_scaled == [3, 3, 3]
    shh, sh_scaled = commutative_factorization_check(kC(5, GF5), 4, route="resolution")
    assert shh == sh_scaled
    assert shh == [5, 5, 5, 5]
    assert sh_scaled == [5, 5, 5, 5]
    with pytest.raises(NotCommutative):
        commutative_factorization_check(kS3(GF5), 2)
    report(9, "SHH(A,A) = dim A * SH(A,k) for kC3, kC5; kS3 rejected")


def test_criterion_10_low_degree_maps():
    for h in (kC(3, GF3), kC(5, GF5), kS3(GF5)):
        triv = trivial_module(h)
        cpx = homogeneous_complex(h, triv, 3)
        ops = [sigma_homogeneous(h, triv, n) for n in range(4)]
        fixed = fixed_subcomplex(cpx, ops)
        rep = induced_map_on_cohomology(cpx.diffs, fixed.spaces, cpx.spaces)
        m1 = rep.matrix(1)
        assert m1.rows == m1.cols and rep.is_injective(1)
        assert rep.is_injective(2)
    report(10, "H^1 induced map is an isomorphism, H^2 injective (3 algebras)")


def test_criterion_11_char0_collapse():
    for make, top in ((lambda: kC(3, QQ), 5), (lambda: kS3(QQ), 5)):
        h = make()
        triv = trivial_module(h)
        oracle = maschke_cohomology_dims(h, triv, top - 1)
        assert oracle == [1] + [0] * (top - 1)
        hdims = classical_cohomology(h, triv, top)
        if h.dim == 3:
            sh = symmetric_cohomology(h, triv, top)
            sh_res = sh_via_resolution(h, triv, top)
            assert sh == sh_res
        else:
            sh = sh_via_resolution(h, triv, top)
        assert hdims == sh == oracle
    report(11, "SH = H = [1,0,0,0,0] over Q for kC3 and kS3, degrees 0..4")


def test_criterion_12_route_consistency():
    cases = [
        (kC(3, GF3), 5, "bar+res"),
        (kC(5, GF5), 4, "bar+res"),
        (kS3(GF5), 3, "bar+res"),
        (kC(3, QQ), 4, "bar+res"),
    ]
    for h, top, _ in cases:
        triv = trivial_module(h)
        fixed_route = symmetric_cohomology(h, triv, top)
        res_route = sh_via_resolution(h, triv, top)
        assert fixed_route == res_route, (h, fixed_route, res_route)
    # SHH as SH(A, ad M) on both routes, and on the nonhomogeneous
    # realization of the bimodule itself
    for h, top in [(kC(3, GF3), 3), (kS3(GF5), 3)]:
        bim = regular_bimodule(h)
        fixed_route = symmetric_cohomology(h, bim, top)
        res_route = sh_via_resolution(h, bim, top)
        assert fixed_route == res_route == nonhomogeneous_symmetric_dims(h, bim, top)
    report(12, "fixed-subcomplex and resolution routes agree for SH and SHH")


def test_criterion_13_exactness():
    for h, top in [(kC(3, GF3), 4), (kC(5, GF5), 6), (kS3(GF5), 5)]:
        res = sym_resolution_complex(h, top)
        for name, ok in res.exactness_report():
            assert ok, name
        assert all(ok for _n, ok in contracting_homotopy_check(res))
    report(13, "augmented coinvariant complex exact; contracting homotopy holds")
