import tracemalloc
from math import comb

import pytest

from symcoh.bar import symmetric_cohomology
from symcoh.errors import CharacteristicDivides, InvalidPrime
from symcoh.fields import Field
from symcoh.hochschild import symmetric_hochschild_cohomology
from symcoh.hopf import cyclic_group_table, group_algebra, symmetric_group_table
from symcoh.modules import regular_bimodule, trivial_module
from symcoh.resolution import (coinvariant_space, contracting_homotopy_check,
                               cp_rank_table,
                               hochschild_resolution, sh_via_resolution,
                               shh_via_resolution, splitting_maps,
                               sym_resolution_complex)

GF3 = Field.prime(3)
GF5 = Field.prime(5)
QQ = Field.rationals()


def kC(n, field):
    return group_algebra(n, cyclic_group_table(n), field)


def kS3(field):
    return group_algebra(6, symmetric_group_table(3), field)


# -- coinvariant spaces -------------------------------------------------------


def test_coinvariants_kc3_dims():
    h = kC(3, GF3)
    assert coinvariant_space(h, 0).dim == 3
    assert coinvariant_space(h, 1).dim == 3   # pairs from 3 elements
    assert coinvariant_space(h, 2).dim == 1
    assert coinvariant_space(h, 3).dim == 0   # no strictly increasing 4-tuples


def test_zero_coinvariant_space_allocates_no_ambient_columns():
    # 8 slots over 5 letters have no strictly increasing tuple, so the space
    # is zero; its 0 x 390,625 projection must cost nothing per column
    h = kC(5, GF5)
    tracemalloc.start()
    try:
        space = coinvariant_space(h, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.dim == 0
    assert space.ambient_dim == 5 ** 8
    assert peak < 1 << 20


def test_top_coinvariants_kc3_is_trivial_module():
    h = kC(3, GF3)
    s = coinvariant_space(h, 2)
    assert s.dim == 1
    for i in range(3):
        assert s.module.action[i][0, 0] == h.counit[i]


def test_coinvariants_ks3_dim_is_binomial():
    h = kS3(GF5)
    assert coinvariant_space(h, 2).dim == comb(6, 3) == 20


@pytest.mark.parametrize("make,field,n_max", [
    (lambda f: kC(3, f), GF3, 3),
    (lambda f: kC(3, f), QQ, 3),
    (lambda f: kS3(f), GF5, 2),
    (lambda f: kS3(f), QQ, 1),
])
def test_generic_quotient_agrees_with_fast_path(make, field, n_max):
    h = make(field)
    for n in range(n_max + 1):
        fast = coinvariant_space(h, n)
        generic = coinvariant_space(h, n, force_generic=True)
        assert fast.dim == generic.dim
        # induced actions are conjugate; compare invariant dimension too
        from symcoh.modules import invariants
        assert invariants(h, fast.module).dim == invariants(h, generic.module).dim


def test_char2_falls_back_to_generic_with_warning():
    h = kC(3, Field.prime(2))
    with pytest.warns(UserWarning):
        s = coinvariant_space(h, 1)
    assert not s.fast_path
    # repeated-entry tensors survive in characteristic 2
    assert s.dim == 6


# -- the resolution of k ------------------------------------------------------


@pytest.mark.parametrize("make,field,top", [
    (lambda f: kC(3, f), GF3, 3),
    (lambda f: kC(5, f), GF5, 5),
    (lambda f: kS3(f), GF5, 5),
])
def test_resolution_exactness(make, field, top):
    h = make(field)
    res = sym_resolution_complex(h, top)
    for name, ok in res.exactness_report():
        assert ok, name


def test_kcp_resolution_terminates():
    h = kC(5, GF5)
    res = sym_resolution_complex(h, 6)
    assert res.dims() == [comb(5, n + 1) for n in range(7)]
    assert res.dims()[5] == 0 and res.dims()[6] == 0


def test_contracting_homotopy():
    for h, top in [(kC(3, GF3), 3), (kC(5, GF5), 5), (kS3(QQ), 3)]:
        report = contracting_homotopy_check(h, top)
        assert report.passed, report.degrees


def test_contracting_homotopy_reuses_a_built_resolution():
    h = kS3(GF5)
    res = sym_resolution_complex(h, 3)
    report = contracting_homotopy_check(h, 3, res=res)
    assert report == contracting_homotopy_check(h, 3)
    assert report.passed
    for wrong in (sym_resolution_complex(h, 2), hochschild_resolution(h, 3),
                  sym_resolution_complex(kC(3, GF5), 3)):
        with pytest.raises(ValueError):
            contracting_homotopy_check(h, 3, res=wrong)


def test_sh_via_resolution_kc3():
    h = kC(3, GF3)
    got = sh_via_resolution(h, trivial_module(h), 4)
    assert got.dims == [1, 1, 1, 0]


def test_sh_via_resolution_kc5():
    h = kC(5, GF5)
    got = sh_via_resolution(h, trivial_module(h), 6)
    assert got.dims == [1, 1, 1, 1, 1, 0]


def test_sh_via_resolution_matches_fixed_subcomplex():
    for h in (kC(3, GF3), kC(3, QQ), kS3(GF5)):
        mod = trivial_module(h)
        res_dims = sh_via_resolution(h, mod, 3).dims
        bar_dims = symmetric_cohomology(h, mod, 3).dims
        assert res_dims == bar_dims


def test_euler_characteristic_on_resolution_route_complexes():
    # the Hom complexes of the terminating kC_p resolutions are bounded with
    # vanishing boundary maps at both ends
    from symcoh.complexes import euler_characteristic_consistent
    from symcoh.modules import hom_equivariant
    from symcoh.sparse import SparseMatrix
    from symcoh.complexes import CochainComplex, CochainSpace, _left_inverse_dense
    from symcoh.linalg import Matrix
    from symcoh.modules import kron
    for p, field in ((3, GF3), (5, GF5)):
        h = kC(p, field)
        mod = trivial_module(h)
        res = sym_resolution_complex(h, p)
        spaces, diffs = [], []
        for n in range(p + 1):
            s = res.spaces[n].dim
            sub = hom_equivariant(h, res.spaces[n].module, mod) if s else None
            if sub and sub.dim:
                basis = SparseMatrix.from_dense(sub.basis)
                coords = SparseMatrix.from_dense(_left_inverse_dense(sub.basis))
            else:
                basis = SparseMatrix(field, mod.dim * s, 0)
                coords = SparseMatrix(field, 0, mod.dim * s)
            spaces.append(CochainSpace(mod.dim * s, basis, coords, check=False))
        for n in range(p):
            diffs.append(SparseMatrix.from_dense(
                kron(res.boundaries[n + 1].transpose(), Matrix.identity(field, mod.dim))))
        cpx = CochainComplex(field, p, spaces, diffs)
        assert euler_characteristic_consistent(cpx)


def test_homspace_dims_equal_fixed_subspace_dims():
    # the isomorphism KS^n = Hom_A(coinvariants, M), degreewise
    from symcoh.bar import homogeneous_complex, sigma_homogeneous
    from symcoh.complexes import fixed_subcomplex
    from symcoh.modules import hom_equivariant
    h = kC(3, GF3)
    mod = trivial_module(h)
    cpx = homogeneous_complex(h, mod, 3)
    ops = [sigma_homogeneous(h, mod, n, space=cpx.spaces[n]) for n in range(4)]
    fixed = fixed_subcomplex(cpx, ops)
    res = sym_resolution_complex(h, 3)
    for n in range(4):
        hom_dim = hom_equivariant(h, res.spaces[n].module, mod).dim
        assert hom_dim == fixed.spaces[n].dim


# -- the bimodule resolution --------------------------------------------------


def test_bimodule_coinvariants_kc3_dims():
    h = kC(3, GF3)
    res = hochschild_resolution(h, 2)
    assert res.dims() == [9, 9, 3]
    for name, ok in res.factorization_checks:
        assert ok, name


def test_bimodule_resolution_exactness():
    for h, top in [(kC(3, GF3), 3), (kC(5, GF5), 5), (kS3(GF5), 4)]:
        res = hochschild_resolution(h, top)
        for name, ok in res.exactness_report():
            assert ok, name


def test_bimodule_coinvariants_generic_agrees():
    h = kC(3, GF3)
    for n in (0, 1, 2):
        fast = coinvariant_space(h, n, tail=1)
        generic = coinvariant_space(h, n, force_generic=True, tail=1)
        assert fast.dim == generic.dim


def test_shh_via_resolution_matches_fixed_subcomplex():
    h = kC(3, GF3)
    bim = regular_bimodule(h)
    res_dims = shh_via_resolution(h, bim, 3).dims
    bar_dims = symmetric_hochschild_cohomology(h, bim, 3).dims
    assert res_dims == bar_dims == [3, 3, 3]


# -- splitting maps -----------------------------------------------------------


def test_splitting_kc5():
    h = kC(5, GF5)
    for n in (1, 2, 3):
        report = splitting_maps(h, n)
        assert report.retract_ok and report.equivariant_ok


def test_splitting_characteristic_divides():
    with pytest.raises(CharacteristicDivides):
        splitting_maps(kC(5, GF5), 4)
    with pytest.raises(CharacteristicDivides):
        splitting_maps(kC(3, GF3), 2)


def test_splitting_rational_s3():
    h = kS3(QQ)
    for n in (1, 2, 3):
        report = splitting_maps(h, n)
        assert report.retract_ok and report.equivariant_ok


# -- the cyclic rank table ------------------------------------------------------


def test_cp_rank_table_p3():
    rows = cp_rank_table(3)
    assert len(rows) == 1
    assert (rows[0].n, rows[0].rank, rows[0].is_free) == (1, 1, True)


def test_cp_rank_table_p5():
    rows = cp_rank_table(5)
    assert [r.rank for r in rows] == [2, 2, 1]
    assert all(r.is_free for r in rows)
    assert all(r.rank == r.claimed_rank == comb(5, r.n + 1) // 5 for r in rows)


def test_cp_rank_table_p7():
    rows = cp_rank_table(7)
    assert [r.rank for r in rows] == [3, 5, 5, 3, 1]
    assert all(r.is_free for r in rows)
    assert all(r.dim == comb(7, r.n + 1) for r in rows)


def test_cp_rank_table_rejects_bad_primes():
    with pytest.raises(InvalidPrime):
        cp_rank_table(4)
    with pytest.raises(InvalidPrime):
        cp_rank_table(2)
