import tracemalloc
import warnings
from math import comb

import pytest

from symcoh.bar import symmetric_cohomology
from symcoh.errors import CharacteristicDivides, InvalidPrime
from symcoh.fields import Field
from symcoh.hochschild import symmetric_hochschild_cohomology
from symcoh.hopf import cyclic_group_table, group_algebra, symmetric_group_table
from symcoh.linalg import Matrix, rank
from symcoh.modules import LeftModule, invariants, regular_bimodule, trivial_module
from symcoh.resolution import (coinvariant_space, contracting_homotopy_check,
                               cp_rank_table,
                               hochschild_resolution, sh_via_resolution,
                               shh_via_resolution, splitting_maps,
                               sym_resolution_complex)

from oracles import (coinvariant_quotient, cp_orbit_walk, diagonal_action,
                     right_multiplication, vstack)
from symcoh.tensors import bar_chain_diff, flat
from test_generic_hopf import scrambled_kc2_rational, scrambled_kc3

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
    # is zero; its projection and section are 0 x 0, not 0 x 5^8
    h = kC(5, GF5)
    tracemalloc.start()
    try:
        space = coinvariant_space(h, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.dim == 0
    assert space.ambient_dim == 0
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


def _space(h, n, tail, check=True):
    """The degree-n space of the plain resolution, or with tail 1 of the
    bimodule resolution."""
    if not tail:
        return coinvariant_space(h, n, check=check)
    return hochschild_resolution(h, n, check=check).spaces[n]


def _assert_matches_quotient_oracle(h, n, tail, check=True):
    """The sorted-tuple space has the dimension and the kernel of the
    elimination quotient; returns it with the oracle's (projection, section)."""
    fast = _space(h, n, tail, check)
    proj, sect = coinvariant_quotient(h, n, tail)
    assert fast.dim == proj.rows
    if not fast.dim:  # a vanishing degree has 0 x 0 projection and section
        assert fast.ambient_dim == 0
        return fast, proj, sect
    # equal kernels: the rows of both projections span the same space
    assert rank(vstack(h.field, [fast.projection.to_dense(), proj])) == fast.dim
    return fast, proj, sect


def _same_invariants(h, fast, proj, sect):
    """The induced actions are conjugate, so their invariants agree."""
    generic = LeftModule(proj.rows, [proj @ diagonal_action(h, g, fast.slots).to_dense() @ sect
                                     for g in range(h.dim)])
    return invariants(h, fast.module).dim == invariants(h, generic).dim


@pytest.mark.parametrize("make,field,n_max", [
    (lambda f: kC(3, f), GF3, 3),
    (lambda f: kC(3, f), QQ, 3),
    (lambda f: kS3(f), GF5, 2),
    (lambda f: kS3(f), QQ, 1),
    (scrambled_kc3, GF3, 3),
    (lambda f: scrambled_kc2_rational(), QQ, 2),
])
def test_generic_quotient_agrees_with_fast_path(make, field, n_max):
    h = make(field)
    for n in range(n_max + 1):
        assert _same_invariants(h, *_assert_matches_quotient_oracle(h, n, 0))


@pytest.mark.parametrize("order,table", [(2, cyclic_group_table(2)),
                                         (3, cyclic_group_table(3)),
                                         (6, symmetric_group_table(3))])
@pytest.mark.parametrize("tail", [0, 1])
def test_char2_coinvariants_match_quotient_oracle(order, table, tail):
    h = group_algebra(order, table, Field.prime(2))
    for n in range(3):
        # the self-checks of kS3 at n = 2 with a tail multiply dense 336 x 336
        # matrices a hundred times (8 s)
        oracle = _assert_matches_quotient_oracle(h, n, tail, check=order ** (n + 1 + tail) < 1000)
        assert oracle[0].dim == comb(order + n, n + 1) * order ** tail
        if not tail:
            assert _same_invariants(h, *oracle)


def test_char2_coinvariants_are_symmetric_powers():
    h = kC(3, Field.prime(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = coinvariant_space(h, 1)
    # repeated-entry tensors survive in characteristic 2: Sym^2 of k^3
    assert s.dim == 6
    assert s.basis_labels == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


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


def test_exactness_report_certifies_top_degree_only_when_next_space_vanishes():
    # at top 0 the space S_1 is not built: degree 0 is certified only when
    # S_1 is zero (the trivial group), once
    assert sym_resolution_complex(kC(3, GF3), 0).exactness_report() == [("onto_k", True)]
    trivial = group_algebra(1, [[0]], GF3)
    assert sym_resolution_complex(trivial, 0).exactness_report() == \
        [("onto_k", True), ("exact_at_0", True)]


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


def test_hom_differentials_are_the_sparse_precomposition(monkeypatch):
    # the Hom complex's differentials are kron(boundary^T, I_m) triple for
    # triple, now built sparse from the boundary
    from symcoh import resolution
    from symcoh.modules import kron, regular_left_module
    from symcoh.sparse import SparseMatrix
    built = []
    real = resolution.cohomology_dims
    monkeypatch.setattr(resolution, "cohomology_dims",
                        lambda c, up_to: built.append(c) or real(c, up_to))
    top = 3
    for h in (kC(3, GF3), kC(3, QQ), kS3(GF5)):
        for mod in (trivial_module(h), regular_left_module(h), regular_bimodule(h)):
            sh_via_resolution(h, mod, top)
            res = sym_resolution_complex(h, top, check=False, tail=mod.tail)
            eye = Matrix.identity(h.field, mod.dim)
            for n in range(top):
                want = SparseMatrix.from_dense(kron(res.boundaries[n + 1].transpose(), eye))
                got = built[-1].diffs[n]
                assert (got.rows, got.cols) == (want.rows, want.cols)
                for a, b in zip(got.triples(), want.triples()):
                    assert a.tolist() == b.tolist()


def test_euler_characteristic_on_resolution_route_complexes():
    # the Hom complexes of the terminating kC_p resolutions are bounded with
    # vanishing boundary maps at both ends
    from oracles import euler_characteristic_consistent
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
    assert [s.ambient_dim for s in res.spaces] == [9, 27, 81]


def test_bimodule_resolution_exactness():
    for h, top in [(kC(3, GF3), 3), (kC(5, GF5), 5), (kS3(GF5), 4)]:
        res = hochschild_resolution(h, top)
        for name, ok in res.exactness_report():
            assert ok, name


def test_bimodule_coinvariants_generic_agrees():
    # S_n tensor A against the quotient of A^(tensor n+2) by elimination:
    # the same kernel, and the oracle's diagonal action, right
    # multiplication in the last slot and tail-1 chain map, each carried to
    # the oracle's basis, are the derived bimodule's matrices
    cases = [(kC(3, GF3), 2), (kS3(GF5), 1), (kC(2, Field.prime(2)), 2),
             (scrambled_kc3(), 2), (scrambled_kc2_rational(), 2)]
    for h, top in cases:
        res = hochschild_resolution(h, top)
        projs, changes = [], []
        for n, fast in enumerate(res.spaces):
            proj = coinvariant_quotient(h, n, 1)[0]
            section = fast.section.to_dense()
            assert fast.dim == proj.rows
            if not fast.dim:  # 0 x 0 projection and section from here on
                assert fast.ambient_dim == 0
                break
            assert rank(vstack(h.field, [fast.projection.to_dense(), proj])) == fast.dim
            assert (fast.projection @ fast.section).equals_identity()
            assert fast.section.triples()[0].tolist() == \
                [flat(lab, h.dim) for lab in fast.basis_labels]
            # the oracle basis of each derived basis vector
            change = proj @ section
            for g in range(h.dim):
                left = diagonal_action(h, g, n + 2).to_dense()
                right = right_multiplication(h, g, n + 2).to_dense()
                assert proj @ left @ section == change @ fast.module.left[g]
                assert proj @ right @ section == change @ fast.module.right[g]
            chain = bar_chain_diff(h, n, 1).to_dense()
            if n:
                assert projs[-1] @ chain @ section == changes[-1] @ res.boundaries[n]
            else:
                assert chain @ section == res.augmentation
            projs.append(proj)
            changes.append(change)


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


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cp_rank_table_matches_the_orbit_walk(p):
    # the rank of the norm element against generators kept one per orbit
    # and certified to span freely
    rows = cp_rank_table(p)
    assert [(r.rank, r.is_free) for r in rows] == \
        [cp_orbit_walk(p, n) for n in range(1, p - 1)]


def test_resolution_ambient_is_refused_before_any_degree_is_built(monkeypatch):
    # degree 9 of kC11 lives on 11^10 ambient coordinates; nothing is built
    from symcoh import resolution
    from symcoh.errors import BudgetExceeded
    monkeypatch.setattr(resolution, "coinvariant_space", None)
    for build in (lambda: cp_rank_table(11, n_max=9),
                  lambda: sym_resolution_complex(kC(11, Field.prime(11)), 9)):
        with pytest.raises(BudgetExceeded, match="11\\^10 = 25937424601 ambient"):
            build()
    monkeypatch.undo()
    # the degrees past the last nonzero space are not counted: S_20 of kC3
    # would live on 3^21 coordinates, but it is zero and builds nothing
    assert sym_resolution_complex(kC(3, GF3), 20).dims() == [3, 3, 1] + [0] * 18
