import tracemalloc
import warnings
from math import comb

import pytest

from symcoh.bar import nonhomogeneous_symmetric_dims, symmetric_cohomology
from symcoh.errors import CharacteristicDivides, InvalidPrime, SchemaError
from symcoh.fields import Field
from symcoh.hopf import cyclic_group_table, group_algebra, symmetric_group_table
from symcoh.linalg import rank
from symcoh.sparse import SparseMatrix, kron
from symcoh.modules import (LeftModule, adjoint_module, hom_equivariant, regular_bimodule,
                            trivial_module, validate_module)
from symcoh.resolution import (coinvariant_space, contracting_homotopy_check,
                               cp_rank_table, sh_via_resolution, splitting_maps,
                               sym_resolution_complex)

from oracles import (coinvariant_quotient, cp_orbit_walk, diagonal_action,
                     sorted_tuple_projection, splitting_oracle, vstack)
from restricted import restricted_enveloping
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
    assert coinvariant_space(h, 0, []).dim == 3
    assert coinvariant_space(h, 1, []).dim == 3   # pairs from 3 elements
    assert coinvariant_space(h, 2, []).dim == 1
    assert coinvariant_space(h, 3, []).dim == 0   # no strictly increasing 4-tuples


def test_zero_coinvariant_space_allocates_no_ambient_columns():
    # 8 slots over 5 letters have no strictly increasing tuple, so the space
    # is zero; its projection and section are 0 x 0, not 0 x 5^8
    h = kC(5, GF5)
    tracemalloc.start()
    try:
        space = coinvariant_space(h, 7, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.dim == 0
    assert space.ambient_dim == 0
    assert peak < 1 << 20


@pytest.mark.parametrize("make", [lambda: kC(3, GF3), lambda: kC(5, GF5), lambda: kS3(GF5),
                                  lambda: kS3(QQ), lambda: kS3(Field.prime(2))],
                         ids=["kC3-GF3", "kC5-GF5", "kS3-GF5", "kS3-Q", "kS3-GF2"])
def test_projection_matches_the_ambient_sort(make):
    # the labels times the signed permutations of their slots, against the
    # sort of every ambient tuple
    h = make()
    for n in range(5):
        space = coinvariant_space(h, n, [])
        if not space.dim:
            assert (space.projection.rows, space.projection.cols) == (0, 0)
            continue
        assert space.projection == sorted_tuple_projection(h.field, h.dim, n + 1)


def _traced_peak(build):
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_resolution_is_built_on_the_support_of_the_projection():
    # S_5 of kS3 has 6 basis elements and its projection 720 nonzeros, on
    # 6^6 ambient tuples; the checked resolution forms no ambient-sized array
    res, peak = _traced_peak(lambda: sym_resolution_complex(kS3(QQ), 5))
    assert res.dims() == [6, 15, 20, 15, 6, 1]
    assert peak < 6 << 20


def test_cp_rank_table_is_built_on_the_support_of_the_projection():
    # S_5 of kC11 has 462 basis elements and 332,640 projection nonzeros
    # on 11^6 = 1,771,561 ambient tuples
    rows, peak = _traced_peak(lambda: cp_rank_table(kC(11, Field.prime(11)), 5))
    assert [r.dim for r in rows] == [comb(11, n + 1) for n in range(1, 6)]
    assert all(r.is_free for r in rows)
    assert peak < 120 << 20


def test_top_coinvariants_kc3_is_trivial_module():
    h = kC(3, GF3)
    s = coinvariant_space(h, 2, [])
    assert s.dim == 1
    for i in range(3):
        assert s.module.action[i].to_dense()[0, 0] == h.counit[i]


def test_coinvariants_ks3_dim_is_binomial():
    h = kS3(GF5)
    assert coinvariant_space(h, 2, []).dim == comb(6, 3) == 20


def _assert_matches_quotient_oracle(h, n):
    """The sorted-tuple space has the dimension and the kernel of the
    elimination quotient; returns it with the oracle's (projection, section)."""
    fast = coinvariant_space(h, n, [])
    proj, sect = coinvariant_quotient(h, n)
    assert fast.dim == proj.rows
    if not fast.dim:  # a vanishing degree has 0 x 0 projection and section
        assert fast.ambient_dim == 0
        return fast, proj, sect
    # equal kernels: the rows of both projections span the same space
    assert rank(vstack(h.field, [fast.projection.to_dense(), proj])) == fast.dim
    return fast, proj, sect


def _oracle_module(h, fast, proj, sect):
    """The diagonal action induced on the oracle's quotient."""
    return LeftModule(proj.rows, [
        SparseMatrix.from_dense(proj @ diagonal_action(h, g, fast.slots).to_dense() @ sect)
        for g in range(h.dim)])


def _same_invariants(h, fast, proj, sect):
    """The induced actions are conjugate, so their invariants agree."""
    k = trivial_module(h)
    return hom_equivariant(h, k, fast.module).dim == \
        hom_equivariant(h, k, _oracle_module(h, fast, proj, sect)).dim


def _same_hom_into_adjoint(h, fast, proj, sect):
    """The induced actions are conjugate, so their Hom spaces into ad A,
    the Hom solve of SHH with the regular bimodule, agree."""
    ad = adjoint_module(h, regular_bimodule(h))
    return hom_equivariant(h, fast.module, ad).dim == \
        hom_equivariant(h, _oracle_module(h, fast, proj, sect), ad).dim


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
        assert _same_invariants(h, *_assert_matches_quotient_oracle(h, n))


@pytest.mark.parametrize("order,table", [(2, cyclic_group_table(2)),
                                         (3, cyclic_group_table(3)),
                                         (6, symmetric_group_table(3))])
@pytest.mark.parametrize("adjoint", [0, 1])
def test_char2_coinvariants_match_quotient_oracle(order, table, adjoint):
    # the induced actions compared by their invariants (adjoint 0) or by
    # their Hom spaces into ad A (adjoint 1)
    h = group_algebra(order, table, Field.prime(2))
    same = _same_hom_into_adjoint if adjoint else _same_invariants
    for n in range(3):
        oracle = _assert_matches_quotient_oracle(h, n)
        assert oracle[0].dim == comb(order + n, n + 1)
        assert same(h, *oracle)


def test_char2_coinvariants_are_symmetric_powers():
    h = kC(3, Field.prime(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = coinvariant_space(h, 1, [])
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


def test_exactness_report_charges_the_dense_rank_budget(monkeypatch):
    # kC3 over GF(5): S_0, S_1, S_2 have dims 3, 3, 1, so the dual of d_1 is 3 x 3
    from symcoh import complexes
    from symcoh.errors import BudgetExceeded
    res = sym_resolution_complex(kC(3, GF5), 2)
    monkeypatch.setattr(complexes, "DENSE_RANK_CELLS", 8)
    with pytest.raises(BudgetExceeded, match="3 x 3"):
        res.exactness_report()


def test_exactness_report_over_q_certifies_ranks_without_fraction_elimination(monkeypatch):
    from symcoh import complexes, resolution
    fields = []

    def spy(m):
        fields.append(m.field)
        return rank(m)

    res = sym_resolution_complex(kS3(QQ), 4)
    monkeypatch.setattr(complexes, "rank", spy)
    monkeypatch.setattr(resolution, "rank", spy)
    checks = res.exactness_report()
    assert [name for name, _ok in checks] == ["onto_k"] + [f"exact_at_{n}" for n in range(4)]
    assert all(ok for _name, ok in checks)
    assert fields and not any(f.is_rational for f in fields)


def test_resolution_route_forms_each_level_of_the_tensor_power_once(monkeypatch, capsys):
    # u(k^2) has dimension 5 and no group basis.  Its highest nonzero
    # degree, 4, is built first: it forms levels 1..4 whole (one call each)
    # and level 5 one element at a time (five calls), and the smaller
    # degrees read those levels.  Rebuilding them at every degree took 35.
    import pathlib
    from symcoh import cli, modules, tensors
    calls = []
    real = modules.tensor_actions
    counted = lambda *args: calls.append(args) or real(*args)  # noqa: E731
    monkeypatch.setattr(modules, "tensor_actions", counted)
    monkeypatch.setattr(tensors, "tensor_actions", counted)
    algebra = pathlib.Path(__file__).with_name("golden") / "algebras" / "u1-gf5.json"
    assert cli.main(["--algebra", str(algebra), "--mode", "SH", "--module", "regular",
                     "--route", "resolution", "--max-degree", "5", "--format", "json"]) == 0
    assert '"dims":[1,0,0,0,0]' in capsys.readouterr().out
    assert len(calls) == 9


def test_kcp_resolution_terminates():
    h = kC(5, GF5)
    res = sym_resolution_complex(h, 6)
    assert res.dims() == [comb(5, n + 1) for n in range(7)]
    assert res.dims()[5] == 0 and res.dims()[6] == 0


def test_contracting_homotopy():
    for h, top in [(kC(3, GF3), 3), (kC(5, GF5), 5), (kS3(QQ), 3)]:
        degrees = contracting_homotopy_check(sym_resolution_complex(h, top))
        assert all(ok for _n, ok in degrees), degrees


def test_contracting_homotopy_reuses_a_built_resolution(monkeypatch):
    # the homotopy is assembled on the spaces of the resolution it is given
    from symcoh import resolution
    res = sym_resolution_complex(kS3(GF5), 3)
    monkeypatch.setattr(resolution, "coinvariant_space", None)
    degrees = contracting_homotopy_check(res)
    assert all(ok for _n, ok in degrees)
    assert [n for n, _ok in degrees] == [0, 1, 2]


def test_sh_via_resolution_kc3():
    h = kC(3, GF3)
    assert sh_via_resolution(h, trivial_module(h), 4) == [1, 1, 1, 0]


def test_sh_via_resolution_kc5():
    h = kC(5, GF5)
    assert sh_via_resolution(h, trivial_module(h), 6) == [1, 1, 1, 1, 1, 0]


def test_sh_via_resolution_matches_fixed_subcomplex():
    for h in (kC(3, GF3), kC(3, QQ), kS3(GF5)):
        mod = trivial_module(h)
        res_dims = sh_via_resolution(h, mod, 3)
        bar_dims = symmetric_cohomology(h, mod, 3)
        assert res_dims == bar_dims


def test_hom_differentials_are_the_sparse_precomposition(monkeypatch):
    # the Hom complex's differentials are kron(boundary^T, I_m) triple for
    # triple, now built sparse from the boundary
    from symcoh import resolution
    from symcoh.modules import regular_left_module
    built = []
    real = resolution.cohomology_dims
    monkeypatch.setattr(resolution, "cohomology_dims",
                        lambda c: built.append(c) or real(c))
    top = 3
    for h in (kC(3, GF3), kC(3, QQ), kS3(GF5)):
        for mod in (trivial_module(h), regular_left_module(h), regular_bimodule(h)):
            sh_via_resolution(h, mod, top)
            res = sym_resolution_complex(h, top)
            eye = SparseMatrix.identity(h.field, mod.dim)
            for n in range(top):
                want = kron(res.boundaries[n + 1].transpose(), eye)
                got = built[-1].diffs[n]
                assert (got.rows, got.cols) == (want.rows, want.cols)
                for a, b in zip(got.triples(), want.triples()):
                    assert a.tolist() == b.tolist()


def test_euler_characteristic_on_resolution_route_complexes():
    # the Hom complexes of the terminating kC_p resolutions are bounded with
    # vanishing boundary maps at both ends
    from oracles import euler_characteristic_consistent
    from symcoh.modules import hom_equivariant
    from symcoh.complexes import CochainComplex, CochainSpace
    for p, field in ((3, GF3), (5, GF5)):
        h = kC(p, field)
        mod = trivial_module(h)
        res = sym_resolution_complex(h, p)
        spaces, diffs = [], []
        for n in range(p + 1):
            s = res.spaces[n].dim
            sub = hom_equivariant(h, res.spaces[n].module, mod) if s else None
            if sub and sub.dim:
                space = CochainSpace.of(sub)
                basis, coords = space.basis, space.coords
            else:
                basis = SparseMatrix(field, mod.dim * s, 0)
                coords = SparseMatrix(field, 0, mod.dim * s)
            spaces.append(CochainSpace(mod.dim * s, basis, coords))
        for n in range(p):
            diffs.append(kron(res.boundaries[n + 1].transpose(),
                              SparseMatrix.identity(field, mod.dim)))
        cpx = CochainComplex(field, p, spaces, diffs)
        assert euler_characteristic_consistent(cpx)


def test_homspace_dims_equal_fixed_subspace_dims():
    # the isomorphism KS^n = Hom_A(coinvariants, M), degreewise
    from symcoh.bar import homogeneous_complex, sigma_homogeneous
    from symcoh.complexes import fixed_subcomplex
    from symcoh.modules import hom_equivariant
    h = kC(3, GF3)
    mod = trivial_module(h)
    # built through degree 4, since the top space is kept as it is
    cpx = homogeneous_complex(h, mod, 4)
    ops = [sigma_homogeneous(h, mod, n) for n in range(5)]
    fixed = fixed_subcomplex(cpx, ops)
    res = sym_resolution_complex(h, 3)
    for n in range(4):
        hom_dim = hom_equivariant(h, res.spaces[n].module, mod).dim
        assert hom_dim == fixed.spaces[n].dim


# -- SHH on the resolution route ----------------------------------------------


def test_shh_via_resolution_matches_fixed_subcomplex():
    # SH(A, ad M) out of the resolution of k against the fixed subcomplex of
    # the nonhomogeneous realization of the bimodule M itself
    for h, top, dims in ((kC(3, GF3), 3, [3, 3, 3]), (kS3(GF5), 3, [3, 0, 0]),
                         (scrambled_kc3(), 3, [3, 3, 3])):
        bim = regular_bimodule(h)
        res_dims = sh_via_resolution(h, bim, top)
        bar_dims = nonhomogeneous_symmetric_dims(h, bim, top)
        assert res_dims == bar_dims == dims


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


SPLITTING_ALGEBRAS = {
    "kC3-GF5": lambda: kC(3, GF5),
    "kC3-Q": lambda: kC(3, QQ),
    "kS3-GF5": lambda: kS3(GF5),
    "kS3-Q": lambda: kS3(QQ),
    "scrambled-kC3": scrambled_kc3,
    "u1-gf5": lambda: restricted_enveloping(5),
}


@pytest.mark.parametrize("name", SPLITTING_ALGEBRAS)
def test_splitting_maps_equal_the_ambient_oracle(name):
    # phi read off the descent check on the support of P and psi read
    # through P's binary-search column map, against the face map over every
    # ambient tuple and the projection of the lift, at each n = 1..3 where
    # the characteristic does not divide n+1 (kC3 vanishes at n = 3)
    h = SPLITTING_ALGEBRAS[name]()
    p = h.field.characteristic
    degrees = [n for n in (1, 2, 3) if not p or (n + 1) % p]
    assert degrees
    for n in degrees:
        report = splitting_maps(h, n)
        phi, psi = splitting_oracle(h, n)
        assert report.phi == phi and report.psi == psi, n
        assert report.retract_ok and report.equivariant_ok


def test_resolution_self_checks_and_splitting_form_no_dense_product(monkeypatch):
    # the module axioms, descent and splitting checks compare sparse
    # composites; no dense product is formed before a rank
    from symcoh import linalg
    calls = []
    for name in ("_matmul_prime", "_matmul_rational"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda *args, real=real: calls.append(args) or real(*args))
    for field in (GF5, QQ):
        h = kS3(field)
        assert sym_resolution_complex(h, 3).dims() == [6, 15, 20, 15]
        validate_module(h, adjoint_module(h, regular_bimodule(h)))
    for n in (1, 2, 3):
        report = splitting_maps(kS3(GF5), n)
        assert report.retract_ok and report.equivariant_ok
    assert calls == []


# -- the cyclic rank table ------------------------------------------------------


def cp_table(p):
    return cp_rank_table(kC(p, Field.prime(p)), p)


def test_cp_rank_table_p3():
    rows = cp_table(3)
    assert len(rows) == 1
    assert (rows[0].n, rows[0].rank, rows[0].is_free) == (1, 1, True)


def test_cp_rank_table_p5():
    rows = cp_table(5)
    assert [r.rank for r in rows] == [2, 2, 1]
    assert all(r.is_free for r in rows)
    assert all(r.rank == r.claimed_rank == comb(5, r.n + 1) // 5 for r in rows)


def test_cp_rank_table_p7():
    rows = cp_table(7)
    assert [r.rank for r in rows] == [3, 5, 5, 3, 1]
    assert all(r.is_free for r in rows)
    assert all(r.dim == comb(7, r.n + 1) for r in rows)


def test_cp_rank_table_rejects_bad_primes():
    # a field other than GF(p), or p = 2
    for h in (kC(4, Field.prime(2)), kC(3, GF5), kC(3, QQ), kC(2, Field.prime(2))):
        with pytest.raises(InvalidPrime):
            cp_rank_table(h, 3)
    # anything but a cyclic group algebra
    for h in (kS3(GF3), scrambled_kc3()):
        with pytest.raises(SchemaError):
            cp_rank_table(h, 3)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cp_rank_table_matches_the_orbit_walk(p):
    # the rank of the norm element against generators kept one per orbit
    # and certified to span freely
    rows = cp_table(p)
    assert [(r.rank, r.is_free) for r in rows] == \
        [cp_orbit_walk(p, n) for n in range(1, p - 1)]


def test_resolution_ambient_is_refused_before_any_degree_is_built(monkeypatch):
    # degree 9 of kC11 lives on 11^10 ambient coordinates; nothing is built
    from symcoh import resolution
    from symcoh.errors import BudgetExceeded
    monkeypatch.setattr(resolution, "coinvariant_space", None)
    for build in (lambda: cp_rank_table(kC(11, Field.prime(11)), 9),
                  lambda: sym_resolution_complex(kC(11, Field.prime(11)), 9)):
        with pytest.raises(BudgetExceeded, match="11\\^10 = 25937424601 ambient"):
            build()
    monkeypatch.undo()
    # the degrees past the last nonzero space are not counted: S_20 of kC3
    # would live on 3^21 coordinates, but it is zero and builds nothing
    assert sym_resolution_complex(kC(3, GF3), 20).dims() == [3, 3, 1] + [0] * 18
