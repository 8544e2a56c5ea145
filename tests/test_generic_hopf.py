"""End-to-end runs on structure constants with no group-like basis.

A change of basis on a group algebra produces an honest cocommutative
Hopf algebra that the group fast paths cannot recognize, so the diagonal
actions are dense Sweedler contractions instead of permutations, in the
equivariant bases, the induced actions on the coinvariants and the
Sweedler expansions of the standard complex; the answers must match the
group-basis ones because cohomology is basis-independent.  The
equivariant spaces are also compared with the dense solve of the
equivariance equations in `oracles`.
"""

from symcoh.bar import equivariant_space, nonhomogeneous_symmetric_dims, symmetric_cohomology
from symcoh.fields import Field
from symcoh.hochschild import compare_adjoint
from symcoh.hopf import HopfAlgebra, cyclic_group_table, group_algebra, validate_hopf
from symcoh.linalg import Matrix, inverse
from symcoh.modules import adjoint_module, regular_bimodule, trivial_module
from symcoh.resolution import (contracting_homotopy_check, sh_via_resolution,
                               splitting_maps, sym_resolution_complex)

from oracles import contains, equivariant_solve

GF3 = Field.prime(3)
QQ = Field.rationals()


def change_basis(h: HopfAlgebra, p: Matrix) -> HopfAlgebra:
    """The same Hopf algebra on the basis given by the columns of p."""
    fld = h.field
    d = h.dim
    pinv = inverse(p)

    def new_coords(vec: dict) -> dict:
        out = {}
        for a, c in vec.items():
            for i in range(d):
                v = pinv[i, a]
                if v != 0:
                    out[i] = fld.add(out.get(i, fld.zero()), fld.mul(v, c))
        return {k: v for k, v in out.items() if v != 0}

    cols = [{a: p[a, i] for a in range(d) if p[a, i] != 0} for i in range(d)]
    mult = [[new_coords(h.product(cols[i], cols[j])) for j in range(d)]
            for i in range(d)]
    unit = [fld.zero()] * d
    for i, v in new_coords(h.unit_dict()).items():
        unit[i] = v
    comult = []
    for i in range(d):
        cm: dict = {}
        for a, c in cols[i].items():
            for (x, y), e in h.comult[a].items():
                ce = fld.mul(c, e)
                for u in range(d):
                    pux = pinv[u, x]
                    if pux == 0:
                        continue
                    for v in range(d):
                        pvy = pinv[v, y]
                        if pvy == 0:
                            continue
                        key = (u, v)
                        cm[key] = fld.add(cm.get(key, fld.zero()),
                                          fld.mul(ce, fld.mul(pux, pvy)))
        comult.append({k: v for k, v in cm.items() if v != 0})
    counit = []
    for i in range(d):
        total = fld.zero()
        for a, c in cols[i].items():
            total = fld.add(total, fld.mul(c, h.counit[a]))
        counit.append(total)
    antipode = (pinv @ h.antipode) @ p
    labels = [f"c{i}" for i in range(d)]
    return HopfAlgebra(fld, d, labels, mult, unit, comult, counit, antipode)


def scrambled_kc3(field: Field = GF3):
    h = group_algebra(3, cyclic_group_table(3), field)
    p = Matrix.from_rows(field, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    return change_basis(h, p)


def scrambled_kc2_rational():
    h = group_algebra(2, cyclic_group_table(2), QQ)
    p = Matrix.from_rows(QQ, [[1, 2], [1, 3]])
    return change_basis(h, p)


def dense_kc11():
    """kC11 on a basis with 461 comultiplication constants (Delta tensor
    Delta would have 212,521 entries): every entry of the unitriangular
    basis change above the diagonal is nonzero."""
    field = Field.prime(11)
    p = Matrix.from_rows(field, [[(i * j + 1) % 11 if j > i else int(i == j)
                                  for j in range(11)] for i in range(11)])
    return change_basis(group_algebra(11, cyclic_group_table(11), field), p)


def test_scrambled_is_valid_cocommutative_not_group_like():
    for g in (scrambled_kc3(), scrambled_kc2_rational(), dense_kc11()):
        assert not g.group_like
        assert g.is_cocommutative
        report = validate_hopf(g, require_cocommutative=True)
        assert report.passed, report.failures()


def _assert_equivariant_spaces_match_oracle(g, mod, top):
    """Every space of the homogeneous complex through degree top is the
    space the dense solve finds."""
    for slots in range(1, top + 2):
        closed = equivariant_space(g, mod, slots, [])
        oracle = equivariant_solve(g, mod, slots)
        assert closed.dim == oracle.dim
        assert contains(oracle, closed.basis)


def test_scrambled_symmetric_cohomology_matches_group_basis():
    g = scrambled_kc3()
    triv = trivial_module(g)
    dims = symmetric_cohomology(g, triv, 3)
    assert dims == [1, 1, 1]
    assert nonhomogeneous_symmetric_dims(g, triv, 3) == dims
    _assert_equivariant_spaces_match_oracle(g, triv, 3)


def test_scrambled_resolution_route():
    g = scrambled_kc3()
    assert sh_via_resolution(g, trivial_module(g), 3) == [1, 1, 1]
    res = sym_resolution_complex(g, 3)
    for name, ok in res.exactness_report():
        assert ok, name
    assert res.dims() == [3, 3, 1, 0]
    assert all(ok for _n, ok in contracting_homotopy_check(res))


def _assert_shh_routes(g, bim, top, dims):
    """SHH as SH(A, ad M) on both routes, against the nonhomogeneous
    realization of M itself and against the dense solve of ad M's
    equivariant spaces."""
    assert symmetric_cohomology(g, bim, top) == nonhomogeneous_symmetric_dims(g, bim, top) \
        == dims
    assert sh_via_resolution(g, bim, top) == dims
    _assert_equivariant_spaces_match_oracle(g, adjoint_module(g, bim), top)


def test_scrambled_hochschild():
    g = scrambled_kc3()
    bim = regular_bimodule(g)
    _assert_shh_routes(g, bim, 2, [3, 3])
    shh, sh = compare_adjoint(g, bim, 2)
    assert shh == sh


def test_scrambled_splitting():
    rep = splitting_maps(scrambled_kc3(), 1)
    assert rep.retract_ok and rep.equivariant_ok


def test_scrambled_rational_full_stack():
    g = scrambled_kc2_rational()
    triv = trivial_module(g)
    dims = symmetric_cohomology(g, triv, 3)
    assert dims == [1, 0, 0]
    assert nonhomogeneous_symmetric_dims(g, triv, 3) == dims
    _assert_equivariant_spaces_match_oracle(g, triv, 3)
    assert sh_via_resolution(g, triv, 3) == [1, 0, 0]
    _assert_shh_routes(g, regular_bimodule(g), 2, [2, 0])
    for n in (1, 2):
        sp = splitting_maps(g, n)
        assert sp.retract_ok and sp.equivariant_ok


def test_diagonal_action_is_exact_with_large_structure_constants():
    # a basis change with entries near p/2 gives kC3 over GF(3037000493)
    # structure constants spread over [0, p), so a sum of three products
    # near (p-1)^2 is past int64 unless each term is reduced before it is
    # added: in the kron terms of a tensor level and in summing them
    from oracles import all_columns, diagonal_action as oracle_diagonal_action
    from symcoh.sparse import apply_columns, canonical
    from symcoh.tensors import diagonal_columns
    f = Field.prime(3037000493)
    h = change_basis(group_algebra(3, cyclic_group_table(3), f),
                     Matrix.from_rows(f, [[1, 1518500247, 7], [0, 1, 1518500249], [0, 0, 1]]))
    assert max(c for row in h.mult for cell in row for c in cell.values()) > 1 << 31
    for slots in (1, 2, 3):
        for b, transposed in zip(range(h.dim), diagonal_columns(h, range(h.dim), slots, [])):
            got = canonical(f, *apply_columns(f, transposed, all_columns(h.dim ** slots)),
                            shape=(h.dim ** slots,) * 2)
            assert [a.tolist() for a in got] == \
                [a.tolist() for a in oracle_diagonal_action(h, b, slots).transpose().triples()]
