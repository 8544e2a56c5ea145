from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcoh import complexes
from oracles import (CochainComplex, check_complex, euler_characteristic_consistent, field_id,
                     space_dims)
from symcoh.complexes import (DENSE_RANK_CELLS, CochainSpace, cohomology_dims, fixed_cohomology,
                              fixed_degrees, induced_map_on_cohomology, read_in)
from symcoh.errors import (ActionLeavesSubspace, ActionNotCompatible, BudgetExceeded,
                           NotASubcomplex)
from symcoh.fields import Field
from symcoh.linalg import Matrix, intersect_kernels, rank
from symcoh.sparse import SparseMatrix

GF3 = Field.prime(3)
QQ = Field.rationals()


def full_complex(field, dims, diff_rows):
    spaces = [CochainSpace.full(field, d) for d in dims]
    diffs = [SparseMatrix.from_dense(Matrix.from_rows(field, rows))
             for rows in diff_rows]
    return CochainComplex(field, len(dims) - 1, spaces, diffs)


def toy():
    # 0 -> k -> k^2 -> k -> 0 with d1 d0 = 0
    return full_complex(GF3, [1, 2, 1], [[[1], [0]], [[0, 1]]])


def test_check_complex_zero_complex():
    c = full_complex(QQ, [2, 2], [[[0, 0], [0, 0]]])
    assert check_complex(c).passed


def test_check_complex_toy_passes():
    assert check_complex(toy()).passed


def test_check_complex_detects_corruption():
    c = toy()
    c.diffs[1] = c.diffs[1] + SparseMatrix(GF3, 1, 2, ([0], [0], [GF3.one()]))  # now d1 d0 != 0
    report = check_complex(c)
    assert not report.passed
    assert report.first_failure == 0


def test_cohomology_dims_toy():
    assert cohomology_dims(toy().diffs) == [0, 0]


def test_cohomology_dims_zero_complex():
    assert cohomology_dims([SparseMatrix(QQ, 0, 0), SparseMatrix(QQ, 0, 0)]) == [0, 0]
    assert cohomology_dims([]) == []


def test_cohomology_dims_rejects_negative_dimension():
    # d1 d0 = 1 != 0, so the rank count gives H^1 = 1 - 1 - 1 = -1
    c = full_complex(GF3, [1, 1, 1], [[[1]], [[1]]])
    with pytest.raises(AssertionError, match="negative dimension"):
        cohomology_dims(c.diffs)


@pytest.mark.parametrize("field", [GF3, QQ], ids=["GF3", "Q"])
def test_cohomology_dims_refuses_differentials_that_do_not_compose(field):
    # k -> k^2 -> k^3 would be ranked, but the second map takes k^3: the
    # degree-1 space has no one dimension to read off the shapes
    first, second = SparseMatrix(field, 2, 1), SparseMatrix(field, 1, 3)
    assert cohomology_dims([first, SparseMatrix(field, 1, 2)]) == [1, 2]
    with pytest.raises(ValueError, match="do not compose: 2 rows against 3 columns"):
        cohomology_dims([first, second])


def fixed_subcomplex(c, ops):
    """The fixed subcomplex that `fixed_degrees` yields for the whole
    complex c with a list of generators per degree, its ambient differentials
    kept: each image is the differential applied to the fixed space."""
    degrees = fixed_degrees(c.field, c.spaces[::-1], lambda n: ops[n],
                            lambda n, fixed: c.diffs[n] if fixed.is_full
                            else c.diffs[n] @ fixed.basis)
    return CochainComplex(c.field, c.top_degree, [space for space, _diff in degrees], c.diffs)


def test_fixed_subcomplex_identity_ops_unchanged():
    c = toy()
    eye = lambda n: SparseMatrix.identity(GF3, n)
    ops = [[],
           [eye(2)],
           [eye(1)]]
    fixed = fixed_subcomplex(c, ops)
    assert space_dims(fixed) == [1, 2, 1]


def test_fixed_subcomplex_degree0_untouched():
    c = toy()
    ops = [[], [], []]
    fixed = fixed_subcomplex(c, ops)
    assert space_dims(fixed) == space_dims(c)


def test_fixed_subcomplex_negation_kills_space():
    field = QQ
    spaces = [CochainSpace.full(field, d) for d in (1, 2, 1)]
    diffs = [SparseMatrix(field, 2, 1), SparseMatrix(field, 1, 2)]  # zero differentials
    c = CochainComplex(field, 2, spaces, diffs)
    minus = SparseMatrix(field, 2, 2, ([0, 1], [0, 1], [field.from_int(-1)] * 2))
    fixed = fixed_subcomplex(c, [[], [minus],
                                 []])
    assert space_dims(fixed) == [1, 0, 1]
    assert cohomology_dims(fixed.restricted_diffs()) == [1, 0]


def _top_two_complex(field, top_space):
    """0 -> k -> k -> top_space with zero differentials."""
    spaces = [CochainSpace.full(field, 1), CochainSpace.full(field, 1), top_space]
    diffs = [SparseMatrix(field, 1, 1), SparseMatrix(field, top_space.ambient_dim, 1)]
    return CochainComplex(field, 2, spaces, diffs)


def test_fixed_subcomplex_keeps_the_top_space_and_certifies_its_generators():
    field = QQ
    minus = SparseMatrix(field, 2, 2, ([0, 1], [0, 1], [field.from_int(-1)] * 2))
    ops = [[], [], [minus]]
    # the top space is only the target of the last differential: -1 fixes
    # none of it, and it is kept whole
    c = _top_two_complex(field, CochainSpace.full(field, 2))
    fixed = fixed_subcomplex(c, ops)
    assert space_dims(fixed) == [1, 1, 2]
    assert fixed.spaces[2] is c.spaces[2]
    assert cohomology_dims(fixed.restricted_diffs()) == [1, 1]
    # a top generator that does not preserve a proper top subspace is refused
    line = CochainSpace(SparseMatrix(field, 2, 1, ([0], [0], None)),
                        SparseMatrix(field, 1, 2, ([0], [0], None)))
    swap = SparseMatrix(field, 2, 2, ([1, 0], [0, 1], None))
    with pytest.raises(ActionLeavesSubspace):
        fixed_subcomplex(_top_two_complex(field, line), ops[:2] + [[swap]])


def test_restrict_operator_returns_an_operator_on_a_full_space_without_a_product(monkeypatch):
    field = GF3
    swap = SparseMatrix(field, 2, 2, ([1, 0], [0, 1], None))
    products = []
    matmul = SparseMatrix.__matmul__
    monkeypatch.setattr(SparseMatrix, "__matmul__",
                        lambda a, b: products.append(b) or matmul(a, b))
    assert complexes.restrict_operator(CochainSpace.full(field, 2), swap) is swap
    assert products == []
    # a proper subspace that the operator leaves is still refused
    line = CochainSpace(SparseMatrix(field, 2, 1, ([0], [0], None)),
                        SparseMatrix(field, 1, 2, ([0], [0], None)))
    with pytest.raises(ActionLeavesSubspace):
        complexes.restrict_operator(line, swap)
    assert products


def test_fixed_subcomplex_takes_the_fixed_points_of_a_full_space_without_a_product(monkeypatch):
    # every degree of the nonhomogeneous realization is a full space, whose
    # coordinates are the ambient ones: its fixed points are taken as they
    # are, and no product is formed with its identity basis or coords
    from symcoh.bar import nonhomogeneous_degrees, sigma_nonhomogeneous
    from symcoh.hopf import cyclic_group_table, group_algebra
    from symcoh.modules import trivial_module
    h = group_algebra(3, cyclic_group_table(3), GF3)
    mod = trivial_module(h)
    products = []
    matmul = SparseMatrix.__matmul__
    monkeypatch.setattr(SparseMatrix, "__matmul__",
                        lambda a, b: products.append((a, b)) or matmul(a, b))
    degrees = list(nonhomogeneous_degrees(h, mod, 3, lambda n: sigma_nonhomogeneous(h, mod, n)))
    assert products
    assert not any(x.rows == x.cols and x.equals_identity() for pair in products for x in pair)
    assert [space.dim for space, _diff in degrees] == [1, 1, 1, 27]
    assert degrees[-1][0].is_full
    assert fixed_cohomology(iter(degrees)) == [1, 1, 1]


def test_fixed_subcomplex_incompatible_raises():
    field = QQ
    spaces = [CochainSpace.full(field, 1), CochainSpace.full(field, 1)]
    diffs = [SparseMatrix.from_dense(Matrix.from_rows(field, [[1]]))]
    c = CochainComplex(field, 1, spaces, diffs)
    minus = SparseMatrix(field, 1, 1, ([0], [0], [field.from_int(-1)]))
    # degree-0 space is all fixed (no generators), but d maps it to non-fixed vectors
    with pytest.raises(ActionNotCompatible):
        fixed_subcomplex(c, [[], [minus]])


def test_read_in_certifies_that_the_image_lies_in_the_space():
    line = CochainSpace(SparseMatrix(GF3, 2, 1, ([0], [0], None)),
                        SparseMatrix(GF3, 1, 2, ([0], [0], None)))
    assert read_in(line, SparseMatrix(GF3, 2, 1, ([0], [0], [2]))) == \
        SparseMatrix(GF3, 1, 1, ([0], [0], [2]))
    e1 = SparseMatrix(GF3, 2, 1, ([1], [0], None))
    with pytest.raises(ActionLeavesSubspace):
        read_in(line, e1)
    # a full space's coordinates are the ambient ones
    assert read_in(CochainSpace.full(GF3, 2), e1) is e1


def test_fixed_degrees_refuses_a_differential_image_outside_the_space():
    # degree 1 is the line of e_0 in GF(3)^2, and the differential sends
    # degree 0 to e_1, which no generator moves: read off the coords alone
    # it is 0, and H^0 would come out 1; read in, it is refused
    line = CochainSpace(SparseMatrix(GF3, 2, 1, ([0], [0], None)),
                        SparseMatrix(GF3, 1, 2, ([0], [0], None)))
    e1 = SparseMatrix(GF3, 2, 1, ([1], [0], None))
    degrees = fixed_degrees(GF3, [line, CochainSpace.full(GF3, 1)], lambda n: [],
                            lambda n, fixed: e1)
    with pytest.raises(ActionLeavesSubspace):
        fixed_cohomology(degrees)


def test_sh_via_resolution_refuses_a_hom_space_that_a_precomposition_leaves(monkeypatch):
    # kC3 on its regular module: the degree-0 differential has rank 2, so a
    # degree-1 Hom space cut down to nothing is left by its image
    from symcoh import resolution
    from symcoh.hopf import cyclic_group_table, group_algebra
    from symcoh.modules import regular_left_module
    h = group_algebra(3, cyclic_group_table(3), GF3)
    mod = regular_left_module(h)
    assert resolution.sh_via_resolution(h, mod, 2) == [1, 0]
    real, calls = resolution.hom_equivariant, []

    def cut(h, x, m):
        calls.append(x.dim)
        basis = real(h, x, m)
        return Matrix(basis.field, basis.data[:, :0]) if len(calls) == 2 else basis

    monkeypatch.setattr(resolution, "hom_equivariant", cut)
    with pytest.raises(ActionLeavesSubspace):
        resolution.sh_via_resolution(h, mod, 2)
    assert len(calls) == 3


def test_induced_map_sub_equals_full_is_identity():
    c = toy()
    report = induced_map_on_cohomology(c.diffs, c.spaces, c.spaces)
    for n, mat in zip(report.degrees, report.matrices):
        assert mat == Matrix.identity(GF3, mat.rows)
        assert report.is_injective(n)


def test_induced_map_rejects_mismatched():
    c = toy()
    other = full_complex(GF3, [1, 2, 2], [[[1], [0]], [[0, 1], [0, 0]]])
    with pytest.raises(NotASubcomplex):
        induced_map_on_cohomology(c.diffs, c.spaces, other.spaces)


def test_euler_characteristic_consistency():
    assert euler_characteristic_consistent(toy())


@pytest.mark.parametrize("field", [GF3, QQ], ids=["GF3", "Q"])
def test_cohomology_dims_refuses_an_oversized_dense_rank(field):
    # zero differentials between spaces too large to densify: refused from
    # the dimensions alone, before any dense matrix exists
    side = 1 << 13  # side * side = 4 * DENSE_RANK_CELLS
    assert side * side > DENSE_RANK_CELLS
    diffs = [SparseMatrix(field, side, 1), SparseMatrix(field, side, side)]
    assert cohomology_dims(diffs[:1]) == [1]
    with pytest.raises(BudgetExceeded):
        cohomology_dims(diffs)


def _rank_one_near_2_to_30():
    """An 8 x 2 matrix over Q of rank 1: column 1 is twice column 0, whose
    entries are near 2^30."""
    big = [(1 << 30) + 7 + i for i in range(8)]
    return SparseMatrix(QQ, 8, 2, (list(range(8)) * 2, [0] * 8 + [1] * 8,
                                   [QQ.from_int(v) for v in big + [2 * v for v in big]]))


def test_sandwich_rank_certificate_survives_entries_near_2_to_30():
    # the Gram entries are sums of products near 2^61, which wrap in int64
    # unless reduced mod the prime
    sm = _rank_one_near_2_to_30()
    assert complexes._certified_rational_rank(sm, upper=2) == 1
    assert complexes._certified_rational_rank(sm, upper=1) == 1


def test_an_uncertified_rational_rank_tries_one_modular_rank_before_the_exact_one(monkeypatch):
    # rank 1 against upper = 2: the Gram rank mod one prime falls short,
    # and the Fraction elimination answers; no other modular rank is tried
    sm = _rank_one_near_2_to_30()
    fields = []

    def spy(m):
        fields.append(m.field)
        return rank(m)

    monkeypatch.setattr(complexes, "rank", spy)
    assert complexes._certified_rational_rank(sm, upper=2) == 1
    assert fields == [Field.prime(complexes._SANDWICH_PRIME), QQ]


# -- fixed spaces of monomial generators as orbits -------------------------

ORBIT_FIELDS = [Field.prime(2), GF3, Field.prime(5), QQ]


@st.composite
def _monomial_generators(draw, field):
    """Monomial operators g e_j = c_j e_(perm j): each c_j is a unit ratio
    u[perm j] / u[j], which keeps the orbit's fixed vector u, times a sign
    or, now and then, an arbitrary unit, which can make the orbit vanish."""
    dim = draw(st.integers(0, 9))
    units = ([Fraction(a, b) for a in (1, -1, 2, -3) for b in (1, 2, 5)] if field.is_rational
             else list(range(1, field.p)))
    u = [draw(st.sampled_from(units)) for _ in range(dim)]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        perm = draw(st.permutations(range(dim)))
        vals = []
        for j in range(dim):
            twist = draw(st.sampled_from([1, 1, 1, -1, None]))
            twist = draw(st.sampled_from(units)) if twist is None else twist
            ratio = field.mul(field.parse(u[perm[j]]), field.inv(field.parse(u[j])))
            vals.append(field.mul(ratio, field.parse(twist)))
        gens.append(SparseMatrix(field, dim, dim, (np.array(perm, dtype=np.int64),
                                                   np.arange(dim, dtype=np.int64),
                                                   field.array(vals).reshape(-1))))
    return dim, gens


@pytest.mark.parametrize("field", ORBIT_FIELDS, ids=field_id)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_orbit_fixed_space_is_the_reduced_common_kernel(field, data):
    dim, gens = data.draw(_monomial_generators(field))
    eye = SparseMatrix.identity(field, dim)
    want = CochainSpace.of(intersect_kernels(field, dim, [g - eye for g in gens]))
    got = complexes._orbit_fixed_space(field, dim, [complexes._monomial(g) for g in gens])
    assert got.basis == want.basis
    assert got.coords == want.coords


def _assert_free_coordinate_selector(space):
    """coords has one entry per row, 1, at the last nonzero row of its basis column."""
    rows, cols, vals = space.coords.triples()
    assert sorted(rows.tolist()) == list(range(space.dim))
    assert all(v == 1 for v in vals.tolist())
    b_rows, b_cols, _ = space.basis.triples()
    last = [int(b_rows[b_cols == k].max()) for k in range(space.dim)]
    assert [c for _r, c in sorted(zip(rows.tolist(), cols.tolist()))] == last


@pytest.mark.parametrize("field", ORBIT_FIELDS, ids=field_id)
def test_of_reads_the_free_coordinates_of_a_reduced_basis(field):
    rng = np.random.default_rng(7)
    dim = 9
    for count in (1, 2, 3):
        # sparse random constraints, so kernel columns have entries above their free row
        ops = []
        for _ in range(count):
            dense = rng.integers(-2, 3, size=(3, dim)) * (rng.random((3, dim)) < 0.5)
            ops.append(SparseMatrix.from_dense(Matrix.from_rows(
                field, [[field.from_int(int(x)) for x in row] for row in dense])))
        space = CochainSpace.of(intersect_kernels(field, dim, ops))
        assert 0 < space.dim < dim and space.basis.nnz() > space.dim
        _assert_free_coordinate_selector(space)


def test_of_refuses_a_basis_that_is_not_reduced():
    basis = Matrix.from_rows(GF3, [[1, 1], [0, 1]])  # column 1 is not 0 at row 1
    with pytest.raises(ValueError, match="not reduced"):
        CochainSpace.of(basis)


@pytest.mark.parametrize("field", ORBIT_FIELDS, ids=field_id)
def test_orbit_fixed_space_keeps_consistent_orbits_and_drops_the_rest(field):
    # orbits {0, 2} (fixed vector e_0 + c e_2), {1, 3} (-1 one way and 1
    # back: none, outside characteristic 2) and {4} (fixed)
    c = field.from_int(2 if field.characteristic != 2 else 1)
    vals = [c, field.from_int(-1), field.inv(c), field.one(), field.one()]
    g = SparseMatrix(field, 5, 5, ([2, 3, 0, 1, 4], list(range(5)), vals))
    fixed = complexes._orbit_fixed_space(field, 5, [complexes._monomial(g)])
    orbits = [[0, 2], [1, 3], [4]] if field.characteristic == 2 else [[0, 2], [4]]
    assert fixed.dim == len(orbits)
    # 1 at each orbit's largest index, columns in the order of that index
    for col, orbit in enumerate(orbits):
        assert fixed.basis.to_dense()[orbit[-1], col] == 1
    assert (fixed.coords @ fixed.basis).equals_identity()
    _assert_free_coordinate_selector(fixed)
    assert g @ fixed.basis == fixed.basis


def test_monomial_recognizes_signed_permutations_only():
    rows = [1, 0, 2]
    assert complexes._monomial(SparseMatrix(GF3, 3, 3, (rows, [0, 1, 2], [2, 1, 1]))) is not None
    for triples in (([1, 0, 2, 0], [0, 1, 2, 2], [1] * 4),  # two entries in column 2
                    ([1, 0], [0, 1], [1, 1]),  # column 2 is zero
                    ([1, 1, 2], [0, 1, 2], [1] * 3)):  # rows not a permutation
        assert complexes._monomial(SparseMatrix(GF3, 3, 3, triples)) is None


def test_fixed_space_falls_back_to_the_common_kernel_off_monomials(monkeypatch):
    calls = []
    real = complexes.intersect_kernels

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(complexes, "intersect_kernels", counting)
    space = CochainSpace.full(GF3, 3)
    swap = SparseMatrix(GF3, 3, 3, ([1, 0, 2], [0, 1, 2], [1, 1, 1]))
    assert complexes._fixed_space(GF3, space, [swap]).dim == 2
    assert calls == []
    # e_0 -> e_0 + e_1 is not monomial: the dense common kernel answers
    shear = SparseMatrix(GF3, 3, 3, ([0, 1, 1, 2], [0, 0, 1, 2], [1, 1, 1, 1]))
    fixed = complexes._fixed_space(GF3, space, [swap, shear])
    assert calls == [3]
    eye = SparseMatrix.identity(GF3, 3)
    want = CochainSpace.of(real(GF3, 3, [swap - eye, shear - eye]))
    assert (fixed.basis, fixed.coords) == (want.basis, want.coords)
    # a fixed space that is everything keeps the space
    assert complexes._fixed_space(GF3, space, [eye]) is space
