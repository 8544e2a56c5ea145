import pytest

from symcoh import complexes
from symcoh.complexes import (DENSE_RANK_CELLS, ActionOperator, CochainComplex,
                              CochainSpace, check_complex, cohomology_dims,
                              euler_characteristic_consistent,
                              fixed_subcomplex, induced_map_on_cohomology)
from symcoh.errors import (ActionNotCompatible, BudgetExceeded, DegreeOutOfRange,
                           NotASubcomplex)
from symcoh.fields import Field
from symcoh.linalg import Matrix
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
    assert cohomology_dims(toy(), 1) == [0, 0]


def test_cohomology_dims_zero_complex():
    c = full_complex(QQ, [0, 0, 0], [[], []])
    # represent empty diffs directly
    c = CochainComplex(QQ, 2, [CochainSpace.full(QQ, 0)] * 3,
                       [SparseMatrix(QQ, 0, 0), SparseMatrix(QQ, 0, 0)])
    assert cohomology_dims(c, 1) == [0, 0]


def test_cohomology_dims_rejects_negative_dimension():
    # d1 d0 = 1 != 0, so the rank count gives H^1 = 1 - 1 - 1 = -1
    c = full_complex(GF3, [1, 1, 1], [[[1]], [[1]]])
    with pytest.raises(AssertionError, match="negative dimension"):
        cohomology_dims(c, 1)


def test_degree_out_of_range():
    with pytest.raises(DegreeOutOfRange):
        cohomology_dims(toy(), 2)


def test_fixed_subcomplex_identity_ops_unchanged():
    c = toy()
    eye = lambda n: SparseMatrix.identity(GF3, n)
    ops = [ActionOperator(0, []),
           ActionOperator(1, [eye(2)]),
           ActionOperator(2, [eye(1)])]
    fixed = fixed_subcomplex(c, ops)
    assert fixed.space_dims() == [1, 2, 1]


def test_fixed_subcomplex_degree0_untouched():
    c = toy()
    ops = [ActionOperator(0, []), ActionOperator(1, []), ActionOperator(2, [])]
    fixed = fixed_subcomplex(c, ops)
    assert fixed.space_dims() == c.space_dims()


def test_fixed_subcomplex_negation_kills_space():
    field = QQ
    spaces = [CochainSpace.full(field, 1), CochainSpace.full(field, 2)]
    diffs = [SparseMatrix(field, 2, 1)]  # zero differential
    c = CochainComplex(field, 1, spaces, diffs)
    minus = SparseMatrix(field, 2, 2, ([0, 1], [0, 1], [field.from_int(-1)] * 2))
    fixed = fixed_subcomplex(c, [ActionOperator(0, []), ActionOperator(1, [minus])])
    assert fixed.space_dims() == [1, 0]
    assert cohomology_dims(fixed, 0) == [1]


def test_fixed_subcomplex_incompatible_raises():
    field = QQ
    spaces = [CochainSpace.full(field, 1), CochainSpace.full(field, 1)]
    diffs = [SparseMatrix.from_dense(Matrix.from_rows(field, [[1]]))]
    c = CochainComplex(field, 1, spaces, diffs)
    minus = SparseMatrix(field, 1, 1, ([0], [0], [field.from_int(-1)]))
    # degree-0 space is all fixed (no generators), but d maps it to non-fixed vectors
    with pytest.raises(ActionNotCompatible):
        fixed_subcomplex(c, [ActionOperator(0, []), ActionOperator(1, [minus])])


def test_induced_map_sub_equals_full_is_identity():
    c = toy()
    report = induced_map_on_cohomology(c, c, 1)
    for n, mat in zip(report.degrees, report.matrices):
        assert mat == Matrix.identity(GF3, mat.rows)
        assert report.is_injective(n)


def test_induced_map_rejects_mismatched():
    c = toy()
    other = full_complex(GF3, [1, 2, 2], [[[1], [0]], [[0, 1], [0, 0]]])
    with pytest.raises(NotASubcomplex):
        induced_map_on_cohomology(c, other, 1)


def test_euler_characteristic_consistency():
    assert euler_characteristic_consistent(toy())


@pytest.mark.parametrize("field", [GF3, QQ], ids=["GF3", "Q"])
def test_cohomology_dims_refuses_an_oversized_dense_rank(field):
    # zero differentials between spaces too large to densify: refused from
    # the dimensions alone, before any dense matrix exists
    side = 1 << 13  # side * side = 4 * DENSE_RANK_CELLS
    assert side * side > DENSE_RANK_CELLS
    spaces = [CochainSpace.full(field, d) for d in (1, side, side)]
    diffs = [SparseMatrix(field, side, 1), SparseMatrix(field, side, side)]
    c = CochainComplex(field, 2, spaces, diffs)
    assert cohomology_dims(c, 0) == [1]
    with pytest.raises(BudgetExceeded):
        cohomology_dims(c, 1)


def test_sandwich_rank_certificate_survives_entries_near_2_to_30(monkeypatch):
    # rank 1: column 1 is twice column 0.  The Gram entries are sums of
    # products near 2^61, which wrap in int64 unless reduced mod each prime
    big = [(1 << 30) + 7 + i for i in range(8)]
    sm = SparseMatrix(QQ, 8, 2, (list(range(8)) * 2, [0] * 8 + [1] * 8,
                                 [QQ.from_int(v) for v in big + [2 * v for v in big]]))
    assert complexes._certified_rational_rank(sm, upper=2) == 1
    assert complexes._certified_rational_rank(sm, upper=1) == 1
