import pytest

from symcoh.errors import DimensionMismatch, NotAGroup
from symcoh.fields import Field
from symcoh.hopf import (HopfAlgebra, cyclic_group_table, group_algebra,
                         iterated_comult, symmetric_group_table, validate_hopf)
from symcoh.linalg import Matrix

GF3 = Field.prime(3)
GF5 = Field.prime(5)
QQ = Field.rationals()


def kC(n, field):
    return group_algebra(n, cyclic_group_table(n), field)


def kS3(field):
    return group_algebra(6, symmetric_group_table(3), field)


@pytest.mark.parametrize("field", [GF3, GF5, Field.prime(7), QQ])
@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_cyclic_group_algebras_validate(field, order):
    h = kC(order, field)
    report = validate_hopf(h, require_cocommutative=True)
    assert report.passed, report.failures()
    assert report.cocommutative
    assert h.group_like


@pytest.mark.parametrize("field", [GF3, GF5, QQ])
def test_s3_validates_cocommutative_noncommutative(field):
    h = kS3(field)
    report = validate_hopf(h, require_cocommutative=True)
    assert report.passed, report.failures()
    assert report.cocommutative
    assert not report.commutative


def test_s3_table_is_noncommutative():
    t = symmetric_group_table(3)
    assert any(t[i][j] != t[j][i] for i in range(6) for j in range(6))


def test_antipode_squared_is_identity_for_cocommutative():
    for h in (kC(3, GF3), kS3(GF5), kC(5, QQ)):
        assert (h.antipode @ h.antipode) == Matrix.identity(h.field, h.dim)


def test_broken_antipode_fails_with_witness():
    h = kC(3, GF3)
    broken = HopfAlgebra(GF3, 3, h.basis_labels, h.mult, h.unit, h.comult,
                         h.counit, Matrix.identity(GF3, 3))
    report = validate_hopf(broken)
    assert not report.passed
    bad = next(c for c in report.checks if c.name == "antipode")
    assert not bad.passed
    # direct oracle: mult(S x id)comult(g) = g*g != eps(g) 1 for the identity antipode
    assert bad.witness == "g1"


def test_c1_is_base_field():
    h = kC(1, QQ)
    assert h.dim == 1
    assert validate_hopf(h, require_cocommutative=True).passed


def test_not_a_group_errors():
    with pytest.raises(NotAGroup):
        group_algebra(2, [[0, 1], [1, 1]], GF3)  # not a Latin square
    with pytest.raises(NotAGroup):
        group_algebra(2, [[1, 0], [0, 1]], GF3)  # identity not at index 0
    # a nonassociative loop of order 5 with two-sided identity
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAGroup, match="associativity"):
        group_algebra(5, loop, GF3)


def test_ragged_structure_constants_rejected():
    h = kC(2, GF3)
    with pytest.raises(DimensionMismatch):
        HopfAlgebra(GF3, 2, h.basis_labels, [h.mult[0]], h.unit, h.comult,
                    h.counit, h.antipode)


def test_iterated_comult_t0_is_identity():
    h = kS3(GF5)
    for i in range(h.dim):
        sw = iterated_comult(h, i, 0)
        assert sw.coeffs == {(i,): GF5.one()}


def test_iterated_comult_group_like():
    h = kC(4, QQ)
    sw = iterated_comult(h, 2, 2)
    assert sw.coeffs == {(2, 2, 2): QQ.one()}
    assert sw.arity == 3


def test_iterated_comult_bracketing_independent():
    # expanding the first leg each time (the implementation) must agree with
    # expanding the last leg each time, for all arities up to 4
    def expand_last(h, i, t):
        fld = h.field
        coeffs = {(i,): fld.one()}
        for _ in range(t):
            new = {}
            for key, c in coeffs.items():
                for (a, b), e in h.comult[key[-1]].items():
                    nk = key[:-1] + (a, b)
                    new[nk] = fld.add(new.get(nk, fld.zero()), fld.mul(c, e))
            coeffs = {k: v for k, v in new.items() if v != 0}
        return coeffs

    from test_generic_hopf import scrambled_kc3
    for h in (kS3(GF5), kC(3, QQ), scrambled_kc3()):
        for i in range(h.dim):
            for t in (1, 2, 3):
                assert iterated_comult(h, i, t).coeffs == expand_last(h, i, t)


def test_counit_contraction_recovers_lower_sweedler():
    # applying the counit to any leg of Delta^(t) gives Delta^(t-1)
    h = kS3(GF3)
    fld = h.field
    for i in range(h.dim):
        for t in (1, 2, 3):
            top = iterated_comult(h, i, t).coeffs
            expect = iterated_comult(h, i, t - 1).coeffs
            for leg in range(t + 1):
                contracted = {}
                for key, c in top.items():
                    rest = key[:leg] + key[leg + 1:]
                    c2 = fld.mul(c, h.counit[key[leg]])
                    if c2 != 0:
                        contracted[rest] = fld.add(contracted.get(rest, fld.zero()), c2)
                assert {k: v for k, v in contracted.items() if v != 0} == expect


# -- the sparse structure maps against the input form -----------------------------


def _basis_changes():
    """Seeded unitriangular basis changes of kC3 over GF(3) and kS3 over
    GF(5), each entry above the diagonal zero at least half the time, so
    that some draws are the identity and keep the group basis."""
    import random
    from test_generic_hopf import change_basis
    out = []
    for base, count in ((kC(3, GF3), 60), (kS3(GF5), 12)):
        fld, d = base.field, base.dim
        for seed in range(count):
            rng = random.Random(f"basis-change:{d}:{seed}")
            rows = [[int(i == j) if j <= i else rng.randrange(fld.p) * rng.randrange(2)
                     for j in range(d)] for i in range(d)]
            out.append(change_basis(base, Matrix.from_rows(fld, rows)))
    return out


def _committed_algebras():
    """The frozen algebra files and the inputs of the mutation verdicts."""
    import json
    import pathlib
    from test_hopf_mutations import _golden, mutate
    from symcoh.cli import hopf_from_json
    folder = pathlib.Path(__file__).with_name("golden") / "algebras"
    objs = [json.loads(path.read_text()) for path in sorted(folder.glob("*.json"))]
    golden = _golden()
    objs += [mutate(golden["algebras"][case["algebra"]], case["mutation"])
             for case in golden["cases"]]
    return [hopf_from_json(obj, None) for obj in objs]


def test_group_basis_is_read_off_the_sparse_maps():
    from oracles import dict_group_basis
    builtins = [kC(n, f) for n in (1, 2, 3, 4, 5, 6) for f in (Field.prime(2), GF3, GF5, QQ)]
    builtins += [kS3(f) for f in (Field.prime(2), GF3, GF5, QQ)]
    changes = _basis_changes()
    algebras = builtins + _committed_algebras() + changes
    for h in algebras:
        want = dict_group_basis(h)
        got = (h.group_table, h.group_identity, h.group_inverse) if h.group_like else None
        assert got == want, h
    # the draws cover both outcomes, and so do the mutated inputs
    assert {h.group_like for h in changes} == {True, False}
    assert sum(h.group_like for h in algebras) > len(builtins)


def test_group_inverse_keeps_the_last_index_that_gives_the_identity():
    # a table in which b_1 b_j = 1 for j = 0 and j = 1 is not a group, but
    # its basis passes the group-like tests of the maps
    from oracles import dict_group_basis
    one, zero = QQ.one(), QQ.zero()
    mult = [[{0: one}, {1: one}], [{0: one}, {0: one}]]
    h = HopfAlgebra(QQ, 2, ["e", "x"], mult, [one, zero], [{(0, 0): one}, {(1, 1): one}],
                    [one, one], Matrix.identity(QQ, 2))
    assert h.group_like and h.group_inverse == [0, 1]
    assert dict_group_basis(h) == (h.group_table, h.group_identity, h.group_inverse)


def test_hopf_to_json_writes_the_input_form_and_round_trips():
    # compared as JSON text: an index left as a numpy integer would not dump
    import json
    from oracles import dict_to_json
    from symcoh.cli import hopf_from_json, hopf_to_json
    for h in [kC(3, GF3), kS3(QQ)] + _committed_algebras() + _basis_changes():
        text = json.dumps(hopf_to_json(h))
        assert text == json.dumps(dict_to_json(h))
        assert json.dumps(hopf_to_json(hopf_from_json(json.loads(text), None))) == text
