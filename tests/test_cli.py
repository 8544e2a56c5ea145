import json
import pathlib

import pytest

from symcoh.cli import hopf_to_json, main
from symcoh.fields import Field
from symcoh.hopf import (cyclic_group_table, group_algebra, symmetric_group_table,
                         validate_hopf)
from symcoh.linalg import Matrix

from test_generic_hopf import change_basis

GF3 = Field.prime(3)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_sh_kc3_table_mode(capsys):
    code, out = run_cli(capsys, "--algebra", "Cp:3", "--field", "gf:3",
                        "--mode", "SH", "--max-degree", "5")
    assert code == 0
    assert "1    1    1    0    0" in out.replace("\n", " ")


def test_sh_kc3_json(capsys):
    code, report = run_json(capsys, "--algebra", "Cp:3", "--field", "gf:3",
                            "--mode", "SH", "--max-degree", "5")
    assert code == 0
    assert report["dims"] == [1, 1, 1, 0, 0]
    assert report["mode"] == "SH"


def test_json_output_is_byte_identical(capsys):
    args = ("--algebra", "Cp:3", "--field", "gf:3", "--mode", "SH",
            "--max-degree", "4", "--format", "json")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cp_table_mode(capsys):
    code, report = run_json(capsys, "--algebra", "Cp:5", "--field", "gf:5",
                            "--mode", "cp-table")
    assert code == 0
    assert [row["rank"] for row in report["table"]] == [2, 2, 1]
    assert all(row["is_free"] for row in report["table"])


U1_GF5 = str(pathlib.Path(__file__).with_name("golden") / "algebras" / "u1-gf5.json")


@pytest.mark.parametrize("argv,code,reason", [
    (("--algebra", "Cp:2", "--field", "gf:2"), 1, "InvalidPrime: 2 is not an odd prime"),
    (("--algebra", "Cp:5", "--field", "gf:3"), 1, "InvalidPrime: cp-table needs the field GF(p)"),
    (("--algebra", "S3", "--field", "gf:3"), 2, "cp-table needs a cyclic group algebra"),
    (("--algebra", U1_GF5), 2, "cp-table needs a cyclic group algebra"),
], ids=["Cp2-gf2", "Cp5-gf3", "S3-gf3", "u1-gf5"])
def test_cp_table_refusals(capsys, argv, code, reason):
    # p = 2 and a field other than GF(p) are invalid primes; an algebra that
    # is not a cyclic group algebra, group or not, is a schema error
    got, report = run_json(capsys, *argv, "--mode", "cp-table")
    assert got == report["error"]["code"] == code
    assert report["error"]["reason"].startswith(reason)


def test_validate_s3(capsys):
    code, report = run_json(capsys, "--algebra", "S3", "--field", "gf:5",
                            "--mode", "validate")
    assert code == 0
    assert all(c["pass"] for c in report["checks"])
    assert report["cocommutative"] is True


def test_h_mode_rational_default_field(capsys):
    code, report = run_json(capsys, "--algebra", "Cp:3", "--mode", "H",
                            "--max-degree", "3")
    assert code == 0
    assert report["dims"] == [1, 0, 0]


def test_hh_and_shh_modes(capsys):
    code, report = run_json(capsys, "--algebra", "Cp:3", "--field", "gf:3",
                            "--mode", "HH", "--max-degree", "3")
    assert code == 0
    assert report["dims"] == [3, 3, 3]
    code, report = run_json(capsys, "--algebra", "Cp:3", "--field", "gf:3",
                            "--mode", "SHH", "--max-degree", "3")
    assert code == 0
    assert report["dims"] == [3, 3, 3]


def test_sh_cross_check(capsys):
    code, report = run_json(capsys, "--algebra", "Cp:3", "--field", "gf:3",
                            "--mode", "SH", "--max-degree", "3", "--cross-check")
    assert code == 0
    assert report["routes"]["homogeneous"] == report["routes"]["nonhomogeneous"]
    assert report["checks"] == [{"name": "realizations_agree", "pass": True}]


def test_sh_resolution_route(capsys):
    code, report = run_json(capsys, "--algebra", "Cp:5", "--field", "gf:5",
                            "--mode", "SH", "--max-degree", "7",
                            "--route", "resolution")
    assert code == 0
    assert report["dims"] == [1, 1, 1, 1, 1, 0, 0]


def test_resolution_mode(capsys):
    code, report = run_json(capsys, "--algebra", "Cp:3", "--field", "gf:3",
                            "--mode", "resolution", "--max-degree", "3")
    assert code == 0
    assert report["dims"] == [3, 3, 1, 0]
    assert all(c["pass"] for c in report["checks"])


def test_corollary_check_mode(capsys):
    code, report = run_json(capsys, "--algebra", "Cp:3", "--field", "gf:3",
                            "--mode", "corollary-check", "--max-degree", "3")
    assert code == 0
    assert report["routes"]["SHH"] == [3, 3, 3]


def test_compare_adjoint_mode(capsys):
    code, report = run_json(capsys, "--algebra", "Cp:3", "--field", "gf:3",
                            "--mode", "compare-adjoint", "--max-degree", "3")
    assert code == 0
    assert report["routes"]["SHH"] == report["routes"]["SH_adjoint"]


def test_budget_exit_code(capsys):
    # degree 7 of the homogeneous complex of kC5 lives on 5^8 = 390625
    # coordinates, over the budget of 200000: refused before anything is built
    import tracemalloc
    tracemalloc.start()
    try:
        code, report = run_json(capsys, "--algebra", "Cp:5", "--field", "gf:5",
                                "--mode", "SH", "--max-degree", "7")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert report["error"]["code"] == 3
    assert "needs 390625 coordinates, budget is 200000" in report["error"]["reason"]
    assert peak < 1 << 20


@pytest.mark.parametrize("argv,dims", [
    pytest.param(("--algebra", "S3", "--field", "gf:5", "--mode", "SH", "--route", "resolution",
                  "--max-degree", "24"), [1] + [0] * 23, id="S3-SH"),
    pytest.param(("--algebra", "S3", "--field", "gf:5", "--mode", "SHH", "--route", "resolution",
                  "--max-degree", "23"), [3] + [0] * 22, id="S3-SHH"),
    pytest.param(("--algebra", "Cp:3", "--field", "gf:3", "--mode", "resolution",
                  "--max-degree", "40"), [3, 3, 1] + [0] * 38, id="Cp3-resolution"),
])
def test_vanishing_coinvariants_past_the_int64_key_are_answered(capsys, argv, dims):
    # the coinvariants vanish from degree dim A on; such a degree has 0 x 0
    # projection and section, so no index of its ambient (2^63 or more
    # coordinates here) is formed
    code, report = run_json(capsys, *argv)
    assert code == 0
    assert report["dims"] == dims
    assert all(c["pass"] for c in report["checks"])


def test_vanishing_degrees_get_no_unit_insertion_on_their_indices(tmp_path, capsys):
    # kC3 on the basis (g1, g2, e): the unit is b_2, and prepending it to a
    # degree-39 tensor would shift flat indices by 2 * 3^40, past int64
    p = Matrix.from_rows(GF3, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    h = change_basis(group_algebra(3, cyclic_group_table(3), GF3), p)
    assert h.unit_dict() == {2: 1}
    path = tmp_path / "kc3.json"
    path.write_text(json.dumps(hopf_to_json(h)))
    code, report = run_json(capsys, "--algebra", str(path), "--mode", "resolution",
                            "--max-degree", "40")
    assert code == 0
    assert report["dims"] == [3, 3, 1] + [0] * 38
    assert all(c["pass"] for c in report["checks"])


def test_char2_coinvariants_never_vanish_and_meet_the_ambient_bound(capsys):
    # Sym^(n+1) of a 6-space is nonzero in every degree, and the degree-9
    # one lives on 6^10 coordinates
    code, report = run_json(capsys, "--algebra", "S3", "--field", "gf:2", "--mode", "SH",
                            "--route", "resolution", "--max-degree", "9")
    assert code == 3
    assert report["dims"] == []
    assert "6^10" in report["error"]["reason"]


@pytest.mark.parametrize("name", ["Cp:x", "Cp:", "Cp:3.5"])
def test_malformed_cyclic_group_name_is_a_schema_error(capsys, name):
    code, report = run_json(capsys, "--algebra", name, "--mode", "validate")
    assert code == 2
    assert report["dims"] == []
    assert report["error"]["code"] == 2
    assert repr(name) in report["error"]["reason"]


def test_negative_dimension_is_an_internal_error(capsys, monkeypatch):
    # ranks that violate d.d = 0 (every differential claimed injective) must
    # be refused by the dimension invariant rather than printed with exit 0
    from symcoh import complexes
    monkeypatch.setattr(complexes, "_restricted_rank",
                        lambda c, reduced, n, prev_rank: reduced[n].cols)
    code, report = run_json(capsys, "--algebra", "Cp:3", "--field", "gf:3",
                            "--mode", "H", "--max-degree", "4")
    assert code == 4
    assert report["dims"] == []
    assert report["error"]["code"] == 4


@pytest.mark.parametrize("p", [3037000507, 4294967311, 2305843009213693951])
def test_prime_above_the_int64_product_bound_is_a_schema_error(capsys, p):
    # (p-1)^2 >= 2^63: the parent answered SHH of kS3 at the last p with
    # [6, 0] instead of the centre's [3, 0]
    code, report = run_json(capsys, "--algebra", "S3", "--field", f"gf:{p}",
                            "--mode", "SHH", "--max-degree", "2")
    assert code == 2
    assert report["dims"] == []
    assert report["error"]["code"] == 2
    code, report = run_json(capsys, "--algebra", "S3", "--field", "gf:3037000493",
                            "--mode", "SHH", "--max-degree", "2")
    assert (code, report["dims"]) == (0, [3, 0])


@pytest.mark.parametrize("algebra,top", [("Cp:2", 1), ("Cp:2", 2), ("Cp:2", 3), ("Cp:3", 2)])
def test_char2_resolution_certifies_no_unbuilt_degree(capsys, algebra, top):
    # in characteristic 2 the coinvariants are symmetric powers, never zero,
    # so the top degree has no exactness certificate; the parent claimed one
    # from S_(top+1) = 0 and failed it
    code, report = run_json(capsys, "--algebra", algebra, "--field", "gf:2",
                            "--mode", "resolution", "--max-degree", str(top))
    assert code == 0
    assert [c["name"] for c in report["checks"] if c["name"].startswith("exact_at")] == \
        [f"exact_at_{n}" for n in range(top)]
    assert all(c["pass"] for c in report["checks"])


def _scrambled_ks3_file(tmp_path) -> str:
    """kS3 over GF(5) in a basis with no group-like elements, as a JSON file."""
    f = Field.prime(5)
    p = Matrix.from_rows(f, [[1 if j in (i, i + 1) else 0 for j in range(6)] for i in range(6)])
    path = tmp_path / "sS3-gf5.json"
    path.write_text(json.dumps(hopf_to_json(
        change_basis(group_algebra(6, symmetric_group_table(3), f), p))))
    return str(path)


def test_dense_diagonal_action_over_the_cell_limit_is_a_budget_error(capsys, tmp_path):
    # the diagonal action is the sparse tensor power of the regular module,
    # and a level's kron terms are charged before they are formed.  Bar
    # route: degree 9 of scrambled kC3 acts on 9 inner slots; level 8 of
    # the power needs 11,536,086 terms.  Resolution route: degree 4 of
    # scrambled kS3 (the coinvariants of scrambled kC3 vanish above degree
    # 2) acts on 5 slots, one element at a time; the fifth needs 5,671,535
    # terms, 17,014,605 cells as triples.  Degree 3 (4 slots) is within the
    # limit
    sc3 = str(pathlib.Path(__file__).with_name("golden") / "algebras" / "sC3-gf3.json")
    ss3 = _scrambled_ks3_file(tmp_path)
    for algebra, route, top in ((sc3, "bar", 9), (ss3, "resolution", 4)):
        code, report = run_json(capsys, "--algebra", algebra, "--mode", "SH",
                                "--route", route, "--max-degree", str(top))
        assert code == 3
        assert report["dims"] == []
        assert report["error"]["code"] == 3
        assert "diagonal action" in report["error"]["reason"]
    code, report = run_json(capsys, "--algebra", ss3, "--mode", "SH",
                            "--route", "resolution", "--max-degree", "3")
    assert (code, report["dims"]) == (0, [1, 0, 0])


@pytest.fixture
def u_k2_file(tmp_path) -> str:
    """u(k^2) = k[x, y]/(x^3, y^3) over GF(3), x and y primitive, as a JSON file."""
    from restricted import hopf_tensor, restricted_enveloping
    path = tmp_path / "u-k2-gf3.json"
    path.write_text(json.dumps(hopf_to_json(hopf_tensor(restricted_enveloping(3),
                                                        restricted_enveloping(3)))))
    return str(path)


@pytest.mark.parametrize("route", ["bar", "resolution"])
def test_sh_of_u_k2_is_answered(capsys, u_k2_file, route):
    # the action on 4 inner slots (bar) or 5 slots (resolution) has at
    # least 9^8 cells as a dense array, past the limit; its nonzeros fit
    code, report = run_json(capsys, "--algebra", u_k2_file, "--mode", "SH",
                            "--route", route, "--max-degree", "4")
    assert (code, report["dims"]) == (0, [1, 2, 3, 0])


def test_h_of_u_k2_is_the_kunneth_value(capsys, u_k2_file):
    # H(k[x]/(x^3)) = [1, 1, 1, 1], so H of the tensor square is [1, 2, 3, 4]
    code, report = run_json(capsys, "--algebra", u_k2_file, "--mode", "H", "--max-degree", "4")
    assert (code, report["dims"]) == (0, [1, 2, 3, 4])


def test_oversized_coinvariant_ambient_is_a_budget_error(capsys):
    # degree 9 of kC11 lives on 11^10 ambient coordinates: refused before
    # any degree is built, so not even degree 6 (11^7 coordinates) allocates
    import tracemalloc
    tracemalloc.start()
    try:
        code, report = run_json(capsys, "--algebra", "Cp:11", "--field", "gf:11",
                                "--mode", "cp-table", "--max-degree", "9")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert report["dims"] == []
    assert report["error"]["code"] == 3
    assert "11^10 = 25937424601 ambient coordinates" in report["error"]["reason"]
    assert peak < 1 << 20


def test_oversized_dense_rank_is_a_budget_error(capsys):
    # within the coordinate budget (3^10 coordinates), but the rank of d_8
    # would densify a 19683 x 6561 matrix; refused before it is built
    code, report = run_json(capsys, "--algebra", "Cp:3", "--field", "gf:3",
                            "--mode", "H", "--max-degree", "9")
    assert code == 3
    assert report["dims"] == []
    assert report["error"]["code"] == 3
    assert "19683 x 6561" in report["error"]["reason"]


def test_common_kernel_step_over_the_cell_limit_is_a_budget_error(capsys, monkeypatch):
    # with the limit lowered, every rank below still fits, but the first Hom
    # step at degree 1 of SHH(kC11, kC11), into ad A (605 x 605, over 100,000
    # cells), and the first fixed-point step at degree 4 of SH on sC3, whose
    # generators are not monomial (81 x 81, over 5,000 cells), do not
    from symcoh import linalg
    sc3 = str(pathlib.Path(__file__).with_name("golden") / "algebras" / "sC3-gf3.json")
    for argv, limit, size in (
            (("--algebra", "Cp:11", "--field", "gf:11", "--mode", "SHH", "--module", "regular",
              "--max-degree", "2", "--route", "resolution"), 100_000, "605 x 605"),
            (("--algebra", sc3, "--mode", "SH", "--max-degree", "5"),
             5_000, "81 x 81")):
        monkeypatch.setattr(linalg, "DENSE_RANK_CELLS", limit)
        code, report = run_json(capsys, *argv)
        assert code == 3
        assert report["dims"] == []
        assert report["error"]["code"] == 3
        assert f"common kernel step needs a dense {size} matrix" in report["error"]["reason"]
    # the Hom steps of SHH(kS3, kS3) into ad A are at most 120 x 120; into
    # S_n tensor A they were 540 x 540 at degree 1, and refused here; the
    # fixed points of kC5 are orbits, with no dense step (625 x 625 at
    # degree 4 before)
    monkeypatch.setattr(linalg, "DENSE_RANK_CELLS", 100_000)
    for argv, dims in (
            (("--algebra", "Cp:5", "--field", "gf:5", "--mode", "SH", "--max-degree", "4"),
             [1, 1, 1, 1]),
            (("--algebra", "Cp:5", "--field", "gf:5", "--mode", "SH", "--max-degree", "5"),
             [1, 1, 1, 1, 1]),
            (("--algebra", "S3", "--field", "gf:5", "--mode", "SHH", "--module", "regular",
              "--max-degree", "2", "--route", "resolution"), [3, 0])):
        code, report = run_json(capsys, *argv)
        assert (code, report["dims"]) == (0, dims)


def test_orbit_fixed_points_answer_past_the_dense_kernel_limit(capsys):
    # degree 8 of SH(kC3) on the bar route has a 6561 x 6561 fixed-point
    # step, past DENSE_RANK_CELLS as a dense kernel; its generators are
    # signed permutations, so the fixed points are orbits, and the answer
    # agrees with the resolution route
    argv = ("--algebra", "Cp:3", "--field", "gf:3", "--mode", "SH", "--max-degree", "10")
    code, report = run_json(capsys, *argv)
    assert (code, report["dims"]) == (0, [1, 1, 1] + [0] * 7)
    code, other = run_json(capsys, *argv, "--route", "resolution")
    assert (code, other["dims"]) == (0, report["dims"])


def test_memory_error_is_a_budget_error(capsys, monkeypatch):
    # running out of memory gives exit 3 and the JSON error, not a traceback
    from symcoh import resolution

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 6.71 GiB for an array with shape "
                          "(30000, 30000) and data type int64")

    monkeypatch.setattr(resolution, "hom_equivariant", exhausted)
    code, report = run_json(capsys, "--algebra", "S3", "--field", "gf:5", "--mode", "SHH",
                            "--max-degree", "2", "--route", "resolution")
    assert code == 3
    assert report["dims"] == []
    assert report["error"]["code"] == 3
    assert report["error"]["reason"].startswith("out of memory: Unable to allocate 6.71 GiB")


def test_schema_error_exit_code(capsys):
    code, report = run_json(capsys, "--algebra", "Cp:3", "--field", "gf:4",
                            "--mode", "SH")
    assert code == 2
    code, report = run_json(capsys, "--algebra", "/nonexistent.json",
                            "--mode", "SH")
    assert code == 2


def test_not_commutative_exit_code(capsys):
    code, report = run_json(capsys, "--algebra", "S3", "--field", "gf:5",
                            "--mode", "corollary-check")
    assert code == 1
    assert "NotCommutative" in report["error"]["reason"]


def test_table_format_prints_the_error(capsys):
    # a refused run prints its code and reason after the mode line, as the
    # JSON report carries them
    code, out = run_cli(capsys, "--algebra", "S3", "--field", "gf:5",
                        "--mode", "corollary-check", "--max-degree", "3")
    assert code == 1
    assert out == ("mode: corollary-check\n"
                   "error 1: NotCommutative: the factorization needs a commutative algebra\n")


# the modes that read each optional flag, stated here apart from cli.MODE_FLAGS
READ_BY = {"--cross-check": ("SH", "SHH"), "--route": ("SH", "SHH", "corollary-check"),
           "--module": ("H", "SH", "HH", "SHH", "compare-adjoint")}
FLAG_VALUES = {"--cross-check": (), "--route": ("bar",), "--module": ("trivial",)}
ALL_MODES = ("H", "SH", "HH", "SHH", "resolution", "cp-table", "validate", "compare-adjoint",
             "corollary-check")
UNREAD = [(mode, flag) for flag, modes in READ_BY.items() for mode in ALL_MODES
          if mode not in modes]


@pytest.mark.parametrize("mode,flag", UNREAD, ids=[f"{m}{f}" for m, f in UNREAD])
def test_a_flag_that_the_mode_does_not_read_is_a_schema_error(capsys, mode, flag):
    # given even at its default value, the flag would be silently ignored
    code, report = run_json(capsys, "--algebra", "Cp:3", "--field", "gf:3", "--mode", mode,
                            "--max-degree", "3", flag, *FLAG_VALUES[flag])
    assert code == 2
    assert report["dims"] == []
    assert report["error"] == {"code": 2, "reason": f"{flag} is not read by --mode {mode}"}


def test_inline_algebra_roundtrip(tmp_path, capsys):
    h = group_algebra(3, cyclic_group_table(3), GF3)
    path = tmp_path / "kc3.json"
    path.write_text(json.dumps(hopf_to_json(h)))
    code, report = run_json(capsys, "--algebra", str(path), "--mode", "SH",
                            "--max-degree", "4")
    assert code == 0
    assert report["dims"] == [1, 1, 1, 0]
    # the serialized form parses back to a valid Hopf algebra
    code, report = run_json(capsys, "--algebra", str(path), "--mode", "validate")
    assert code == 0


def test_inline_algebra_field_override(tmp_path, capsys):
    h = group_algebra(3, cyclic_group_table(3), GF3)
    path = tmp_path / "kc3.json"
    path.write_text(json.dumps(hopf_to_json(h)))
    code, report = run_json(capsys, "--algebra", str(path), "--field", "q",
                            "--mode", "SH", "--max-degree", "3")
    assert code == 0
    assert report["dims"] == [1, 0, 0]


def test_noncocommutative_rejected(tmp_path, capsys):
    # the dual of kS3 is commutative but not cocommutative
    from symcoh.hopf import HopfAlgebra, symmetric_group_table
    h = group_algebra(6, symmetric_group_table(3), Field.prime(5))
    fld = h.field
    mult = [[{} for _ in range(6)] for _ in range(6)]
    for k in range(6):
        for (i, j), c in h.comult[k].items():
            mult[i][j][k] = c
    comult = [dict() for _ in range(6)]
    for i in range(6):
        for j in range(6):
            for k, c in h.mult[i][j].items():
                comult[k][(i, j)] = c
    dual = HopfAlgebra(fld, 6, [f"f{i}" for i in range(6)], mult,
                       list(h.counit), comult, list(h.unit),
                       h.antipode.transpose())
    assert validate_hopf(dual).passed
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(hopf_to_json(dual)))
    code, report = run_json(capsys, "--algebra", str(path), "--mode", "SH",
                            "--max-degree", "2")
    assert code == 1
    assert "NotCocommutative" in report["error"]["reason"]


def test_module_json_loading(tmp_path, capsys):
    # the trivial module written out explicitly
    mod = {"dim": 1, "left_action": [[["1"]], [["1"]], [["1"]]]}
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(mod))
    code, report = run_json(capsys, "--algebra", "Cp:3", "--field", "gf:3",
                            "--mode", "SH", "--max-degree", "3",
                            "--module", str(path))
    assert code == 0
    assert report["dims"] == [1, 1, 1]


TRIVIAL_KC3 = [[["1"]], [["1"]], [["1"]]]


@pytest.mark.parametrize("mode", ["SH", "SHH"])
@pytest.mark.parametrize("body", [
    {"left_action": TRIVIAL_KC3},
    [1, TRIVIAL_KC3],
    {"dim": "x", "left_action": TRIVIAL_KC3, "right_action": TRIVIAL_KC3},
    {"dim": float("inf"), "left_action": TRIVIAL_KC3, "right_action": TRIVIAL_KC3},
    {"dim": 1, "left_action": [[[float("inf")]]] * 3, "right_action": TRIVIAL_KC3},
    {"dim": 1, "left_action": 5, "right_action": TRIVIAL_KC3},
], ids=["no-dim", "array", "dim-not-a-number", "dim-infinite", "entry-infinite",
        "left-action-not-a-list"])
def test_malformed_module_file_is_a_schema_error(tmp_path, capsys, mode, body):
    # a module or bimodule file that does not fit the schema exits 2 with
    # the JSON error, whichever key is at fault
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(body))
    code, report = run_json(capsys, "--algebra", "Cp:3", "--field", "gf:3", "--mode", mode,
                            "--max-degree", "2", "--module", str(path))
    assert code == 2
    assert report["error"]["code"] == 2
    assert report["dims"] == []


@pytest.mark.parametrize("right", [5, None], ids=["not-a-list", "missing"])
def test_malformed_right_action_is_a_schema_error(tmp_path, capsys, right):
    body = {"dim": 1, "left_action": TRIVIAL_KC3}
    if right is not None:
        body["right_action"] = right
    path = tmp_path / "bim.json"
    path.write_text(json.dumps(body))
    code, report = run_json(capsys, "--algebra", "Cp:3", "--field", "gf:3", "--mode", "SHH",
                            "--max-degree", "2", "--module", str(path))
    assert code == 2
    # the same file is a valid left module
    code, report = run_json(capsys, "--algebra", "Cp:3", "--field", "gf:3", "--mode", "SH",
                            "--max-degree", "2", "--module", str(path))
    assert code == 0
    assert report["dims"] == [1, 1]


def _kc3_with_labels(labels):
    obj = hopf_to_json(group_algebra(3, cyclic_group_table(3), GF3))
    obj["basis_labels"] = labels
    return obj


@pytest.mark.parametrize("mode", ["validate", "SH"])
@pytest.mark.parametrize("body", [5, None, [1, 2], _kc3_with_labels(5)],
                         ids=["number", "null", "array", "labels-not-a-list"])
def test_malformed_algebra_file_is_a_schema_error(tmp_path, capsys, mode, body):
    # an algebra file that is not a JSON object, or whose basis labels are
    # not a list, exits 2 with the JSON error instead of a traceback
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(body))
    code, report = run_json(capsys, "--algebra", str(path), "--mode", mode, "--max-degree", "2")
    assert code == 2
    assert report["error"]["code"] == 2
    assert report["dims"] == []


def _s3_permutations(inverse=False):
    """Left multiplication by each element of S3 (by its inverse if
    `inverse`) on the 6-dimensional regular module, as JSON matrices."""
    table = symmetric_group_table(3)
    mats = []
    for g in range(6):
        a = table[g].index(0) if inverse else g
        mats.append([["1" if table[a][x] == y else "0" for x in range(6)] for y in range(6)])
    return mats


ONE, TWO = [["1"]], [["2"]]
EYE6 = [["1" if i == j else "0" for j in range(6)] for i in range(6)]

# (mode, module file, the reason the module validation gives)
MODULE_WITNESSES = {
    # rho(g1) rho(g3) = 2, but g1 g3 = g5 acts by 1
    "left": ("SH", {"dim": 1, "left_action": [ONE, ONE, ONE, TWO, ONE, ONE]},
             "InvalidModule: representation identity fails at (g1, g3)"),
    "unit": ("SH", {"dim": 1, "left_action": [TWO] + [ONE] * 5},
             "InvalidModule: unit does not act as identity"),
    "right": ("SHH", {"dim": 1, "left_action": [ONE] * 6,
                      "right_action": [ONE, ONE, ONE, TWO, ONE, ONE]},
              "InvalidBimodule: right representation identity fails at (g1, g3)"),
    # a left action offered as a right one: v . g1 . g2 = g2 g1 v, not g1 g2 v
    "right-is-a-left-action": ("SHH", {"dim": 6, "left_action": [EYE6] * 6,
                                       "right_action": _s3_permutations()},
                               "InvalidBimodule: right representation identity fails at (g1, g2)"),
    # v . g = g^-1 v is a right action, but S3 is not abelian
    "not-commuting": ("SHH", {"dim": 6, "left_action": _s3_permutations(),
                              "right_action": _s3_permutations(inverse=True)},
                      "InvalidBimodule: left and right actions do not commute"),
}


@pytest.mark.parametrize("case", MODULE_WITNESSES)
def test_invalid_module_file_names_the_failing_identity(tmp_path, capsys, case):
    # each module axiom is one comparison of two sparse composites; the
    # witness is the first basis pair whose column block differs
    mode, body, reason = MODULE_WITNESSES[case]
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(body))
    code, report = run_json(capsys, "--algebra", "S3", "--field", "gf:5", "--mode", mode,
                            "--max-degree", "2", "--module", str(path))
    assert code == 1
    assert report["error"] == {"code": 1, "reason": reason}
    assert report["dims"] == []


def _with_infinity(obj, key):
    """obj with one number under key replaced by infinity (JSON Infinity)."""
    obj = json.loads(json.dumps(obj))
    if key == "counit":
        obj["counit"][0] = float("inf")
    elif key == "antipode":
        obj["antipode"][0][0] = float("inf")
    elif key == "field":
        obj["field"]["p"] = float("inf")
    else:
        obj[key] = float("inf")
    return obj


MODES = [("--mode", "H"), ("--mode", "HH"), ("--mode", "SH"),
         ("--mode", "SH", "--route", "resolution"), ("--mode", "SHH"),
         ("--mode", "SHH", "--route", "resolution"), ("--mode", "resolution"),
         ("--mode", "compare-adjoint"), ("--mode", "corollary-check"), ("--mode", "cp-table")]


def test_every_mode_refuses_an_algebra_that_fails_a_hopf_axiom(tmp_path, capsys):
    # the frozen single-constant mutations of sC3-gf3 that fail an axiom
    # other than cocommutativity (which each mode checks where it needs it)
    from test_hopf_mutations import mutate
    golden = json.loads((pathlib.Path(__file__).with_name("golden")
                         / "hopf_mutations.json").read_text())
    cases = [c for c in golden["cases"] if c["algebra"] == "sC3-gf3"
             and any(name != "cocommutativity" for name, _ in c["failures"])]
    assert len(cases) > 30
    path = tmp_path / "mutant.json"
    for case in cases:
        path.write_text(json.dumps(mutate(golden["algebras"]["sC3-gf3"], case["mutation"])))
        name, witness = case["failures"][0]
        for mode in MODES:
            code, report = run_json(capsys, "--algebra", str(path), "--max-degree", "3", *mode)
            assert code == 1, (case, mode)
            assert report["dims"] == []
            assert report["error"]["reason"] == \
                f"NotAHopfAlgebra: the check {name} fails at {witness}"


def test_committed_noncoassociative_variant_is_refused(capsys):
    # sC3-gf3 without the comult constant (1, 0, 0); H used to print [1, 1, 1]
    path = pathlib.Path(__file__).with_name("golden") / "algebras" / \
        "sC3-gf3-noncoassociative.json"
    code, report = run_json(capsys, "--algebra", str(path), "--mode", "H", "--max-degree", "3")
    assert code == 1
    assert report["error"]["reason"] == "NotAHopfAlgebra: the check coassociativity fails at c1"
    code, report = run_json(capsys, "--algebra", str(path), "--mode", "validate")
    assert code == 1
    assert not next(c for c in report["checks"] if c["name"] == "coassociativity")["pass"]


@pytest.mark.parametrize("part,entry,mode", [
    ("mult", [1, 2, 7, "1"], "H"),
    ("comult", [1, 5, 0, "1"], "validate"),
    ("comult", [1, 5, 0, "1"], "H"),
    ("mult", [-1, 2, 0, "1"], "H"),
    ("comult", [0, 0, -1, "1"], "validate"),
], ids=["mult-past-dim", "comult-past-dim-validate", "comult-past-dim-H", "mult-negative",
        "comult-negative"])
def test_structure_constant_index_out_of_range_is_a_schema_error(tmp_path, capsys, part,
                                                                 entry, mode):
    sc3 = pathlib.Path(__file__).with_name("golden") / "algebras" / "sC3-gf3.json"
    obj = json.loads(sc3.read_text())
    obj[part].append(entry)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(obj))
    code, report = run_json(capsys, "--algebra", str(path), "--mode", mode)
    assert code == 2
    assert report["error"]["code"] == 2
    assert "outside 0..2" in report["error"]["reason"]


def _traced_run(capsys, *argv):
    """The JSON report of a CLI run and the peak bytes tracemalloc saw."""
    import tracemalloc
    tracemalloc.start()
    try:
        code, report = run_json(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return report, peak


def test_large_group_algebras_are_validated_in_batches_of_input_columns(capsys):
    # associativity compares maps on the 120^3 = 1,728,000 basis triples of
    # kC120; in batches of hopf.CHECK_COLUMNS triples the run stays far below
    # the 150 MiB that whole maps on A^(tensor 3) held
    report, peak = _traced_run(capsys, "--algebra", "Cp:120", "--mode", "H", "--max-degree", "1")
    assert report["dims"] == [1]
    assert peak < 24 << 20


@pytest.mark.parametrize("route", ["bar", "resolution"])
def test_shh_of_ks3_at_max_degree_4_is_answered(capsys, route):
    # SHH of kS3 with the regular bimodule at max degree 4 computes SH of
    # ad A on 6 * 6^5 = 46,656 coordinates; with a trailing bimodule slot it
    # needed 279,936, over the budget of 200,000, and exited 3.  Both routes
    # agree with the nonhomogeneous realization of the bimodule, which the
    # budget now charges m * d^(top+1) like any coefficients
    argv = ("--algebra", "S3", "--field", "gf:5", "--mode", "SHH", "--module", "regular",
            "--max-degree", "4", "--route", route)
    code, report = run_json(capsys, *argv)
    assert (code, report["dims"]) == (0, [3, 0, 0, 0])
    code, report = run_json(capsys, *argv, "--cross-check")
    assert code == 0
    assert report["dims"] == [3, 0, 0, 0]
    assert len(set(map(tuple, report["routes"].values()))) == 1
    assert report["checks"] and all(c["pass"] for c in report["checks"])


def test_bimodule_hom_solve_holds_no_stack_of_dense_products(capsys):
    # the Hom solves of the resolution route densify one sparse Kronecker
    # constraint or its image at a time (32 MiB before they were sparse)
    report, peak = _traced_run(capsys, "--algebra", "S3", "--field", "gf:5", "--mode", "SHH",
                               "--route", "resolution", "--max-degree", "3")
    assert report["dims"] == [3, 0, 0]
    assert peak <= 20 << 20


@pytest.mark.parametrize("key", ["counit", "antipode", "field", "dim", "order"])
def test_infinite_number_in_algebra_file_is_a_schema_error(tmp_path, capsys, key):
    # JSON Infinity (and 1e400, which parses the same) has no exact value;
    # reading it is a schema error, not a traceback
    sc3 = pathlib.Path(__file__).with_name("golden") / "algebras" / "sC3-gf3.json"
    obj = json.loads(sc3.read_text())
    if key == "order":
        obj = {"order": 3, "table": cyclic_group_table(3)}
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(_with_infinity(obj, key)))
    code, report = run_json(capsys, "--algebra", str(path), "--mode", "validate")
    assert code == 2
    assert report["error"]["code"] == 2
    assert report["dims"] == []


def test_max_degree_must_be_positive(capsys):
    code, report = run_json(capsys, "--algebra", "Cp:3", "--field", "gf:3",
                            "--mode", "SH", "--max-degree", "0")
    assert code == 2


def test_resolution_mode_builds_the_resolution_once(capsys, monkeypatch):
    from symcoh import resolution
    built = []
    original = resolution.sym_resolution_complex

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(resolution, "sym_resolution_complex", counting)
    code, report = run_json(capsys, "--algebra", "S3", "--field", "gf:5",
                            "--mode", "resolution", "--max-degree", "3")
    assert code == 0
    assert len(built) == 1
    assert [c["name"] for c in report["checks"]][-3:] == ["homotopy_0", "homotopy_1",
                                                          "homotopy_2"]
