"""Byte identity of the CLI's JSON reports against committed golden files.

Each case runs `symcoh.cli.main` in-process and compares its stdout and
exit code with `tests/golden/<case>.json` and `tests/golden/exit_codes.json`.
The builtin group algebras run over GF(2), GF(3), GF(5) and Q; over
GF(2) the coinvariants are symmetric powers rather than exterior ones,
the characteristic-2 branch of `resolution._sorted_tuple_coinvariants`.
Besides the builtin group algebras, the cases read three algebras with
no group-like basis from `tests/golden/algebras/`: scrambled kC3 over
GF(3) (`sC3-gf3`) and scrambled kC2 over Q (`sC2-q`), frozen from
`test_generic_hopf`, and k[x]/(x^5) over GF(5) with x primitive
(`u1-gf5`, from `tests/restricted.py`), the first that is not a group
algebra in another basis.  Their diagonal actions are those of the
sparse tensor power of the regular module rather than permutations, in
the equivariant bases and in the induced actions on the coinvariants.
To regenerate the files after a deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import json
import pathlib
import sys

import pytest

GOLDEN = pathlib.Path(__file__).with_name("golden")
ALGEBRAS = {"Cp:3": 3, "S3": 2}  # builtin algebra -> max degree
FIELDS = ("gf:2", "gf:3", "gf:5", "q")
FROZEN = {"sC3-gf3": 3, "sC2-q": 3, "u1-gf5": 3}  # algebra file stem -> max degree
# cp-table on larger cyclic groups in their own characteristic, at max degree 5
CP_TABLES = ("5", "7")


def cases():
    """(name, argv) of every golden case."""
    out = []
    sources = [(f"{alg.replace(':', '')}-{fld.replace(':', '')}",
                ["--algebra", alg, "--field", fld], top)
               for alg, top in ALGEBRAS.items() for fld in FIELDS]
    sources += [(stem, ["--algebra", str(GOLDEN / "algebras" / f"{stem}.json")], top)
                for stem, top in FROZEN.items()]
    for stem, source, top in sources:
        base = source + ["--max-degree", str(top), "--format", "json"]

        def add(name, *extra):
            out.append((f"{stem}-{name}", base + list(extra)))

        for mod in ("trivial", "regular"):
            add(f"H-{mod}", "--mode", "H", "--module", mod)
            add(f"HH-{mod}", "--mode", "HH", "--module", mod)
            for route in ("bar", "resolution"):
                add(f"SH-{route}-{mod}", "--mode", "SH", "--module", mod, "--route", route)
                add(f"SHH-{route}-{mod}", "--mode", "SHH", "--module", mod, "--route", route)
        for route in ("bar", "resolution"):
            add(f"SH-{route}-cross", "--mode", "SH", "--route", route,
                "--cross-check")
            add(f"corollary-{route}", "--mode", "corollary-check", "--route", route)
            add(f"SHH-{route}-cross", "--mode", "SHH", "--route", route, "--cross-check")
        add("resolution", "--mode", "resolution")
        add("compare-adjoint", "--mode", "compare-adjoint")
        if stem not in FROZEN:
            add("cp-table", "--mode", "cp-table")
    for p in CP_TABLES:
        out.append((f"Cp{p}-gf{p}-cp-table",
                    ["--algebra", f"Cp:{p}", "--field", f"gf:{p}", "--max-degree", "5",
                     "--format", "json", "--mode", "cp-table"]))
    return out


def run_case(argv):
    """(stdout, exit code) of one in-process CLI run."""
    import io
    from contextlib import redirect_stdout

    from symcoh.cli import main
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return buf.getvalue(), code


CASES = cases()


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(name, argv, exit_codes):
    out, code = run_case(argv)
    assert out == (GOLDEN / f"{name}.json").read_text()
    assert code == exit_codes[name]


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in CASES:
        out, codes[name] = run_case(argv)
        (GOLDEN / f"{name}.json").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(regenerate())
