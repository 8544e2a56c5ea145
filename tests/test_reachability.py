"""Every function of `symcoh` is entered by a run that has a caller
outside the tests: a golden CLI case, a validation, or the benchmark's
input writer.  A construction that only the tests use belongs in
tests/oracles.py.

Reachability is what the runs execute, not what names appear: a fresh
interpreter (no cache filled by another test) runs every golden case in
JSON, one in table format, `validate` on a builtin and on a
non-coassociative algebra file (the last through `cli.console`, the
process entry), and `perfbench/inputs.materialize` for
both workloads at seed 7, under `sys.setprofile`, and reports the code
objects of `src/symcoh` it entered.  Every `def` there, methods, nested
functions and dunders included, is keyed by the line its code object
reports (`co_firstlineno`: the first decorator line of a decorated def).
ALLOWED keeps what waits for a planned caller, with the ROADMAP item
that names it.

To list what the runs leave unentered, run

    PYTHONPATH=src python tests/test_reachability.py --unentered
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "symcoh"

_ITEM4 = "ROADMAP item 4, the certified map SH -> H"
_ITEM3 = "ROADMAP item 3, the projectivity certificates"
_TRACER = "ROADMAP item 1: perfbench/traced_job.py reads it, so traced runs need it"
ALLOWED = {
    "complexes.InducedMapReport.matrix": _ITEM4,
    "complexes.InducedMapReport.is_injective": _ITEM4,
    "complexes._cohomology_basis": _ITEM4,
    "complexes.induced_map_on_cohomology": _ITEM4,
    "linalg.Matrix.transpose": _ITEM4 + " (only quotient calls it)",
    "linalg.kernel_basis": _ITEM4 + " (only its cohomology bases call it)",
    "linalg.solve_columns": _ITEM4 + " (only its cohomology bases call it)",
    "linalg.quotient": _ITEM4 + " (only its cohomology bases call it)",
    "resolution.splitting_maps": _ITEM3,
    "resolution.splitting_maps.face_t": _ITEM3 + " (the transposed face map of phi)",
    "fields.Field.from_int": _ITEM3 + " (only splitting_maps calls it)",
    "sparse.SparseMatrix.cols_data": _TRACER,
    "resolution.CoinvariantSpace.ambient_dim": _TRACER,
    "linalg.Matrix.__eq__":
        "tests compare Matrix values with ==; without it they would compare identities",
}


def definitions():
    """(qualified name, file, key line) of every def in the package; the key
    line is the first decorator line of a decorated def, else its own."""
    out = []

    def walk(node, path, prefix):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}.{sub.name}"
                if not isinstance(sub, ast.ClassDef):
                    line = min([d.lineno for d in sub.decorator_list] + [sub.lineno])
                    out.append((qual, str(path), line))
                walk(sub, path, qual)
            else:
                walk(sub, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, path.stem)
    return out


def _runs():
    """Run every caller outside the tests, in this process."""
    import contextlib
    import io

    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
    from test_golden import GOLDEN, cases, run_case

    argvs = [argv for _name, argv in cases()]
    table = dict(cases())["S3-gf5-SH-resolution-cross"]
    argvs.append([a if a != "json" else "table" for a in table])
    argvs.append(["--algebra", "S3", "--field", "gf:5", "--mode", "validate"])
    argvs.append(["--algebra", str(GOLDEN / "algebras" / "sC3-gf3-noncoassociative.json"),
                  "--mode", "validate"])
    for argv in argvs[:-1]:
        run_case(argv)
    # the last through the process entry, which exits by SystemExit
    from symcoh.cli import console
    saved, sys.argv = sys.argv, ["symcoh", *argvs[-1]]
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            console()
    finally:
        sys.argv = saved
    from inputs import materialize
    from workloads import WORKLOADS
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for workload in WORKLOADS.values():
            materialize(workload.algebras, 7, tmp)


def entered_here() -> list:
    """[file, first line] of every code object of the package that _runs
    enters."""
    prefix = str(SRC) + os.sep
    seen = set()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        _runs()
    finally:
        sys.setprofile(None)
    return sorted(seen)


def unentered_of(entered) -> list:
    """Qualified names of the defs whose [file, key line] is not in entered."""
    entered = {tuple(x) for x in entered}
    return [qual for qual, path, line in definitions() if (path, line) not in entered]


@pytest.fixture(scope="module")
def unentered():
    """The defs that no run entered, from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, __file__], env=env, cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return unentered_of(json.loads(proc.stdout.splitlines()[-1]))


def test_every_def_is_entered_by_a_run_outside_the_tests(unentered):
    dead = [q for q in unentered if q not in ALLOWED]
    assert dead == [], f"no run enters {dead}: delete them, or move them to tests/oracles.py"


def test_allowed_names_are_defined_and_still_unentered(unentered):
    # an entry whose def is gone, or that a run now enters, leaves the list
    assert sorted(ALLOWED) == sorted(q for q in unentered if q in ALLOWED)


if __name__ == "__main__":
    found = entered_here()
    print("\n".join(unentered_of(found)) if "--unentered" in sys.argv else json.dumps(found))
