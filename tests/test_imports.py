"""Each CLI mode loads only the layers it runs.

Every case runs `cli.main` in a fresh interpreter and compares the
`symcoh.*` entries of `sys.modules` with the layers that mode needs, so
the imports of this test process stay out of the count.  `validate`
stops at the Hopf algebra; the bar route never loads `resolution` or
`hochschild`, the resolution route never loads `bar` (unless
`--cross-check` asks for the other route) or `hochschild`, and
`compare-adjoint` never loads `resolution`.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

HOPF = {"cli", "errors", "fields", "hopf", "linalg", "sparse"}
COCHAINS = HOPF | {"complexes", "modules", "tensors"}
BAR = COCHAINS | {"bar"}
RESOLUTION = COCHAINS | {"resolution"}

S3 = ["--algebra", "S3", "--field", "gf:5"]
C3 = ["--algebra", "Cp:3", "--field", "gf:3"]

CASES = {
    "validate": (S3 + ["--mode", "validate"], HOPF),
    "H": (S3 + ["--mode", "H"], BAR),
    "SH-bar": (S3 + ["--mode", "SH"], BAR),
    "SH-bar-cross": (S3 + ["--mode", "SH", "--cross-check"], BAR),
    "SH-resolution": (S3 + ["--mode", "SH", "--route", "resolution"], RESOLUTION),
    "SH-resolution-cross": (S3 + ["--mode", "SH", "--route", "resolution", "--cross-check"],
                            RESOLUTION | {"bar"}),
    "SHH-bar": (S3 + ["--mode", "SHH"], BAR),
    "SHH-resolution": (S3 + ["--mode", "SHH", "--route", "resolution"], RESOLUTION),
    "compare-adjoint": (S3 + ["--mode", "compare-adjoint"], BAR | {"hochschild"}),
    "corollary-bar": (C3 + ["--mode", "corollary-check"], BAR | {"hochschild"}),
    "corollary-resolution": (C3 + ["--mode", "corollary-check", "--route", "resolution"],
                             BAR | RESOLUTION | {"hochschild"}),
    "cp-table": (C3 + ["--mode", "cp-table"], RESOLUTION),
    "resolution": (S3 + ["--mode", "resolution"], RESOLUTION),
}

PROGRAM = """
import contextlib, io, json, sys
import symcoh
code = None
if sys.argv[1:]:
    from symcoh import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(name[len("symcoh."):] for name in sys.modules
                               if name.startswith("symcoh."))]))
"""


def loaded_layers(argv):
    """(exit code, sorted symcoh submodules) after `cli.main(argv)` in a new
    interpreter; with no argv, after `import symcoh` alone (code None)."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, "-c", PROGRAM, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_mode_loads_only_the_layers_it_runs(case):
    argv, layers = CASES[case]
    assert loaded_layers(argv + ["--max-degree", "2"]) == [0, sorted(layers)]


def test_importing_the_package_loads_no_layer():
    assert loaded_layers([]) == [None, []]
