"""Every public function, class and method of `symcoh` has a caller
outside the tests: another place in `src/symcoh` (the exports of its
`__init__` included) or the benchmark harness in `perfbench/`.  A
construction that only the tests use belongs in tests/oracles.py.

A name counts as used where it appears as a name, an attribute or an
imported name outside its own definition.  ALLOWED keeps what waits for
a planned caller, with the ROADMAP item that names it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "symcoh"
CALLERS = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))

ALLOWED = {
    "complexes.induced_map_on_cohomology": "ROADMAP item 4, the compare-classical mode",
    "complexes.InducedMapReport.is_injective": "ROADMAP item 4, the compare-classical mode",
    "complexes.InducedMapReport.matrix": "ROADMAP item 4, the compare-classical mode",
}


def public_definitions():
    """(qualified name, name, file, first line, last line) of every public
    module-level function and class of the package and of every public
    method of those classes."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield (f"{path.stem}.{node.name}.{sub.name}", sub.name, path,
                               sub.lineno, sub.end_lineno)


def references() -> dict:
    """Identifier -> list of (file, line) where CALLERS use it."""
    out = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            out.setdefault(name, []).append((path, node.lineno))
    return out


def unused() -> list:
    """Qualified names of the public definitions with no use outside their
    own definition."""
    refs = references()
    return [qual for qual, name, path, first, last in public_definitions()
            if all(p == path and first <= line <= last for p, line in refs.get(name, ()))]


def test_every_public_definition_has_a_caller_outside_the_tests():
    assert [q for q in unused() if q not in ALLOWED] == [], \
        "only the tests use these; move them to tests/oracles.py"


def test_allowed_names_still_wait_for_their_caller():
    # an entry whose name gained a caller, or is gone, leaves the list
    assert sorted(ALLOWED) == sorted(q for q in unused() if q in ALLOWED)
