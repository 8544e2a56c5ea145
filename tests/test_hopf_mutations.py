"""Replay of `validate_hopf`'s verdicts on single-constant mutations.

`tests/golden/hopf_mutations.json` holds base algebras in the CLI's JSON
schema and seeded mutations of them, each of which sets one structure
constant (of mult, comult, unit, counit or antipode) to another value.
For every mutation, and for each unmutated algebra, it records the
failing checks of `validate_hopf(h, require_cocommutative=True)` as
(name, witness) pairs and the cocommutative and commutative flags.  The
verdicts were taken from the Sweedler-dict implementation that the
matrix form replaced; regenerating the file would hide a change of
verdict, so it is only for a deliberate change of the checks:

    PYTHONPATH=src:perfbench python tests/test_hopf_mutations.py
"""

import copy
import json
import pathlib
import random

import pytest

from symcoh.cli import hopf_from_json
from symcoh.hopf import validate_hopf

GOLDEN = pathlib.Path(__file__).with_name("golden") / "hopf_mutations.json"
CHECKS = ("associativity", "unit", "coassociativity", "counit", "comult_algebra_map",
          "counit_algebra_map", "antipode", "antipode_antihomomorphism", "antipode_unit",
          "counit_antipode", "antipode_comult", "antipode_involutive", "cocommutativity")
ARITY = {"mult": 3, "comult": 3, "unit": 1, "counit": 1, "antipode": 2}
MUTATIONS_PER_ALGEBRA = 40


def mutate(obj: dict, mutation) -> dict:
    """The algebra description with one structure constant replaced."""
    if mutation is None:
        return obj
    obj = copy.deepcopy(obj)
    part, index, value = mutation["part"], mutation["index"], mutation["value"]
    if part in ("mult", "comult"):
        obj[part] = [e for e in obj[part] if e[:3] != index] + [index + [value]]
    elif part == "antipode":
        obj[part][index[0]][index[1]] = value
    else:
        obj[part][index[0]] = value
    return obj


def verdict(h, require_cocommutative=True):
    report = validate_hopf(h, require_cocommutative=require_cocommutative)
    return {"failures": [[c.name, c.witness] for c in report.failures()],
            "names": [c.name for c in report.checks],
            "cocommutative": report.cocommutative, "commutative": report.commutative}


def _golden():
    return json.loads(GOLDEN.read_text())


def _by_algebra():
    golden = _golden()
    return [pytest.param(obj, [c for c in golden["cases"] if c["algebra"] == name], id=name)
            for name, obj in golden["algebras"].items()]


@pytest.mark.parametrize("base, cases", _by_algebra())
def test_mutation_verdicts_match_the_frozen_ones(base, cases):
    wrong = []
    for case in cases:
        h = hopf_from_json(mutate(base, case["mutation"]), None)
        for require in (True, False):
            names = [n for n in CHECKS if n != "antipode_involutive"
                     or case["cocommutative"] or case["commutative"]]
            failures = case["failures"]
            if not require:
                names = names[:-1]
                failures = [f for f in failures if f[0] != "cocommutativity"]
            expect = {"failures": failures, "names": names,
                      "cocommutative": case["cocommutative"],
                      "commutative": case["commutative"]}
            got = verdict(h, require)
            if got != expect:
                wrong.append((case["mutation"], require, got, expect))
    assert not wrong, wrong[:3]


def test_every_check_fails_somewhere_in_the_set():
    failed = {name for case in _golden()["cases"] for name, _ in case["failures"]}
    assert failed == set(CHECKS)


# -- regeneration ---------------------------------------------------------------


def _candidates(obj):
    field = obj["field"]
    if field["kind"] == "prime":
        return [str(x) for x in range(field["p"])]
    return ["0", "1", "-1", "2", "-1/2", "3/2"]


def _current(obj, part, index):
    if part in ("mult", "comult"):
        return next((e[3] for e in obj[part] if e[:3] == index), "0")
    if part == "antipode":
        return obj[part][index[0]][index[1]]
    return obj[part][index[0]]


def draw_mutations(obj, rng, count):
    from symcoh.cli import _field_from_json
    field = _field_from_json(obj["field"])
    out = []
    for _ in range(count):
        part = rng.choice(sorted(ARITY))
        index = [rng.randrange(obj["dim"]) for _ in range(ARITY[part])]
        now = field.parse(_current(obj, part, index))
        value = rng.choice([v for v in _candidates(obj) if field.parse(v) != now])
        out.append({"part": part, "index": index, "value": value})
    return out


def base_algebras():
    """kC1, kC3 and kS3 over GF(2), GF(3), GF(5) and Q, the two frozen
    algebras without a group basis, and the benchmark's generic draws of
    seed 0."""
    from inputs import generic_algebra
    from symcoh.cli import hopf_to_json
    from symcoh.fields import Field
    from symcoh.hopf import group_algebra, named_group_table
    from workloads import WORKLOADS

    out = {"C1-q": hopf_to_json(group_algebra(1, [[0]], Field.rationals()))}
    fields = {"gf2": Field.prime(2), "gf3": Field.prime(3), "gf5": Field.prime(5),
              "q": Field.rationals()}
    for name in ("Cp:3", "S3"):
        table = named_group_table(name)
        for tag, fld in fields.items():
            out[f"{name.replace(':', '')}-{tag}"] = hopf_to_json(
                group_algebra(len(table), table, fld))
    for stem in ("sC3-gf3", "sC2-q"):
        out[stem] = json.loads((GOLDEN.parent / "algebras" / f"{stem}.json").read_text())
    for key, spec in sorted(WORKLOADS["generic"].algebras.items()):
        out[key] = generic_algebra(spec, random.Random(f"0:{key}"))[0]
    return out


def regenerate():
    algebras = base_algebras()
    cases = []
    for name, obj in algebras.items():
        rng = random.Random(f"hopf-mutations:{name}")
        for mutation in [None] + draw_mutations(obj, rng, MUTATIONS_PER_ALGEBRA):
            got = verdict(hopf_from_json(mutate(obj, mutation), None))
            cases.append({"algebra": name, "mutation": mutation, "failures": got["failures"],
                          "cocommutative": got["cocommutative"],
                          "commutative": got["commutative"]})
    # one case a line, so a diff of the file shows which verdicts moved
    GOLDEN.write_text('{"algebras": ' + json.dumps(algebras) + ',\n"cases": [\n'
                      + ",\n".join(json.dumps(c) for c in cases) + "\n]}\n")


if __name__ == "__main__":
    regenerate()
