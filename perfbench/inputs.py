"""Seeded inputs for the benchmark workloads.

Group workloads relabel the non-identity elements of a Cayley table, which
leaves every cohomology dimension unchanged.  The generic workload moves a
group algebra to a random unitriangular basis, so the structure constants
are no longer group-like and every group fast path is bypassed.  A draw is
kept only when its comultiplication has a fixed number of nonzero
constants and its Sweedler expansion a size inside a narrow window: without
that, the cost of one job moves many-fold between seeds.
"""

from __future__ import annotations

import json
import os
import random

from symcoh.cli import hopf_to_json
from symcoh.fields import Field
from symcoh.hopf import (HopfAlgebra, group_algebra, iterated_comult,
                         named_group_table, validate_hopf)
from symcoh.linalg import Matrix, inverse

from workloads import Canonical, Generic, Group

MAX_DRAWS = 10_000
WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "work")


def permuted_group(name: str, rng: random.Random) -> dict:
    """JSON group description of a builtin group with shuffled labels.

    Index 0 stays the identity, as the CLI requires.
    """
    table = named_group_table(name)
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    relabel = [0] + rest
    new = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            new[relabel[a]][relabel[b]] = relabel[table[a][b]]
    return {"order": n, "table": new}


def change_basis(h: HopfAlgebra, p: Matrix) -> HopfAlgebra:
    """The same Hopf algebra on the basis given by the columns of p."""
    fld = h.field
    d = h.dim
    pinv = inverse(p)
    inv_cols = [{i: pinv[i, a] for i in range(d) if pinv[i, a] != 0} for a in range(d)]

    def to_new(vec: dict) -> dict:
        out: dict = {}
        for a, c in vec.items():
            for i, v in inv_cols[a].items():
                out[i] = fld.add(out.get(i, fld.zero()), fld.mul(v, c))
        return {k: v for k, v in out.items() if v != 0}

    cols = [{a: p[a, i] for a in range(d) if p[a, i] != 0} for i in range(d)]
    mult = [[to_new(h.product(cols[i], cols[j])) for j in range(d)] for i in range(d)]
    unit = [fld.zero()] * d
    for i, v in to_new(h.unit_dict()).items():
        unit[i] = v
    comult = []
    for i in range(d):
        acc: dict = {}
        for a, c in cols[i].items():
            for (x, y), e in h.comult[a].items():
                ce = fld.mul(c, e)
                for u, pu in inv_cols[x].items():
                    for v, pv in inv_cols[y].items():
                        acc[(u, v)] = fld.add(acc.get((u, v), fld.zero()),
                                              fld.mul(ce, fld.mul(pu, pv)))
        comult.append({k: v for k, v in acc.items() if v != 0})
    counit = [h.counit_of(cols[i]) for i in range(d)]
    antipode = (pinv @ h.antipode) @ p
    return HopfAlgebra(fld, d, [f"c{i}" for i in range(d)], mult, unit, comult,
                       counit, antipode)


def expansion_terms(h: HopfAlgebra, slots: int) -> int:
    """Terms the Sweedler expansion of the diagonal action on `slots`
    tensor slots builds: over every basis element b and every leg tuple of
    its iterated comultiplication, the product over slots of the number of
    nonzero constants in the multiplication row of that leg."""
    row_nnz = [sum(len(cell) for cell in row) for row in h.mult]
    total = 0
    for b in range(h.dim):
        for legs in iterated_comult(h, b, slots - 1).coeffs:
            prod = 1
            for a in legs:
                prod *= row_nnz[a]
            total += prod
    return total


def structure_counts(h: HopfAlgebra, slots: int) -> dict:
    """Sizes that set the cost of the generic paths, recorded per input."""
    return {
        "comult_nnz": sum(len(c) for c in h.comult),
        "mult_nnz": sum(len(cell) for row in h.mult for cell in row),
        "sweedler_terms": sum(len(iterated_comult(h, i, slots - 1).coeffs)
                              for i in range(h.dim)),
        "expansion_terms": expansion_terms(h, slots),
    }


def generic_algebra(spec: Generic, rng: random.Random):
    """A cocommutative, non-group-like basis change meeting spec's targets.

    Returns (JSON description, structure counts, number of draws).
    Raises RuntimeError when no draw meets them within MAX_DRAWS.
    """
    p = spec.p
    field = Field.prime(p)
    table = named_group_table(spec.group)
    base = group_algebra(len(table), table, field)
    d = base.dim
    for draw in range(1, MAX_DRAWS + 1):
        rows = [[1 if i == j else (rng.randrange(p) if j > i else 0)
                 for j in range(d)] for i in range(d)]
        h = change_basis(base, Matrix.from_rows(field, rows))
        if sum(len(c) for c in h.comult) != spec.comult_nnz:
            continue
        if not spec.expansion_lo <= expansion_terms(h, spec.slots) <= spec.expansion_hi:
            continue
        if h.group_like or not validate_hopf(h, require_cocommutative=True).passed:
            continue
        return hopf_to_json(h), structure_counts(h, spec.slots), draw
    raise RuntimeError(f"no basis change of k{spec.group} over GF({p}) meets {spec}")


def materialize(algebras: dict, seed: int, directory: str) -> dict:
    """Write each algebra of a workload for `seed` into `directory`.

    Returns {key: (CLI arguments naming the algebra and field, counts)}.
    Each key draws from its own generator, so adding an algebra to a
    workload leaves the others' inputs unchanged.
    """
    out = {}
    for key, spec in sorted(algebras.items()):
        rng = random.Random(f"{seed}:{key}")
        if isinstance(spec, Canonical):
            out[key] = (["--algebra", spec.name, "--field", spec.field], {})
            continue
        if isinstance(spec, Group):
            obj, counts = permuted_group(spec.name, rng), {}
            args = ["--field", spec.field]
        else:
            obj, counts, draws = generic_algebra(spec, rng)
            counts["draws"] = draws
            args = []
        path = os.path.join(directory, f"{key}.json")
        with open(path, "w") as f:
            json.dump(obj, f)
        out[key] = (["--algebra", path] + args, counts)
    return out
