"""Independent oracles the test suite checks the engine against.

These never touch the bar machinery: the cyclic-group oracle uses the
two-periodic free resolution of the trivial module, and the
semisimple-case oracle uses averaging (invariants in degree zero,
nothing above).  The descent oracle is the tuple-by-tuple form of the
coinvariant self-check that `symcoh.resolution` runs on index arrays, and
the diagonal-action oracle is the tuple-by-tuple Sweedler expansion that
`symcoh.tensors` computes as one tensor contraction per slot.
"""

import itertools

from symcoh.hopf import HopfAlgebra, iterated_comult
from symcoh.linalg import Matrix, kernel_basis, rank
from symcoh.modules import LeftModule, invariants
from symcoh.sparse import SparseMatrix


def periodic_cyclic_cohomology_dims(h: HopfAlgebra, mod: LeftModule, top: int):
    """H^0..H^top of a cyclic group algebra from the resolution
    ... -> A -(norm)-> A -(g-1)-> A -> k: cochain maps alternate
    (g-1) and the norm acting on M."""
    assert h.group_like
    n = h.dim
    g = 1 if n > 1 else 0  # cyclic tables put the generator at index 1
    rho = mod.action[g]
    eye = Matrix.identity(h.field, mod.dim)
    t = rho - eye
    norm = Matrix.zeros(h.field, mod.dim, mod.dim)
    power = eye
    for _ in range(n):
        norm = norm + power
        power = power @ rho
    maps = [t if i % 2 == 0 else norm for i in range(top + 1)]
    dims = []
    prev_rank = 0
    for i in range(top + 1):
        k = kernel_basis(maps[i]).dim
        dims.append(k - prev_rank)
        prev_rank = rank(maps[i])
    return dims


def maschke_cohomology_dims(h: HopfAlgebra, mod: LeftModule, top: int):
    """Over a splitting characteristic the higher cohomology vanishes and
    degree zero is the invariants."""
    return [invariants(h, mod).dim] + [0] * top


def descends_to_quotient(field, d, slots, sym_slots, projected) -> bool:
    """True when the sparse operator `projected` on A^(tensor slots) kills
    every relation swap_i(v) + v, i < sym_slots, walking every tuple."""
    def flat(tup):
        idx = 0
        for t in tup:
            idx = idx * d + t
        return idx

    cols = [dict() for _ in range(projected.cols)]
    for i, j, v in zip(*(a.tolist() for a in projected.triples())):
        cols[j][i] = v
    for tup in itertools.product(range(d), repeat=slots):
        base = cols[flat(tup)]
        for i in range(1, sym_slots):
            if tup[i - 1] <= tup[i]:
                continue  # each unordered pair once; i-1 == i gives 2v = 0 too
            swapped = list(tup)
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            other = cols[flat(swapped)]
            if len(base) != len(other):
                return False
            for k, v in base.items():
                if field.add(v, other.get(k, field.zero())) != 0:
                    return False
        # repeated adjacent entries force 2v = 0 on the image column
        if base and any(tup[i - 1] == tup[i] for i in range(1, sym_slots)):
            if any(field.add(v, v) != 0 for v in base.values()):
                return False
    return True


def diagonal_action(h: HopfAlgebra, b: int, slots: int) -> SparseMatrix:
    """Left multiplication of b_b on A^(tensor slots) through the iterated
    comultiplication, expanding the Sweedler legs tuple by tuple."""
    d = h.dim
    fld = h.field

    def flat(tup):
        idx = 0
        for t in tup:
            idx = idx * d + t
        return idx

    rows, cols, vals = [], [], []
    legs = iterated_comult(h, b, slots - 1).coeffs
    for tup in itertools.product(range(d), repeat=slots):
        col = flat(tup)
        for leg_tuple, c in legs.items():
            # multiply slotwise: expand the product of b_leg and b_slot
            partial = [((), c)]
            for r in range(slots):
                cell = h.mult[leg_tuple[r]][tup[r]]
                partial = [(pt + (k,), fld.mul(pc, ck))
                           for pt, pc in partial for k, ck in cell.items()]
            for pt, pc in partial:
                rows.append(flat(pt))
                cols.append(col)
                vals.append(pc)
    return SparseMatrix(fld, d ** slots, d ** slots, (rows, cols, vals))
