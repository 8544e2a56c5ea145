"""The restricted enveloping algebra of the one-dimensional Lie algebra in
characteristic p: k[x]/(x^p) with x primitive.

On the basis x^0, ..., x^(p-1):
  x^i x^j = x^(i+j) (zero from x^p on),
  Delta(x^k) = sum_i C(k, i) x^i tensor x^(k-i),
  eps(x^k) = 0 for k > 0, and S(x^k) = (-1)^k x^k.
It is commutative and cocommutative, and 1 is its only group-like element,
so no change of basis turns it into a group algebra.  As an augmented
algebra it is isomorphic to kC_p (x -> g - 1), which pins its H; its SH
depends on the coalgebra and is new data.

hopf_tensor builds the tensor product of two Hopf algebras, so
hopf_tensor(restricted_enveloping(p), restricted_enveloping(p)) is
u(k^2) = k[x, y]/(x^p, y^p) with x and y primitive.
"""

from math import comb

from symcoh.fields import Field
from symcoh.hopf import HopfAlgebra
from symcoh.linalg import Matrix


def restricted_enveloping(p: int) -> HopfAlgebra:
    fld = Field.prime(p)
    one, zero = fld.one(), fld.zero()
    mult = [[{i + j: one} if i + j < p else {} for j in range(p)] for i in range(p)]
    comult = [{(i, k - i): fld.from_int(comb(k, i)) for i in range(k + 1)}
              for k in range(p)]
    basis = [one] + [zero] * (p - 1)
    antipode = Matrix.zeros(fld, p, p)
    for k in range(p):
        antipode._set(k, k, fld.from_int((-1) ** k))
    labels = ["1", "x"] + [f"x^{k}" for k in range(2, p)]
    return HopfAlgebra(fld, p, labels, mult, basis, comult, list(basis), antipode)


def hopf_tensor(a: HopfAlgebra, b: HopfAlgebra) -> HopfAlgebra:
    """A tensor B over their common field, on the basis a_i tensor b_j at
    index i * dim B + j, with every structure map taken factorwise."""
    fld, db = a.field, b.dim
    if b.field != fld:
        raise ValueError("the factors must share their field")
    pairs = [(i, j) for i in range(a.dim) for j in range(db)]

    def at(i, j):
        return i * db + j

    def product(x, y):
        out = {}
        for ka, ca in x.items():
            for kb, cb in y.items():
                key = at(ka, kb) if isinstance(ka, int) else (at(ka[0], kb[0]), at(ka[1], kb[1]))
                out[key] = fld.add(out.get(key, fld.zero()), fld.mul(ca, cb))
        return out

    mult = [[product(a.mult[i][k], b.mult[j][l]) for k, l in pairs] for i, j in pairs]
    comult = [product(a.comult[i], b.comult[j]) for i, j in pairs]
    antipode = Matrix.zeros(fld, len(pairs), len(pairs))
    for i, j in pairs:
        for k, l in pairs:
            antipode._set(at(k, l), at(i, j), fld.mul(a.antipode[k, i], b.antipode[l, j]))
    labels = [f"{x}|{y}" for x in a.basis_labels for y in b.basis_labels]
    return HopfAlgebra(fld, len(pairs), labels, mult,
                       [fld.mul(a.unit[i], b.unit[j]) for i, j in pairs], comult,
                       [fld.mul(a.counit[i], b.counit[j]) for i, j in pairs], antipode)
