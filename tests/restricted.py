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
