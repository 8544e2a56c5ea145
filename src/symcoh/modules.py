"""Left modules and bimodules over a Hopf algebra, given by action matrices.

Conventions fixed for the whole package:
  * Hom_k(X, M) is flattened column-major by domain index:
    a matrix F lands at flat index  col * dim(M) + row.
  * L tensor M is flattened with the left factor most significant:
    (l, m) lands at  l * dim(M) + m.
Both match kron(A, B) with A indexing the most significant part.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidBimodule, InvalidModule
from .hopf import HopfAlgebra, multiplication_array
from .linalg import Matrix, Subspace, intersect_kernels


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with the left factor most significant.

    Only the products of two nonzero entries are formed; over GF(p) each
    is one product of two reduced entries, which int64 holds exactly at
    every modulus a Field accepts.
    """
    fld = a.field
    out = Matrix.zeros(fld, a.rows * b.rows, a.cols * b.cols)
    ia, ja = np.nonzero(a.data)
    ib, jb = np.nonzero(b.data)
    out.data[np.add.outer(ia * b.rows, ib), np.add.outer(ja * b.cols, jb)] = \
        fld.reduce(np.multiply.outer(a.data[ia, ja], b.data[ib, jb]))
    return out


class LeftModule:
    """A left module: one action matrix per algebra basis element.

    `tail` is the number of trailing tensor slots, acted on from the
    right, that the cochain constructions carry for these coefficients:
    0 for a left module, 1 for a bimodule.
    """

    tail = 0

    def __init__(self, dim: int, action: list):
        self.dim = dim
        self.action = action

    def act_element(self, h: HopfAlgebra, vec: dict) -> Matrix:
        """Action matrix of the algebra element with coordinates vec."""
        out = Matrix.zeros(self.action[0].field, self.dim, self.dim)
        for i, c in vec.items():
            out = out + self.action[i].scale(c)
        return out

    def __repr__(self):
        return f"<LeftModule dim {self.dim}>"


class Bimodule(LeftModule):
    """Commuting left and right actions; right[i] is the matrix of m -> m . b_i."""

    tail = 1

    def __init__(self, dim: int, left: list, right: list):
        super().__init__(dim, left)
        self.right = right

    @property
    def left(self) -> list:
        return self.action

    def right_act_element(self, h: HopfAlgebra, vec: dict) -> Matrix:
        out = Matrix.zeros(self.right[0].field, self.dim, self.dim)
        for i, c in vec.items():
            out = out + self.right[i].scale(c)
        return out

    def __repr__(self):
        return f"<Bimodule dim {self.dim}>"


def _is_unital_representation(h: HopfAlgebra, mats, compose):
    """Check rho(1) = id and rho(b_i b_j) = compose(rho_i, rho_j)."""
    fld = h.field
    m = mats[0].rows
    unit_mat = Matrix.zeros(fld, m, m)
    for i, c in h.unit_dict().items():
        unit_mat = unit_mat + mats[i].scale(c)
    if unit_mat != Matrix.identity(fld, m):
        return False, "unit does not act as identity"
    for i in range(h.dim):
        for j in range(h.dim):
            expect = Matrix.zeros(fld, m, m)
            for k, c in h.mult[i][j].items():
                expect = expect + mats[k].scale(c)
            if compose(mats[i], mats[j]) != expect:
                return False, f"representation identity fails at ({h.basis_labels[i]}, {h.basis_labels[j]})"
    return True, None


def validate_left_module(h: HopfAlgebra, mod: LeftModule) -> bool:
    if len(mod.action) != h.dim or any(a.rows != mod.dim or a.cols != mod.dim
                                       for a in mod.action):
        raise InvalidModule("action matrix shapes do not match")
    ok, why = _is_unital_representation(h, mod.action, lambda a, b: a @ b)
    if not ok:
        raise InvalidModule(why)
    return True


def validate_bimodule(h: HopfAlgebra, mod: Bimodule) -> bool:
    shapes_ok = (len(mod.left) == h.dim == len(mod.right)
                 and all(a.rows == mod.dim == a.cols for a in mod.left + mod.right))
    if not shapes_ok:
        raise InvalidBimodule("action matrix shapes do not match")
    ok, why = _is_unital_representation(h, mod.left, lambda a, b: a @ b)
    if not ok:
        raise InvalidBimodule(why)
    # right action is an anti-homomorphism: R(b_i b_j) = R_j R_i
    ok, why = _is_unital_representation(h, mod.right, lambda a, b: b @ a)
    if not ok:
        raise InvalidBimodule(f"right {why}")
    if any(left @ right != right @ left for left in mod.left for right in mod.right):
        raise InvalidBimodule("left and right actions do not commute")
    return True


def validate_module(h: HopfAlgebra, mod: LeftModule) -> bool:
    """Validate coefficients of either kind, raising on failure."""
    if mod.tail:
        return validate_bimodule(h, mod)
    return validate_left_module(h, mod)


# -- constructions -------------------------------------------------------


def trivial_module(h: HopfAlgebra) -> LeftModule:
    """The base field with action through the counit."""
    return LeftModule(1, [Matrix.from_rows(h.field, [[h.counit[i]]]) for i in range(h.dim)])


def trivial_bimodule(h: HopfAlgebra) -> Bimodule:
    mats = [Matrix.from_rows(h.field, [[h.counit[i]]]) for i in range(h.dim)]
    return Bimodule(1, mats, [m.copy() for m in mats])


def _regular_actions(h: HopfAlgebra, side: int) -> list:
    """Left (side 1) or right (side 2) multiplication by each b_i: the slices
    of multiplication_array at i along the axis of the left or right factor."""
    mult = multiplication_array(h)
    return [Matrix(h.field, mult.take(i, axis=side)) for i in range(h.dim)]


def regular_left_module(h: HopfAlgebra) -> LeftModule:
    return LeftModule(h.dim, _regular_actions(h, 1))


def regular_bimodule(h: HopfAlgebra) -> Bimodule:
    """A acting on itself by left and right multiplication."""
    return Bimodule(h.dim, _regular_actions(h, 1), _regular_actions(h, 2))


def adjoint_module(h: HopfAlgebra, bim: Bimodule) -> LeftModule:
    """The left module on bim with a . m = a1 m S(a2)."""
    validate_bimodule(h, bim)
    fld = h.field
    mats = []
    for i in range(h.dim):
        acc = Matrix.zeros(fld, bim.dim, bim.dim)
        for (j, k), c in h.comult[i].items():
            right_of_sk = bim.right_act_element(h, h.antipode_column(k))
            acc = acc + (bim.left[j] @ right_of_sk).scale(c)
        mats.append(acc)
    return LeftModule(bim.dim, mats)


def invariants(h: HopfAlgebra, mod: LeftModule) -> Subspace:
    """The subspace where every b_i acts by its counit scalar."""
    fld = h.field
    eye = Matrix.identity(fld, mod.dim)
    return intersect_kernels(fld, mod.dim, [
        (mod.dim, lambda k, c=mod.action[i] - eye.scale(h.counit[i]): c @ k)
        for i in range(h.dim)])


def tensor_module(h: HopfAlgebra, l: LeftModule, m: LeftModule) -> LeftModule:
    """L tensor M with the diagonal action a . (l tensor m) = a1 l tensor a2 m."""
    fld = h.field
    mats = []
    for i in range(h.dim):
        acc = Matrix.zeros(fld, l.dim * m.dim, l.dim * m.dim)
        for (j, k), c in h.comult[i].items():
            acc = acc + kron(l.action[j], m.action[k]).scale(c)
        mats.append(acc)
    return LeftModule(l.dim * m.dim, mats)


def hom_equivariant(h: HopfAlgebra, x: LeftModule, m: LeftModule) -> Subspace:
    """Hom_A(X, M) inside flattened Hom_k(X, M): F rho^X_i = rho^M_i F for
    all i, and for bimodules the same with the right actions.

    Each equation is one constraint of `intersect_kernels`, applied to the
    basis K of the solutions so far: every column of K is a flattened
    m x x matrix F, so F rho^X is one product on the domain index and
    rho^M F one on the value index.  No Kronecker product is formed.
    """
    xd, md = x.dim, m.dim
    pairs = [(x.action[i], m.action[i]) for i in range(h.dim)]
    if m.tail:
        pairs += [(x.right[i], m.right[i]) for i in range(h.dim)]

    def constraint(rho_x, rho_m):
        def apply(k):
            w = k.cols
            # rows of k are (domain a, value b): F rho^X acts on a ...
            right = (rho_x.transpose() @ k.reshape(xd, md * w)).reshape(xd * md, w)
            # ... and rho^M F on b, which is last in the rows of k^T as (w, a) x b
            left = (k.transpose().reshape(w * xd, md) @ rho_m.transpose()) \
                .reshape(w, xd * md).transpose()
            return right - left
        return xd * md, apply

    return intersect_kernels(h.field, xd * md, [constraint(rx, rm) for rx, rm in pairs])
