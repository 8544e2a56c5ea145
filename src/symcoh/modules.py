"""Left modules and bimodules over a Hopf algebra, given by action matrices.

A bimodule M enters symmetric Hochschild cohomology through its adjoint
left module ad M, a . m = a_(1) m S(a_(2)): SHH(A, M) = SH(A, ad M).  So
the homogeneous complexes and the resolution route take left modules, and
of the cochain constructions only the nonhomogeneous realization of `bar`
reads a right action.

An action is one `SparseMatrix` per algebra basis element: action[i] is
the matrix of m -> b_i . m (right[i] of m -> m . b_i for a bimodule).
Side by side they are the action map [rho_0 | ... | rho_(d-1)], the
dim M x (d * dim M) matrix of A tensor M -> M.  The module axioms are
checked the way `hopf.validate_hopf` checks the Hopf axioms, as equalities
of two sparse composites of that map with the structure maps of A
(`HopfAlgebra.maps`): the unit on M, associativity on A tensor A
tensor M.  A failure names the first basis pair (b_i, b_j) whose column
block differs.

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
from .hopf import HopfAlgebra
from .linalg import Subspace, intersect_kernels
from .sparse import SparseMatrix, apply_in_slot, combination, kron, require_terms


class LeftModule:
    """A left module: one sparse action matrix per algebra basis element."""

    def __init__(self, dim: int, action: list):
        self.dim = dim
        self.action = action

    def act_element(self, h: HopfAlgebra, vec: dict) -> SparseMatrix:
        """Action matrix of the algebra element with coordinates vec."""
        return combination(h.field, self.dim, self.dim,
                           [(c, self.action[i]) for i, c in vec.items()])


class Bimodule(LeftModule):
    """Commuting left and right actions; right[i] is the matrix of m -> m . b_i."""

    def __init__(self, dim: int, left: list, right: list):
        super().__init__(dim, left)
        self.right = right

    @property
    def left(self) -> list:
        return self.action


def _action_map(h: HopfAlgebra, mats, dim: int) -> SparseMatrix | None:
    """[rho_0 | ... | rho_(d-1)]: the map A tensor M -> M, b_i tensor v -> rho_i v;
    None unless mats are d sparse dim x dim matrices."""
    if len(mats) != h.dim or not all(isinstance(a, SparseMatrix) and a.rows == dim == a.cols
                                     for a in mats):
        return None
    return SparseMatrix(h.field, dim, h.dim * dim, [
        np.concatenate(part) for part in zip(*((a.row_idx, a.col_idx + i * dim, a.vals)
                                               for i, a in enumerate(mats)))])


def _first_block(lhs: SparseMatrix, rhs: SparseMatrix, width: int):
    """The first column block of `width` columns where lhs and rhs differ, or None."""
    diff = lhs - rhs
    return None if diff.is_zero() else int(diff.col_idx[0]) // width


def _representation_failure(h: HopfAlgebra, rho: SparseMatrix, swap: bool):
    """Why the action map rho is not a unital representation, or None:
    rho (eta tensor 1) = 1, and rho (1 tensor rho) = rho (m tensor 1) on
    A tensor A tensor M.  A right action (`swap`) is an anti-homomorphism,
    so its left side is taken after the swap tau tensor 1: v . b_i . b_j."""
    maps = h.maps
    eye = SparseMatrix.identity(h.field, rho.rows)
    if rho @ kron(maps.unit, eye) != eye:
        return "unit does not act as identity"
    lhs = rho @ kron(SparseMatrix.identity(h.field, h.dim), rho)
    if swap:
        lhs = lhs @ kron(maps.swap, eye)
    at = _first_block(lhs, rho @ kron(maps.mult, eye), rho.rows)
    if at is None:
        return None
    i, j = divmod(at, h.dim)
    return f"representation identity fails at ({h.basis_labels[i]}, {h.basis_labels[j]})"


def validate_left_module(h: HopfAlgebra, mod: LeftModule) -> bool:
    rho = _action_map(h, mod.action, mod.dim)
    if rho is None:
        raise InvalidModule("action matrix shapes do not match")
    why = _representation_failure(h, rho, swap=False)
    if why:
        raise InvalidModule(why)
    return True


def validate_bimodule(h: HopfAlgebra, mod: Bimodule) -> bool:
    left, right = (_action_map(h, mats, mod.dim) for mats in (mod.left, mod.right))
    if left is None or right is None:
        raise InvalidBimodule("action matrix shapes do not match")
    why = _representation_failure(h, left, swap=False)
    if why:
        raise InvalidBimodule(why)
    why = _representation_failure(h, right, swap=True)
    if why:
        raise InvalidBimodule(f"right {why}")
    # left (1 tensor right) = right (1 tensor left) (tau tensor 1): b_i . v . b_j
    eye, eye_d = SparseMatrix.identity(h.field, mod.dim), SparseMatrix.identity(h.field, h.dim)
    if left @ kron(eye_d, right) != right @ kron(eye_d, left) @ kron(h.maps.swap, eye):
        raise InvalidBimodule("left and right actions do not commute")
    return True


def validate_module(h: HopfAlgebra, mod: LeftModule) -> bool:
    """Validate coefficients of either kind, raising on failure."""
    if isinstance(mod, Bimodule):
        return validate_bimodule(h, mod)
    return validate_left_module(h, mod)


# -- constructions -------------------------------------------------------


def _counit_actions(h: HopfAlgebra) -> list:
    """The 1 x 1 matrices eps(b_i): column i of the counit map."""
    columns = h.maps.counit.column_map()
    return [SparseMatrix(h.field, 1, 1, columns(np.array([i]))) for i in range(h.dim)]


def trivial_module(h: HopfAlgebra) -> LeftModule:
    """The base field with action through the counit."""
    return LeftModule(1, _counit_actions(h))


def trivial_bimodule(h: HopfAlgebra) -> Bimodule:
    mats = _counit_actions(h)
    return Bimodule(1, mats, mats)


def _regular_actions(h: HopfAlgebra, side: int) -> list:
    """Left (side 1) or right (side 2) multiplication by each b_i: the
    columns of the sparse m (column i * d + j holds b_i b_j) with b_i on
    that side."""
    d = h.dim
    columns = h.maps.mult.column_map()
    at = np.arange(d, dtype=np.int64)
    return [SparseMatrix(h.field, d, d, columns(i * d + at if side == 1 else at * d + i))
            for i in range(d)]


def regular_left_module(h: HopfAlgebra) -> LeftModule:
    return LeftModule(h.dim, _regular_actions(h, 1))


def regular_bimodule(h: HopfAlgebra) -> Bimodule:
    """A acting on itself by left and right multiplication."""
    return Bimodule(h.dim, _regular_actions(h, 1), _regular_actions(h, 2))


def adjoint_module(h: HopfAlgebra, bim: Bimodule) -> LeftModule:
    """The left module on bim with a . m = a1 m S(a2): per entry (j, k) of
    column i of Delta, the left action of b_j times the right action of
    S(b_k), read off column k of S."""
    validate_bimodule(h, bim)
    fld, d, n = h.field, h.dim, bim.dim
    antipode, comult = h.maps.antipode.column_map(), h.maps.comult.column_map()

    def combine(columns, i, term):
        rows, _at, vals = columns(np.array([i]))
        return combination(fld, n, n, [(c, term(r)) for r, c in zip(rows.tolist(), vals.tolist())])

    right_s = [combine(antipode, k, lambda u: bim.right[u]) for k in range(d)]
    return LeftModule(n, [combine(comult, i, lambda jk: bim.left[jk // d] @ right_s[jk % d])
                          for i in range(d)])


def tensor_actions(h: HopfAlgebra, l: LeftModule, m: LeftModule, elements) -> list:
    """The actions of the basis elements `elements` on L tensor M,
    a . (l tensor m) = a1 l tensor a2 m: per distinct first Sweedler leg
    b_j, rho^L_j tensor B_j with B_j = sum over k of c_jk rho^M_k.

    With the B_j stacked as C = sum over j of e_j tensor B_j, the action is
    one sparse product: the action map [rho^L_0 | ... | rho^L_(d-1)] of L
    applied in the leading slot of sum over j of e_j tensor 1_L tensor B_j
    (`sparse.apply_in_slot`, in bounded batches).  Its kron terms
    nnz(rho^L_j) nnz(B_j), over every element, are charged first.
    """
    fld, d, n = h.field, h.dim, l.dim
    within = np.arange(n, dtype=np.int64)[:, None]  # the factor L, kept by 1_L
    nnz = np.array([a.nnz() for a in l.action])
    stacks, terms = [], 0
    comult = h.maps.comult.column_map()
    for i in elements:
        legs, _at, coef = comult(np.array([i]))
        parts = [(m.action[k].row_idx + j * m.dim, m.action[k].col_idx,
                  fld.reduce(m.action[k].vals * x))
                 for j, k, x in zip(*np.divmod(legs, d), coef)]
        c = SparseMatrix(fld, d * m.dim, m.dim, [np.concatenate(p) for p in zip(*parts)] or None)
        j, row = np.divmod(c.row_idx, m.dim)
        terms += int(nnz @ np.bincount(j, minlength=d))
        # in canonical order: by the column of L, then as in C
        stacks.append(((j * n + within) * m.dim + row, within * m.dim + c.col_idx, c.vals))
    require_terms(terms, f"the diagonal action on a {n} x {m.dim} tensor product")
    rho, shape = _action_map(h, l.action, n), (d * n * m.dim, n * m.dim)
    return [apply_in_slot(rho, SparseMatrix(fld, *shape, [a.reshape(-1) for a in
                                                          np.broadcast_arrays(*y)]), 1, m.dim)
            for y in stacks]


def tensor_module(h: HopfAlgebra, l: LeftModule, m: LeftModule) -> LeftModule:
    """L tensor M with the diagonal action (see tensor_actions)."""
    return LeftModule(l.dim * m.dim, tensor_actions(h, l, m, range(h.dim)))


def hom_equivariant(h: HopfAlgebra, x: LeftModule, m: LeftModule) -> Subspace:
    """Hom_A(X, M) inside flattened Hom_k(X, M): F rho^X_i = rho^M_i F for all i.

    On flattened F (see the module docstring), F rho^X is the sparse
    Kronecker operator kron(rho^X^T, 1_M) and rho^M F is kron(1_X, rho^M);
    each equation is their difference, one sparse constraint of
    `intersect_kernels`.
    """
    fld = h.field
    eye_x, eye_m = SparseMatrix.identity(fld, x.dim), SparseMatrix.identity(fld, m.dim)
    return intersect_kernels(fld, x.dim * m.dim, [
        kron(rx.transpose(), eye_m) - kron(eye_x, rm) for rx, rm in zip(x.action, m.action)])
