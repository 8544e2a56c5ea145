"""Exact symmetric (Hochschild) cohomology of cocommutative Hopf algebras."""

from .bar import classical_cohomology, nonhomogeneous_symmetric_dims, symmetric_cohomology
from .fields import Field
from .hochschild import commutative_factorization_check, compare_adjoint
from .hopf import HopfAlgebra, group_algebra, iterated_comult, validate_hopf
from .linalg import Matrix, Subspace, kernel_basis, quotient, rank
from .modules import (Bimodule, LeftModule, adjoint_module, hom_equivariant,
                      regular_bimodule, trivial_module)
from .resolution import (coinvariant_space, contracting_homotopy_check,
                         cp_rank_table, sh_via_resolution, splitting_maps,
                         sym_resolution_complex)

__all__ = [
    "Field", "Matrix", "Subspace", "kernel_basis", "quotient", "rank",
    "HopfAlgebra", "group_algebra", "iterated_comult", "validate_hopf",
    "LeftModule", "Bimodule", "adjoint_module", "hom_equivariant",
    "regular_bimodule", "trivial_module",
    "classical_cohomology", "symmetric_cohomology", "nonhomogeneous_symmetric_dims",
    "compare_adjoint", "commutative_factorization_check",
    "coinvariant_space", "sym_resolution_complex", "contracting_homotopy_check",
    "sh_via_resolution", "splitting_maps", "cp_rank_table",
]
